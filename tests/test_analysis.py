"""Diagnostics: residual load, RLDC, peaks, events, deltas, cost reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatgrid.analysis import (
    Event,
    MismatchedScenario,
    cost_report,
    deviation_events,
    firm_capacity_delta,
    heat_cost_eur_per_mwh,
    peak_records,
    residual_events,
    residual_load,
    rldc,
)
from heatgrid.ids import STORAGES
from heatgrid.series import AlignmentError


class TestResidualLoad:
    def test_elementwise_subtraction(self):
        out = residual_load(np.array([5.0, 3.0]), [np.array([1.0, 4.0])])
        np.testing.assert_array_equal(out, [4.0, -1.0])

    def test_no_vre_series(self):
        load = np.array([7.0, 2.0])
        np.testing.assert_array_equal(residual_load(load, []), load)

    def test_include_hp_adds_electricity(self):
        out = residual_load(
            np.array([5.0, 3.0]), [np.array([1.0, 4.0])],
            hp_electricity=np.array([1.0, 1.0]), include_hp=True,
        )
        np.testing.assert_array_equal(out, [5.0, 0.0])

    def test_include_minus_exclude_is_exactly_hp_series(self):
        rng = np.random.default_rng(0)
        load = rng.uniform(0, 100, 50)
        vre = [rng.uniform(0, 40, 50), rng.uniform(0, 30, 50)]
        hp = rng.uniform(0, 10, 50)
        diff = residual_load(load, vre, hp, include_hp=True) - residual_load(load, vre)
        np.testing.assert_allclose(diff, hp, rtol=0, atol=1e-12)

    def test_misalignment_raises(self):
        with pytest.raises(AlignmentError):
            residual_load(np.zeros(4), [np.zeros(3)])


class TestRldc:
    def test_sorted_prefix(self):
        np.testing.assert_array_equal(rldc(np.array([4.0, -1.0, 7.0]), 2), [7.0, 4.0])

    def test_constant_series(self):
        np.testing.assert_array_equal(rldc(np.full(5, 2.0), 3), [2.0, 2.0, 2.0])

    def test_full_curve_is_permutation(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=200)
        curve = rldc(arr, len(arr))
        assert sorted(curve) == sorted(arr)

    def test_top_n_longer_than_series(self):
        with pytest.raises(ValueError):
            rldc(np.zeros(3), 4)


class TestPeakRecords:
    def test_total_peak_at_coinciding_hour(self):
        recs = peak_records(
            {"DE": np.array([1.0, 5.0, 2.0]), "FR": np.array([0.0, 4.0, 1.0])}, "load"
        )
        by = {r.country: r for r in recs}
        assert by["DE"].hour == by["FR"].hour == by["total"].hour == 1
        assert by["total"].value == 9.0

    def test_total_independent_of_country_argmax(self):
        # A peaks h0, B peaks h2, but the sum peaks at h1.
        recs = peak_records(
            {"A": np.array([5.0, 4.0, 0.0]), "B": np.array([0.0, 4.0, 5.0])}, "x"
        )
        by = {r.country: r for r in recs}
        assert by["A"].hour == 0 and by["B"].hour == 2
        assert by["total"].hour == 1 and by["total"].value == 8.0

    def test_all_zero_ties_break_to_hour_zero(self):
        recs = peak_records({"A": np.zeros(5)}, "x")
        assert recs[0].hour == 0

    def test_argmax_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(2)
        series = {c: rng.uniform(0, 10, 30) for c in ("A", "B", "C")}
        base = peak_records(series, "x")
        scaled = peak_records({c: 7.5 * v for c, v in series.items()}, "x")
        assert [r.hour for r in base] == [r.hour for r in scaled]


class TestDeviationEvents:
    def test_hand_trace_two_singletons(self):
        events = deviation_events(np.array([2.0, 4.0, 1.0, 5.0, 3.0]))  # mean 3
        assert [(e.start_hour, e.end_hour) for e in events] == [(1, 2), (3, 4)]
        assert [e.magnitude_mwh for e in events] == [1.0, 2.0]
        assert [e.normalized for e in events] == [0.5, 1.0]

    def test_hand_trace_one_run(self):
        events = deviation_events(np.array([5.0, 5.0, 1.0, 1.0]))  # mean 3
        assert events == [Event(0, 2, 4.0, 1.0)]

    def test_constant_series_has_no_events(self):
        assert deviation_events(np.full(6, 3.7)) == []

    def test_hours_at_mean_terminate_events(self):
        # mean = 2: the mid '2.0' hour splits what would be one event.
        events = deviation_events(np.array([3.0, 2.0, 3.0, 1.0, 1.0]))
        assert [(e.start_hour, e.end_hour) for e in events] == [(0, 1), (2, 3)]


class TestResidualEvents:
    def test_hand_trace(self):
        events = residual_events(np.array([4.0, -1.0, 7.0]))
        assert [(e.start_hour, e.end_hour, e.magnitude_mwh) for e in events] == [
            (0, 1, 4.0),
            (2, 3, 7.0),
        ]
        assert [e.normalized for e in events] == [4.0 / 7.0, 1.0]

    def test_all_negative(self):
        assert residual_events(-np.ones(5)) == []

    def test_single_positive_hour(self):
        events = residual_events(np.array([-1.0, 2.0, -3.0]))
        assert events == [Event(1, 2, 2.0, 1.0)]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), st.booleans())
@settings(max_examples=200, deadline=None)
def test_event_partition_and_magnitude_sum(values, use_deviation):
    from heatgrid.analysis import deviation_threshold

    arr = np.asarray(values)
    if use_deviation:
        events = deviation_events(arr)
        excess = arr - arr.mean()
        above = excess > deviation_threshold(arr)
    else:
        events = residual_events(arr)
        excess = arr
        above = excess > 0.0
    covered = np.zeros(len(arr), dtype=bool)
    for ev in events:
        assert 0 <= ev.start_hour < ev.end_hour <= len(arr)
        assert not covered[ev.start_hour : ev.end_hour].any()  # disjoint
        covered[ev.start_hour : ev.end_hour] = True
        assert ev.magnitude_mwh > 0.0
        assert 0.0 < ev.normalized <= 1.0
    # Every above-threshold hour belongs to exactly one event...
    np.testing.assert_array_equal(covered, above)
    # ...and magnitudes add up to the total excess over those hours, exactly.
    total = sum(ev.magnitude_mwh for ev in events)
    assert total == pytest.approx(excess[above].sum(), rel=1e-12, abs=1e-9)
    if events:
        assert sum(1 for ev in events if ev.normalized == 1.0) >= 1


class _FakeResult:
    """A saved cell with one country, its capacities given by name in MW."""

    def __init__(self, year, variant, caps, costs, heat_mwh=0.0):
        self.year = year
        self.variant = variant
        self.heat_share = 0.25 if heat_mwh else 0.0
        self.capacities_mw = {
            "DE": {("storage_discharge" if n in STORAGES else "generation", n): mw for n, mw in caps.items()}
        }
        self.costs_eur = dict(costs)
        self.costs_eur.setdefault("objective", costs["total"])
        self.costs_eur["heat_supplied_mwh"] = heat_mwh
        self.name = f"fake-{variant}-{year}"


class TestFirmDelta:
    def test_identical_results_zero_delta(self):
        r = _FakeResult(2009, "base", {"ccgt": 5.0, "p2g2p": 2.0}, {"total": 10.0})
        deltas = firm_capacity_delta(r, r)
        assert all(v == 0.0 for v in deltas.values())

    def test_delta_and_firm_subtotal(self):
        a = _FakeResult(2009, "base", {"ccgt": 7.0, "li_ion": 3.0, "solar_pv": 50.0}, {"total": 12.0})
        b = _FakeResult(2009, "base", {"ccgt": 5.0, "li_ion": 4.0, "solar_pv": 10.0}, {"total": 10.0})
        deltas = firm_capacity_delta(a, b)
        assert deltas["ccgt"] == 2.0
        assert deltas["li_ion"] == -1.0
        assert "solar_pv" not in deltas  # variable renewables are not firm
        assert deltas["firm_total"] == 1.0

    def test_mismatched_pairs_raise(self):
        a = _FakeResult(2009, "base", {}, {"total": 1.0})
        b = _FakeResult(2010, "base", {}, {"total": 1.0})
        with pytest.raises(MismatchedScenario):
            firm_capacity_delta(a, b)
        c = _FakeResult(2009, "no_ntc", {}, {"total": 1.0})
        with pytest.raises(MismatchedScenario):
            firm_capacity_delta(a, c)


class TestCostReport:
    def test_heat_cost_anchor(self):
        # 5e9 EUR over 325 TWh of heat.
        price = heat_cost_eur_per_mwh(5e9, 325e6)
        assert price == pytest.approx(15.3846, abs=1e-3)
        assert abs(price - 15.5) < 0.2

    def test_zero_heat_supplied_is_null(self):
        assert heat_cost_eur_per_mwh(5e9, 0.0) is None

    def test_report_with_baseline(self):
        base = _FakeResult(2009, "base", {}, {
            "investment": 1.0, "fixed_om": 2.0, "variable": 3.0,
            "storage_marginal": 0.5, "total": 6.5,
        })
        withhp = _FakeResult(2009, "base", {}, {
            "investment": 2.0, "fixed_om": 2.0, "variable": 4.0,
            "storage_marginal": 0.5, "total": 8.5,
        }, heat_mwh=4.0)
        report = cost_report(withhp, baseline=base)
        assert report["delta_cost_eur"] == pytest.approx(2.0)
        assert report["heat_cost_eur_per_mwh"] == pytest.approx(0.5)


class TestDailyTotals:
    def test_sums_full_days(self):
        from heatgrid.analysis import daily_totals

        arr = np.arange(50, dtype=float)  # two full days + 2h remainder
        out = daily_totals(arr)
        assert out.shape == (2,)
        assert out[0] == arr[:24].sum()
        assert out[1] == arr[24:48].sum()

    def test_needs_a_full_day(self):
        from heatgrid.analysis import daily_totals

        with pytest.raises(ValueError):
            daily_totals(np.zeros(23))


def test_peak_records_rejects_misaligned_bundle():
    with pytest.raises(AlignmentError):
        peak_records({"A": np.zeros(5), "B": np.zeros(4)}, "x")


def test_firm_delta_on_hand_solved_pair():
    # One country, one expandable dispatchable, flat load [1000, 1000] MW.
    # A tank-less heat pump adds E = [500, 0] MW, so peak capacity moves
    # from 1000 to exactly 1500 MW: firm delta +500 MW.
    import numpy as np

    from desk import heat_block, instance, tech
    from heatgrid.model import build_model, extract_solved
    from heatgrid.solver import solve

    t = tech("ccgt", varcost_fuel=26.0, efficiency=0.61, availability=1.0)
    without = instance(
        "pair-base",
        loads_mw={"DE": np.array([1000.0, 1000.0])},
        techs={"ccgt": t},
        gen_bounds={("DE", "ccgt"): (0.0, float("inf"))},
    )
    hb = heat_block("DE", share=0.25, ep=0.0, hd_values=[4000.0, 0.0], cop_values=[2.0, 2.0])
    withhp = instance(
        "pair-hp",
        loads_mw={"DE": np.array([1000.0, 1000.0])},
        techs={"ccgt": t},
        gen_bounds={("DE", "ccgt"): (0.0, float("inf"))},
        heat=hb,
    )

    class _Shim:
        year = 2009
        variant = "base"

        def __init__(self, inst):
            lp = build_model(inst)
            sol = solve(lp)
            assert sol.status == "optimal"
            self.capacities_mw = extract_solved(inst, lp, sol).capacities_mw

    deltas = firm_capacity_delta(_Shim(withhp), _Shim(without))
    assert deltas["ccgt"] == pytest.approx(500.0, abs=1e-6)
    assert deltas["firm_total"] == pytest.approx(500.0, abs=1e-6)
