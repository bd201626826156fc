"""Diagnostics: residual load, RLDC, peaks, events, deltas, cost reports.

The `reference_emit_*` functions are the csv-module emitters that the
declared analysis tables replaced, one `writerow` per row. The tables must
reproduce their bytes.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatgrid import analysis
from heatgrid.analysis import (
    Event,
    MismatchedScenario,
    cost_report,
    daily_totals,
    deviation_events,
    firm_capacity_delta,
    heat_cost_eur_per_mwh,
    pair_results,
    peak_records,
    residual_events,
    residual_load,
    result_residual_load,
    rldc,
    system_residual_load,
)
from heatgrid.dataset import build_synth_dataset
from heatgrid.heat import HeatTrajectory
from heatgrid.ids import STORAGES
from heatgrid.scenarios import PersistedResult, load_results, run_matrix, specs_for_selector
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

    def test_negative_top_n(self):
        with pytest.raises(ValueError, match="top_n -1 not in"):
            rldc(np.zeros(3), -1)


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


# ---------------------------------------------------------------------------
# Emitters: the declared tables against the csv-module writers they replaced
# ---------------------------------------------------------------------------


def reference_emit_rldc_csv(results, path, top_n=50):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "year", "with_hp_load", "rank", "residual_mw"])
        for result in results:
            for include_hp in (False, True):
                series = system_residual_load(result, include_hp=include_hp)
                n = min(top_n, len(series))
                for rank, value in enumerate(rldc(series, n)):
                    writer.writerow([result.name, result.year, int(include_hp), rank, repr(float(value))])


def reference_emit_peaks_csv(results, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "year", "quantity", "country", "hour", "value_mw"])
        for result in results:
            bundles = {
                "heat_demand": {c: result.heat_output_mw(c) for c in result.countries()},
                "heat_pump_load": {c: result.hp_load_mw(c) for c in result.countries()},
                "residual_load": {c: result_residual_load(result, c) for c in result.countries()},
            }
            for quantity, per_country in bundles.items():
                for rec in peak_records(per_country, quantity):
                    writer.writerow([result.name, result.year, quantity, rec.country, rec.hour, repr(rec.value)])


def reference_emit_events_csv(results, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["scenario", "year", "event_type", "country", "start_hour", "end_hour", "magnitude_mwh", "normalized"]
        )
        for result in results:
            for c in result.countries():
                heat = result.heat_output_mw(c)
                if heat.any():
                    for ev in deviation_events(heat):
                        writer.writerow(
                            [result.name, result.year, "heat_deviation", c,
                             ev.start_hour, ev.end_hour, repr(ev.magnitude_mwh), repr(ev.normalized)]
                        )
                for ev in residual_events(result_residual_load(result, c)):
                    writer.writerow(
                        [result.name, result.year, "positive_residual", c,
                         ev.start_hour, ev.end_hour, repr(ev.magnitude_mwh), repr(ev.normalized)]
                    )


def reference_emit_daily_heat_csv(results, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "year", "country", "day", "heat_output_mwh_th"])
        for result in results:
            for c in result.countries():
                heat = result.heat_output_mw(c)
                if not heat.any() or len(heat) < 24:
                    continue
                for day, value in enumerate(daily_totals(heat)):
                    writer.writerow([result.name, result.year, c, day, repr(float(value))])


def reference_emit_firm_delta_csv(results, path):
    pairs = pair_results(results)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "baseline", "year", "name", "delta_mw"])
        for with_hp, without_hp in pairs:
            for name, delta in sorted(firm_capacity_delta(with_hp, without_hp).items()):
                writer.writerow([with_hp.name, without_hp.name, with_hp.year, name, repr(float(delta))])


EMITTERS = {
    "rldc": (analysis.emit_rldc_csv, reference_emit_rldc_csv),
    "peaks": (analysis.emit_peaks_csv, reference_emit_peaks_csv),
    "events": (analysis.emit_events_csv, reference_emit_events_csv),
    "daily_heat": (analysis.emit_daily_heat_csv, reference_emit_daily_heat_csv),
    "firm_delta": (analysis.emit_firm_delta_csv, reference_emit_firm_delta_csv),
}


def assert_emitters_match_reference(results, tmp_path) -> dict:
    """Each emitter's bytes equal its reference's; returns the texts by emitter."""
    texts = {}
    for name, (emit, reference_emit) in EMITTERS.items():
        ours, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        emit(results, ours)
        reference_emit(results, ref)
        assert ours.read_bytes() == ref.read_bytes(), name
        texts[name] = ours.read_text()
    return texts


@pytest.fixture(scope="module")
def saved_matrix(tmp_path_factory):
    """The full `all` matrix of two countries over 48 h, saved and loaded back."""
    out = tmp_path_factory.mktemp("matrix")
    ds = build_synth_dataset(11, ["AT", "DE"], [2009], 48)
    run_matrix(ds, specs_for_selector("all", [2009], 48), out_dir=out)
    return load_results(out)


def test_emitters_match_reference_on_saved_matrix(saved_matrix, tmp_path):
    assert len(saved_matrix) == 13 and all(r.manifest["status"] == "optimal" for r in saved_matrix)
    assert len(pair_results(saved_matrix)) == 7
    texts = assert_emitters_match_reference(saved_matrix, tmp_path)
    assert all(text.count("\n") > 1 for text in texts.values())


def _hand_built(name, heat_share, hours=48):
    """One saved DE cell whose values give -0.0, 1e16, 0.1 + 0.2 and a 5e-324 event."""
    load, hp_load, heat = np.zeros(hours), np.full(hours, -0.0), np.zeros(hours)
    load[[3, 6]] = [1e16, 5e-324]
    heat[[0, 1]] = [0.1, 0.2]
    dispatch = {("DE", "load", "electric"): load}
    trajectories = {}
    capacities = {("generation", "ccgt"): 0.0, ("generation", "nuclear"): 0.0, ("storage_discharge", "li_ion"): 0.2}
    if heat_share:
        dispatch[("DE", "load", "heat_pump")] = hp_load
        unit = ("single_family", "space", "air")
        trajectories["DE"] = HeatTrajectory({unit: heat}, {unit: np.zeros(hours)}, {unit: np.zeros(hours)},
                                            {unit: hp_load})
        capacities = {("generation", "ccgt"): 0.0, ("generation", "nuclear"): 1e16,
                      ("storage_discharge", "li_ion"): 0.1 + 0.2}
    return PersistedResult(
        path=Path(name), manifest={}, name=name, variant="base", heat_share=heat_share,
        ep=2.0 if heat_share else None, year=2009, hours=hours, status="optimal",
        capacities_mw={"DE": capacities}, dispatch_mw=dispatch, flows_mw={}, heat=trajectories, costs_eur={},
    )


def test_emitters_match_reference_on_hand_built_extremes(tmp_path):
    results = [_hand_built("base-hp00", 0.0), _hand_built("base-hp25-ep2", 0.25)]
    texts = assert_emitters_match_reference(results, tmp_path)
    assert ",1e+16\n" in texts["rldc"] and ",1e+16\n" in texts["peaks"]
    assert "base-hp25-ep2,2009,heat_pump_load,total,0,-0.0\n" in texts["peaks"]
    assert "base-hp25-ep2,2009,DE,0,0.30000000000000004\n" in texts["daily_heat"]
    assert ",positive_residual,DE,6,7,5e-324,5e-324\n" in texts["events"]
    assert "base-hp25-ep2,base-hp00,2009,nuclear,1e+16\n" in texts["firm_delta"]


def test_heat_output_adds_units_from_zeros_in_unit_order():
    units = [("single_family", "water", "air"), ("single_family", "space", "air"), ("multi_family", "space", "air")]
    outputs = {unit: np.full(48, value) for unit, value in zip(units, (-1e16, 1e16, 1.0))}  # in reverse unit order
    zeros = {unit: np.zeros(48) for unit in units}
    cell = _hand_built("base-hp25-ep2", 0.25)
    cell.heat = {"DE": HeatTrajectory(outputs, zeros, zeros, zeros)}
    # (0 + 1.0) + 1e16 loses the 1.0, then -1e16 cancels: 0.0; the insertion order would give 1.0.
    assert cell.heat_output_mw("DE").tolist() == [0.0] * 48
    assert cell.heat_output_mw("AT").tolist() == [0.0] * 48  # a country without heat pumps
