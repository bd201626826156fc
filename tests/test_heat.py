"""Heat module: coverage, tank recursion, COP link, sizing, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatgrid.heat import (
    DivisionDomain,
    FleetUnit,
    HeatConfig,
    HeatTrajectory,
    electricity_for_heat,
    fixed_trajectory,
    required_heat_output,
    size_fleet,
    validate_trajectory,
)
from heatgrid.model import HeatBlock
from heatgrid.series import AlignmentError, HourlySeries, ProfileSet, utc
from heatgrid.staticdata import load_fleet_table

KEY = ("single_family", "space", "air")
START = utc(2009, 7, 1)


def demand_set(values, country="DE", bt="single_family", st="space"):
    ser = HourlySeries(country, "heat_demand_MWth", START, np.asarray(values, dtype=float))
    return ProfileSet(country, "heat_demand_MWth", {(bt, st): ser})


def cop_set(values, country="DE", st="space", hpt="air"):
    ser = HourlySeries(country, "cop", START, np.asarray(values, dtype=float))
    return ProfileSet(country, "cop", {(st, hpt): ser})


def config(share, ep, key=KEY):
    return HeatConfig(shares={key: share}, ep_hours={key: ep})


def sized(cfg, demand, cops):
    """One country's fleet, sized from the heat-output targets of `cfg` on `demand`."""
    return size_fleet(cfg, required_heat_output(cfg, demand), cops)


class TestRequiredHeatOutput:
    def test_direct_product(self):
        out = required_heat_output(config(0.25, 0.0), demand_set([4.0, 8.0]))
        np.testing.assert_allclose(out[KEY], [1.0, 2.0])

    def test_zero_share(self):
        out = required_heat_output(config(0.0, 0.0), demand_set([4.0, 8.0]))
        np.testing.assert_array_equal(out[KEY], [0.0, 0.0])

    def test_identity_share(self):
        hd = np.array([3.0, 1.5, 7.25])
        out = required_heat_output(config(1.0, 0.0), demand_set(hd))
        np.testing.assert_array_equal(out[KEY], hd)

    def test_empty_demand_country(self):
        out = required_heat_output(config(0.25, 0.0), ProfileSet("CH", "heat_demand_MWth", {}))
        assert out == {}


class TestElectricityForHeat:
    def test_examples(self):
        assert electricity_for_heat(6.0, 3.0) == 2.0
        assert electricity_for_heat(0.0, 1.7) == 0.0
        assert electricity_for_heat(5.0, 2.5) == 2.0

    def test_cop_domain(self):
        with pytest.raises(DivisionDomain):
            electricity_for_heat(1.0, 0.0)
        with pytest.raises(DivisionDomain):
            electricity_for_heat(np.array([1.0, 1.0]), np.array([2.0, -0.5]))


class TestSizeFleet:
    def test_hand_enumeration_two_hours(self):
        # s=0.25, hd=[10,8] GW_th, cop=[2,1.6], ep=2: output peak at h0,
        # electricity peak tie 1.25 at both hours, tank 2h of output.
        unit = sized(config(0.25, 2.0), demand_set([10e3, 8e3]), cop_set([2.0, 1.6]))[KEY]
        assert unit.heat_output_capacity_mw_th == pytest.approx(2.5e3)
        assert unit.electricity_input_capacity_mw_el == pytest.approx(1.25e3)
        assert unit.heat_storage_capacity_mwh_th == pytest.approx(5.0e3)

    def test_peaks_may_fall_in_different_hours(self):
        # Output peak at h0; electricity peak at h1 where the COP dips.
        unit = sized(config(1.0, 0.0), demand_set([10.0, 9.0]), cop_set([4.0, 1.5]))[KEY]
        assert unit.heat_output_capacity_mw_th == 10.0
        assert unit.electricity_input_capacity_mw_el == pytest.approx(6.0)  # 9/1.5

    def test_empty_demand_gives_empty_fleet(self):
        empty = ProfileSet("CH", "heat_demand_MWth", {})
        assert sized(config(0.25, 2.0), empty, ProfileSet("CH", "cop", {})) == {}

    def test_storage_equals_ep_times_output_exactly(self):
        rng = np.random.default_rng(0)
        for ep in (0.0, 1.0, 2.0, 3.5):
            unit = sized(config(0.4, ep), demand_set(rng.uniform(0, 50, 24)), cop_set(rng.uniform(1.5, 4.0, 24)))[KEY]
            assert unit.heat_storage_capacity_mwh_th == ep * unit.heat_output_capacity_mw_th

    def test_positively_homogeneous_in_share(self):
        rng = np.random.default_rng(1)
        hd, cop = rng.uniform(0, 40, 12), rng.uniform(1.2, 4.5, 12)
        one = sized(config(0.2, 2.0), demand_set(hd), cop_set(cop))[KEY]
        two = sized(config(0.4, 2.0), demand_set(hd), cop_set(cop))[KEY]
        assert two.heat_output_capacity_mw_th == pytest.approx(2 * one.heat_output_capacity_mw_th)
        assert two.heat_storage_capacity_mwh_th == pytest.approx(2 * one.heat_storage_capacity_mwh_th)
        assert two.electricity_input_capacity_mw_el == pytest.approx(2 * one.electricity_input_capacity_mw_el)

    @given(
        st.lists(st.floats(0.0, 1e4), min_size=2, max_size=48),
        st.floats(1.01, 6.0),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sizing_dominance(self, hd, cop_lo, spread):
        # input capacity between peak(HO)/max(cop) and peak(HO)/min(cop)
        rng = np.random.default_rng(7)
        cop = cop_lo + rng.uniform(0, spread, len(hd))
        unit = sized(config(0.3, 0.0), demand_set(hd), cop_set(cop))[KEY]
        peak_ho = 0.3 * max(hd)
        assert unit.electricity_input_capacity_mw_el >= peak_ho / cop.max() - 1e-9
        assert unit.electricity_input_capacity_mw_el <= peak_ho / cop.min() + 1e-9


class TestHeatBlock:
    def test_targets_are_computed_once_per_country(self, monkeypatch):
        from heatgrid import model

        calls = []
        monkeypatch.setattr(model, "required_heat_output", lambda *a: calls.append(a) or required_heat_output(*a))
        cfg = config(0.5, 2.0)
        demand = {"DE": demand_set([4.0, 8.0]), "CH": ProfileSet("CH", "heat_demand_MWth", {})}
        hb = HeatBlock.build(cfg, demand, {"DE": cop_set([2.0, 4.0]), "CH": ProfileSet("CH", "cop", {})})
        assert len(calls) == 2
        assert hb.fleet == {"DE": size_fleet(cfg, hb.targets_mw["DE"], hb.cops["DE"]), "CH": {}}
        assert hb.fleet["DE"][KEY] == sized(cfg, hb.demand["DE"], hb.cops["DE"])[KEY]

    def test_cop_and_demand_misaligned_raises_naming_country(self):
        late = ProfileSet("DE", "cop", {("space", "air"): HourlySeries("DE", "cop", utc(2009, 7, 1, 1), [2.0, 3.0])})
        with pytest.raises(AlignmentError, match="^DE: "):
            HeatBlock.build(config(0.5, 0.0), {"DE": demand_set([4.0, 8.0])}, {"DE": late})


class TestValidateTrajectory:
    def _valid(self, ep=2.0, hours=24, seed=5):
        rng = np.random.default_rng(seed)
        hd = rng.uniform(0, 20, hours)
        cop = rng.uniform(1.5, 4.0, hours)
        cfg = config(0.5, ep)
        demand, cops = demand_set(hd), cop_set(cop)
        targets = required_heat_output(cfg, demand)
        fleet = {"DE": size_fleet(cfg, targets, cops)}
        traj = fixed_trajectory(targets, cops)
        return traj, fleet, targets, cops

    def test_fixed_trajectory_is_clean(self):
        traj, fleet, targets, cops = self._valid(ep=0.0)
        report = validate_trajectory(traj, fleet, targets, cops, "DE")
        assert report.max_violation <= 1e-9
        assert report.within(1e-6)

    def test_planted_tank_jump_shows_unit_residual(self):
        traj, fleet, targets, cops = self._valid(ep=2.0)
        hl = dict(traj.storage_level_mwh)
        bumped = hl[KEY].copy()
        bumped[10] += 1.0
        hl[KEY] = bumped
        broken = HeatTrajectory(traj.heat_output_mw, traj.heat_generated_mw, hl, traj.electricity_mw)
        report = validate_trajectory(broken, fleet, targets, cops, "DE")
        assert report.families["storage_recursion"].max_violation == pytest.approx(1.0)

    def test_ep_zero_output_generated_identity_is_flagged(self):
        traj, fleet, targets, cops = self._valid(ep=0.0)
        hi = dict(traj.heat_generated_mw)
        bumped = hi[KEY].copy()
        bumped[3] += 2.0
        hi[KEY] = bumped
        broken = HeatTrajectory(traj.heat_output_mw, hi, traj.storage_level_mwh, traj.electricity_mw)
        report = validate_trajectory(broken, fleet, targets, cops, "DE")
        assert report.families["ep_zero_identity"].max_violation == pytest.approx(2.0)
        assert report.families["storage_recursion"].max_violation == pytest.approx(2.0)  # Eq. recursion breaks too

    def test_families_are_the_checks_that_apply(self):
        # One family per check, over every hour of every unit; a unit with a
        # tank has no ep = 0 identity to check, so that family is absent.
        for ep, absent in ((0.0, ()), (2.0, ("ep_zero_identity",))):
            traj, fleet, targets, cops = self._valid(ep=ep)
            report = validate_trajectory(traj, fleet, targets, cops, "DE")
            checks = ("storage_recursion", "storage_bounds", "cop_link", "target_mismatch", "capacity_violation",
                      "ep_zero_identity")
            assert list(report.families) == [c for c in checks if c not in absent]
            assert all(f.rows == 24 for f in report.families.values())

    @pytest.mark.parametrize("family", ["heat_output_mw", "heat_generated_mw", "storage_level_mwh", "electricity_mw"])
    def test_a_nan_fails_the_report(self, family):
        traj, fleet, targets, cops = self._valid(ep=2.0)
        arrays = {f: dict(getattr(traj, f)) for f in ("heat_output_mw", "heat_generated_mw", "storage_level_mwh",
                                                      "electricity_mw")}
        arrays[family][KEY] = arrays[family][KEY].copy()
        arrays[family][KEY][7] = np.nan
        report = validate_trajectory(HeatTrajectory(**arrays), fleet, targets, cops, "DE")
        assert np.isnan(report.max_violation)
        assert not report.within(1e-6)


class TestNanInputs:
    def test_nan_ep_is_refused(self):
        with pytest.raises(ValueError, match="ep nan for .* not >= 0"):
            HeatConfig.uniform(0.25, float("nan"))

    def test_nan_fleet_capacity_is_refused(self):
        with pytest.raises(ValueError, match="fleet capacity nan not >= 0"):
            FleetUnit(float("nan"), 0.0, 0.0)


@given(st.integers(3, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_cyclic_telescoping_sum(hours, seed):
    # For any cyclic tank trajectory, total generated == total output.
    rng = np.random.default_rng(seed)
    hi = rng.uniform(0, 10, hours)
    hl = np.empty(hours)
    # Build HO from HI and a random cyclic tank path to make Eq. hold.
    level = rng.uniform(0, 5, hours)
    ho = hi - np.diff(np.concatenate([[level[-1]], level]))
    if (ho < 0).any():  # shift to keep outputs physical
        hi = hi - ho.min()
        ho = ho - ho.min()
    assert np.isclose(hi.sum(), ho.sum())


@given(st.integers(2, 48), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_total_electricity_non_increasing_under_cop_increase(hours, seed):
    rng = np.random.default_rng(seed)
    hi = rng.uniform(0, 10, hours)
    cop = rng.uniform(1.2, 4.0, hours)
    better = cop + rng.uniform(0, 1.5, hours)
    assert electricity_for_heat(hi, better).sum() <= electricity_for_heat(hi, cop).sum() + 1e-12


def test_reference_fleet_table_tank_is_two_hours_of_output():
    # Published capacities round to 0.1; half the tank must equal the
    # output capacity within that print precision.
    table = load_fleet_table()
    for country, (out_gw, tank_gwh, _in_gw) in table.items():
        assert abs(tank_gwh / 2.0 - out_gw) <= 0.05 + 1e-12, country
