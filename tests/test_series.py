"""HourlySeries validation, no-leap calendar arithmetic, July-June windows."""

from datetime import datetime, timedelta, timezone
from itertools import product

import numpy as np
import pytest

from desk import noleap_walk
from heatgrid.ids import SUBKEYS
from heatgrid.ingest import BadHeader, parse_quantity
from heatgrid.series import (
    AlignmentError,
    CoverageError,
    HourlySeries,
    MissingValue,
    NegativeValue,
    OutOfRange,
    ProfileSet,
    noleap_hour,
    noleap_stamps,
    utc,
    window_july_june,
)


def make(quantity, values, country="DE", start=utc(2009, 7, 1)):
    return HourlySeries(country, quantity, start, np.asarray(values, dtype=float))


def test_validation_per_quantity():
    make("availability_factor", [0.0, 0.5, 1.0])
    with pytest.raises(OutOfRange):
        make("availability_factor", [0.2, 1.2])
    with pytest.raises(OutOfRange):
        make("availability_factor", [-0.1])
    with pytest.raises(NegativeValue):
        make("electric_load_MW", [5.0, -1.0])
    with pytest.raises(OutOfRange):
        make("cop", [2.0, 0.0])
    with pytest.raises(MissingValue):
        make("heat_demand_MWth", [1.0, np.nan])


def test_values_are_immutable():
    ser = make("electric_load_MW", [1.0, 2.0])
    with pytest.raises(ValueError):
        ser.values[0] = 9.0


def test_noleap_hour_arithmetic_skips_feb29():
    start = noleap_hour(utc(2011, 7, 1))
    # 2012 is a leap year; Feb 29 2012 lies inside [start, 2012-07-01).
    assert noleap_hour(utc(2012, 7, 1)) - start == 8760
    assert noleap_hour(utc(2012, 2, 28, 23)) - start == 5831
    assert noleap_hour(utc(2012, 3, 1)) - start == 5832
    # Every hour of Feb 29 counts as the hour before Mar 1 00:00.
    assert noleap_hour(utc(2012, 2, 29, 0)) - start == 5831
    assert noleap_hour(utc(2012, 2, 29, 23)) - start == 5831
    # An aware stamp counts at its UTC hour; the epoch is 1970-01-01T00Z.
    assert noleap_hour(datetime(2012, 3, 1, 1, tzinfo=timezone(timedelta(hours=1)))) - start == 5832
    assert noleap_hour(utc(1970)) == 0


def test_noleap_hour_counts_the_walk_over_many_years():
    start = utc(2009, 7, 1)
    walk = noleap_walk(start, 5 * 8760 + 4322)
    stamps = np.array([ts.replace(tzinfo=None) for ts in walk], "M8[s]")
    np.testing.assert_array_equal(noleap_hour(stamps) - noleap_hour(start), np.arange(len(walk)))
    for hours in (0, 1, 24, 8760, 2 * 8760, 5 * 8760 + 4321):
        assert noleap_hour(walk[hours]) - noleap_hour(start) == hours


def test_window_starts_july_first():
    # Six calendar years, no-leap: 2009-07-01 .. 2015-06-30.
    values = np.arange(6 * 8760, dtype=float)
    ser = make("electric_load_MW", values)
    win = window_july_june(ser, 2009, 8760)
    assert win.start == utc(2009, 7, 1)
    assert len(win) == 8760
    assert win.values[0] == 0.0

    # Year label 2009 means July 2009 through June 2010.
    win2 = window_july_june(ser, 2010, 8760)
    assert win2.start == utc(2010, 7, 1)
    assert win2.values[0] == 8760.0

    short = window_july_june(ser, 2011, 24)
    assert len(short) == 24
    assert short.values[0] == 2 * 8760.0


def test_window_sum_is_exact_slice_sum():
    rng = np.random.default_rng(3)
    ser = make("electric_load_MW", rng.uniform(0, 100, 3 * 8760))
    win = window_july_june(ser, 2010, 500)
    first = noleap_walk(ser.start, len(ser)).index(utc(2010, 7, 1))
    assert win.values.sum() == ser.values[first : first + 500].sum()


def test_window_coverage_errors():
    ser = make("electric_load_MW", np.ones(8760))
    with pytest.raises(CoverageError):
        window_july_june(ser, 2016, 24)
    with pytest.raises(CoverageError):
        window_july_june(ser, 2009, 8761)
    with pytest.raises(CoverageError):
        window_july_june(ser, 2008, 24)


def test_heat_demand_set_alignment():
    hd = make("heat_demand_MWth", [1.0, 2.0])
    other = HourlySeries("DE", "heat_demand_MWth", utc(2010, 7, 1), np.array([1.0, 2.0]))
    ProfileSet("DE", "heat_demand_MWth", {("single_family", "space"): hd})
    with pytest.raises(AlignmentError):
        ProfileSet("DE", "heat_demand_MWth", {("single_family", "space"): hd, ("single_family", "water"): other})
    # An empty set is legal: it marks a country without heat rollout.
    assert ProfileSet("CH", "heat_demand_MWth", {}).profiles == {}


def test_cop_set_checks_membership_and_country():
    cop = make("cop", [2.0, 3.0])
    ProfileSet("DE", "cop", {("space", "air"): cop})
    with pytest.raises(ValueError):
        ProfileSet("DE", "cop", {("space", "diesel"): cop})
    with pytest.raises(ValueError, match="has quantity heat_demand_MWth"):
        ProfileSet("DE", "cop", {("space", "air"): make("heat_demand_MWth", [2.0, 3.0])})
    with pytest.raises(AlignmentError):
        ProfileSet("FR", "cop", {("space", "air"): cop})


@pytest.mark.parametrize("quantity", sorted(SUBKEYS))
def test_ingest_and_profile_sets_accept_the_same_keys(quantity):
    # Both read SUBKEYS: every key of the product of the admissible ids
    # passes both, and a key of the wrong length or with one unknown id
    # in any position fails both.
    admissible = [ids for _, ids in SUBKEYS[quantity]]
    ser = make(quantity, [2.0 if quantity == "cop" else 0.5] * 2)
    good = list(product(*admissible))
    first = good[0]
    bad = [first[:-1], first + admissible[-1][:1]]
    bad += [first[:i] + ("bogus",) + first[i + 1 :] for i in range(len(first))]
    for key in good:
        assert parse_quantity(".".join((quantity, *key))) == (quantity, key)
        assert ProfileSet("DE", quantity, {key: ser}).profiles == {key: ser}
    for key in bad:
        with pytest.raises(BadHeader, match=f"^{quantity} needs <"):
            parse_quantity(".".join((quantity, *key)))
        with pytest.raises(ValueError, match=f"^unknown {quantity} key "):
            ProfileSet("DE", quantity, {key: ser})


def test_cop_at_or_below_one_warns_but_passes():
    with pytest.warns(UserWarning, match="dips to"):
        ser = make("cop", [2.0, 0.9, 3.0])
    assert list(ser.values) == [2.0, 0.9, 3.0]


@pytest.mark.parametrize(
    "start", [utc(2009, 7, 1), utc(2012, 2, 28, 20), utc(2015, 12, 31, 23), utc(2099, 7, 1)]
)
def test_noleap_stamps_step_as_the_walk(start):
    hours = 2 * 8760 + 30
    want = np.array([ts.replace(tzinfo=None) for ts in noleap_walk(start, hours)], "M8[s]")
    np.testing.assert_array_equal(noleap_stamps(start, hours), want)


def test_noleap_stamps_keep_a_feb29_start_only():
    stamps = noleap_stamps(utc(2012, 2, 29, 22), 4)
    assert np.datetime_as_string(stamps).tolist() == [
        "2012-02-29T22:00:00",
        "2012-03-01T00:00:00",
        "2012-03-01T01:00:00",
        "2012-03-01T02:00:00",
    ]
