from fractions import Fraction

import pytest

from trichor.bounds import BoundEntry, bounds_csv, derived_bounds


def by_quantity(entries):
    return {e.quantity: e for e in entries}


def test_table_digits_at_base_30():
    d = by_quantity(derived_bounds(Fraction(30)))
    assert d["st"].table_digits() == "160"
    assert d["cf"].table_digits() == "202.5"
    assert d["pg_cg"].table_digits() == "239.4"
    assert d["sc"].table_digits() == "70.21"
    assert d["tr"].table_digits() == "30"


def test_exact_bases_at_30():
    d = by_quantity(derived_bounds(Fraction(30)))
    assert d["st"].base == 160
    assert d["cf"].base == Fraction(405, 2)
    assert d["pg_cg"].base == Fraction(2394, 10)
    assert d["sc"].base == Fraction(30 * 23403, 10000)


def test_base_43_spanning_trees():
    d = by_quantity(derived_bounds(Fraction(43)))
    assert d["st"].base == 229 + Fraction(1, 3)


def test_trivial_base_returns_multipliers():
    d = by_quantity(derived_bounds(Fraction(101, 100)))
    assert d["st"].base == Fraction(101, 100) * Fraction(16, 3)
    assert d["cf"].base == Fraction(101, 100) * Fraction(27, 4)


def test_monotone_in_tr_base():
    lo = derived_bounds(Fraction(29))
    hi = derived_bounds(Fraction(30))
    for a, b in zip(lo, hi):
        assert a.base <= b.base


def test_symbolic_sc_mode():
    d = by_quantity(derived_bounds(Fraction(30), symbolic_sc=True))
    # 30^(1/4) = 2.340347... to six decimals
    assert d["sc"].base == 30 * Fraction(2340347, 10**6)
    assert "30^(1/4)" in d["sc"].provenance


def test_rejects_base_below_one():
    with pytest.raises(ValueError):
        derived_bounds(Fraction(1))


def test_takes_exact_bases_only():
    # 30.1 as a float is 30.10000000000000142..., whose digits round up to 30.11.
    with pytest.raises(TypeError):
        derived_bounds(30.1)
    assert by_quantity(derived_bounds("30.1"))["tr"].table_digits() == "30.1"
    assert derived_bounds(30) == derived_bounds(Fraction(30))


def test_csv_digits():
    text = bounds_csv(derived_bounds(Fraction(30)))
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    got = {r[0]: r[3] for r in rows}
    assert got == {"tr": "30", "sc": "70.21", "pg_cg": "239.4", "st": "160", "cf": "202.5"}


def test_table_digits_rounds_up():
    e = BoundEntry("tr", Fraction(70209, 1000), "x")
    assert e.table_digits() == "70.21"
    e2 = BoundEntry("tr", Fraction(702, 10), "x")
    assert e2.table_digits() == "70.2"
