"""Derived per-n exponential bases for related counting problems.

Given a base b such that a point set has at most b^n triangulations,
known subgraph-counting factors turn b into bases for planar graphs,
spanning cycles, spanning trees, and forests.  The spanning-cycle
factor 2.3403 is itself a published rounding of 30^(1/4); both the
decimal-literal and the symbolic variant are available.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt

# Multipliers: exact where the source value is exact, decimal-literal
# fractions where the source is a published decimal.
SPANNING_TREE_FACTOR = Fraction(16, 3)
CYCLE_FREE_FACTOR = Fraction(27, 4)
PLANAR_GRAPH_FACTOR = Fraction(798, 100)
SPANNING_CYCLE_FACTOR = Fraction(23403, 10000)


@dataclass(frozen=True)
class BoundEntry:
    quantity: str  # tr | sc | pg_cg | st | cf
    base: Fraction
    provenance: str

    def table_digits(self) -> str:
        """Base rendered the way the summary table prints it: an upper
        bound rounded up to at most two decimals, trailing zeros
        stripped."""
        whole, frac = divmod(ceil(self.base * 100), 100)
        if frac == 0:
            return str(whole)
        text = f"{whole}.{frac:02d}".rstrip("0")
        return text


def derived_bounds(tr_base: Fraction, symbolic_sc: bool = False) -> list[BoundEntry]:
    """Bound entries for all five quantities given a triangulation base.

    With ``symbolic_sc`` the spanning-cycle factor is 30^(1/4) evaluated
    to six decimals instead of the published 2.3403 literal.  ``tr_base``
    is exact: a float raises TypeError.
    """
    if isinstance(tr_base, float):
        raise TypeError("tr_base must be exact (int, Fraction or str), not a float")
    tr_base = Fraction(tr_base)
    if tr_base <= 1:
        raise ValueError("tr_base must exceed 1")
    if symbolic_sc:
        sc_factor = _root4_30_to_6dp()
        sc_note = "spanning cycles per triangulation: 30^(1/4) to 6 decimals"
    else:
        sc_factor = SPANNING_CYCLE_FACTOR
        sc_note = "spanning cycles per triangulation: 2.3403 literal"
    return [
        BoundEntry("tr", tr_base, "triangulation base"),
        BoundEntry("sc", tr_base * sc_factor, sc_note),
        BoundEntry("pg_cg", tr_base * PLANAR_GRAPH_FACTOR, "planar/connected graphs per triangulation: 7.98 literal"),
        BoundEntry("st", tr_base * SPANNING_TREE_FACTOR, "spanning trees per planar graph: 16/3 exact"),
        BoundEntry("cf", tr_base * CYCLE_FREE_FACTOR, "cycle-free graphs per triangulation: 27/4 exact"),
    ]


def _root4_30_to_6dp() -> Fraction:
    """30^(1/4) rounded half-up to six decimals, in integers: the floor of
    a fourth root is the integer square root taken twice."""
    target = 30 * 10**24
    lo = isqrt(isqrt(target))
    # lo = floor(30^(1/4) * 10^6); round half-up on the next digit.
    nxt = (10 * lo + 5) ** 4 <= target * 10**4
    return Fraction(lo + (1 if nxt else 0), 10**6)


def bounds_csv(entries: list[BoundEntry]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["quantity", "base_num", "base_den", "table_digits", "provenance"])
    for e in entries:
        w.writerow([e.quantity, e.base.numerator, e.base.denominator, e.table_digits(), e.provenance])
    return buf.getvalue()
