"""The charging scheme: vints, flip-trees, rigid cores, exact charges.

A vint is a (point, triangulation) pair; an i-vint has degree i.
Deleting the point leaves a star-shaped hole whose triangulation count
is the vint's support.  A degree-i vint sends (7 - i) / support to each
3-vint it can be flipped down to, so a 3-vint self-charges 4 and
degree >= 8 vints charge negative amounts.

For a 3-vint v the charging vints are recovered without any search:
they correspond bijectively to the root-containing subtrees of the
flip-tree of v.  Each subtree's polygon is the hole of its vint, and
its edge count j gives the degree j + 3.  The rigid core (the maximal
all-rigid subtree at the root) captures exactly the support-1 chargers.
Every subtree census reads the flat flip-tree key that ``flip_tree_key``
grows for a 3-vint (``charge`` and ``audit`` alike);
a ``FlipTree`` is the decoded view of a key, for DOT and rigid cores,
and is never encoded back.

``audit`` runs the whole scheme over every triangulation of an instance
and checks charge conservation, the per-degree charger-count bound, and
the maximum charge received by any 3-vint.  Each triangulation is read
through the walk's star map, each 3-vint through its key (rule 1
included, so no tree is decoded) and each larger vint's link rules
through its point's neighbour set.  The memos hold priced values only:
a run of triangulations keeps its own ledger and yields one AuditReport,
and ``merge`` adds the report of the run that follows, so subtrees
audited in pool workers combine, in walk order, into the sequential
report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import comb, lcm
from typing import NamedTuple

from .enumeration import FlipWalk
from .errors import CapExceededError, HasDeepEdgesError, InvariantError, NotA3VintError
from .geometry import AugmentedPointSet, crosses
from .polygons import PolygonCounter, SimplePolygon, catalan, count_triangulations, is_convex
from .triangulation import (
    EdgeRef,
    Triangulation,
    edge,
    fingerprint_bytes,
    star_link,
    star_triangles,
)

# Most root-containing subtrees one flip-tree may have.
SUBTREE_CAP = 10**6

# A parallel audit's parent tallies the states fewer than this many
# flips below the Delaunay root and deals out the subtrees at this depth.
SPLIT_DEPTH = 2

# Conjectured ceiling on any single 3-vint charge; exceeding it is
# flagged as noteworthy, only >= 30 is a hard violation.
BELIEVED_MAX_CHARGE = Fraction(28 * 28 + 17, 28)
HARD_CHARGE_BOUND = 30


# ---------------------------------------------------------------------------
# vints and holes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vint:
    """A vertex-in-triangulation pair.  The point must be interior."""

    point: int
    triangulation: Triangulation

    def __post_init__(self):
        if self.point not in self.triangulation.vertices.interior_indices():
            raise ValueError(f"point {self.point} is not interior")

    @property
    def degree(self) -> int:
        return len(self.triangulation.star[self.point])

    def link(self) -> list[int]:
        return self.triangulation.link_cycle(self.point)


def hole_of(u: Vint) -> SimplePolygon:
    """The polygon left by deleting the vint's point and its edges, with
    the point as its kernel witness; its vertices are ``u.link()``."""
    pts = u.triangulation.points
    return SimplePolygon([pts[i] for i in u.link()], kernel_witness=pts[u.point])


def support(u: Vint) -> int:
    """Number of triangulations of the vint's hole."""
    return count_triangulations(hole_of(u))


# ---------------------------------------------------------------------------
# flip-trees
# ---------------------------------------------------------------------------


class FlipTreeNode(NamedTuple):
    """A non-root flip-tree node: a face of the base triangulation.

    ``dual`` is the triangulation edge shared with the parent triangle,
    ``apex`` the face's vertex away from that edge, and ``opp`` the
    parent triangle's vertex opposite the dual edge.  The edge into this
    node is rigid iff the dual edge cannot be flipped inside the union
    of the two triangles.
    """

    dual: EdgeRef
    apex: int
    opp: int
    rigid: bool
    level: int
    children: tuple[FlipTreeNode, ...] = ()

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()


class FlipTree(NamedTuple):
    """Rooted tree of the vints that flip down to a given 3-vint.

    The root stands for the hole triangle of the 3-vint; its children
    (at most three) arise from hole-triangle edges flippable in the base
    triangulation, deeper children (at most two each) from expansions
    that keep the grown polygon star-shaped around the point.  A tree
    is a value, equal to another exactly when their ``flip_tree_key``s are.
    """

    point: int
    link: tuple[int, int, int]
    children: tuple[FlipTreeNode, ...]

    def nodes(self) -> list[FlipTreeNode]:
        return [node for c in self.children for node in c.iter_nodes()]

    def edge_count(self) -> int:
        return len(self.nodes())

    def shape(self) -> tuple:
        """The tree with its labels dropped: each node is the tuple of
        its children's shapes."""
        return _shape(self.children)

    def to_dot(self) -> str:
        lines = ["digraph fliptree {", "  node [shape=circle];"]
        a, b, c = self.link
        lines.append(f'  root [label="t({a},{b},{c})", shape=triangle];')
        _dot_nodes("root", self.children, (f"n{i}" for i in count(1)), lines)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_nodes(parent: str, nodes, names, lines: list[str]) -> None:
    """Append the DOT lines of ``nodes``, the children of ``parent``, in
    preorder, each named by the next of ``names``."""
    for node in nodes:
        name = next(names)
        lines.append(f'  {name} [label="{node.apex}"];')
        style = "solid" if node.rigid else "dashed"
        lines.append(f"  {parent} -> {name} [style={style}];")
        _dot_nodes(name, node.children, names, lines)


def _shape(nodes, rigid_only: bool = False) -> tuple:
    """Each node as the tuple of its kept (all, or rigid) children's shapes."""
    return tuple(_shape(n.children, rigid_only) for n in nodes if n.rigid or not rigid_only)


def subtree_size_counts(shape: tuple) -> list[int]:
    """``counts[j]``: the number of root-containing subtrees with j edges
    of the tree ``shape``, whose nodes are the tuples of their children."""
    counts = [1]
    for c in shape:
        # Leave c out (1), or take the edge to c and a subtree below it.
        factor = [1] + subtree_size_counts(c)
        prod = [0] * (len(counts) + len(factor) - 1)
        for i, a in enumerate(counts):
            for k, b in enumerate(factor):
                prod[i + k] += a * b
        counts = prod
    return counts


def flip_tree_key(signs, star, p: int) -> tuple[int, ...]:
    """The flip-tree of the 3-vint p as the flat key ``(p, a, b, c,
    *preorder)`` over p's link (a, b, c), smallest index first, the
    ``star_map`` ``star`` (only read) and the order type ``signs``; equal
    keys mean equal trees.

    The preorder lists each child slot through an edge u -> v, whose near
    triangle lies on its left: -1 if it is empty, else the apex q, 1 if
    (u, v) is rigid (cannot flip to (opp, q), opp the near triangle's
    third vertex) or 0, and its two child slots (u, q) and (q, v), in
    boundary order.  The grown hole is star-shaped from p, so p and opp
    lie left of u -> v and q right of it: pq crosses uv iff u and v lie on
    opposite sides of pq, one sign comparison."""
    succ = star.get(p) or {}
    a = min(succ, default=-1)
    b = succ.get(a)
    c = succ.get(b)
    if len(succ) != 3 or c == a or succ.get(c) != a:
        link = star_link(star, p)
        if link is None:
            raise NotA3VintError(f"point {p} is not interior")
        raise NotA3VintError(f"point {p} has degree {len(link)}")
    out = [p, a, b, c]
    sp = signs[p]
    # A grown face is marked by the bit mask of its vertices.
    used = set()
    stack = [(c, a, b), (b, c, a), (a, b, c)]
    while stack:
        u, v, opp = stack.pop()
        # Grow the left child slot (u, q) in place; the right one waits.
        while (q := star[v].get(u)) is not None and sp[q][u] != sp[q][v]:
            face = 1 << u | 1 << v | 1 << q
            if face in used:
                raise InvariantError("flip-tree expansion revisited a face")
            used.add(face)
            so = signs[opp][q]
            out += (q, 1 if so[u] == so[v] else 0)
            # The far face (u, q, v) lies left of its edges u -> q and q -> v.
            stack.append((q, v, u))
            v, opp = q, v
        out.append(-1)
    return tuple(out)


def tree_from_key(key: tuple[int, ...]) -> FlipTree:
    """Decode a ``flip_tree_key``; a slot's place fixes dual, opp and level."""
    p, a, b, c = key[:4]
    preorder = iter(key[4:])
    kids = [_decode(preorder, u, v, w, u, 1) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))]
    return FlipTree(p, (a, b, c), tuple(k for k in kids if k is not None))


def _decode(preorder, u, v, opp, first, level) -> FlipTreeNode | None:
    """The node in the slot through edge (u, v), read from ``preorder``, or
    None; of its children, the one at endpoint ``first`` comes first.
    Module functions, unlike closures, leave no reference cycle."""
    q = next(preorder)
    if q < 0:
        return None
    rigid = next(preorder) == 1
    kids = [_decode(preorder, x, y, o, q, level + 1) for x, y, o in ((u, q, v), (q, v, u))]
    if first != u:
        kids.reverse()
    return FlipTreeNode(edge(u, v), q, opp, rigid, level, tuple(k for k in kids if k is not None))


def build_flip_tree(v: Vint) -> FlipTree:
    """Flip-tree of a 3-vint of a triangulation over an augmented set."""
    t = v.triangulation
    return tree_from_key(flip_tree_key(t.vertices.signs, t.star, v.point))


# ---------------------------------------------------------------------------
# rigid cores and their charge contributions
# ---------------------------------------------------------------------------


class RigidCore:
    """Maximal root-containing all-rigid subtree of a flip-tree, kept as
    its ``shape``: each node is the tuple of its children's shapes, e.g.
    the complete height-3 core is ``(h2, h2, h2)`` with
    ``h2 = (((), ()), ((), ()))``.

    Level statistics: lambda1..lambda3 count edges per level, nu2 counts
    level-1 nodes with two child edges.  The child counts (at most three
    at the root, two below) are validated on construction; they imply
    the restrictions lambda2 <= 2 lambda1, lambda3 <= 2 lambda2 and
    nu2 <= lambda2 / 2, since lambda2 counts the children of the level-1
    nodes and lambda3 those of the level-2 nodes.
    """

    __slots__ = ("shape", "m", "lambda1", "lambda2", "lambda3", "nu2", "max_level")

    def __init__(self, shape: tuple):
        if len(shape) > 3:
            raise ValueError("core root has more than three children")
        self.shape = shape
        # widths[i]: the number of edges (nodes) at level i + 1.
        widths, level = [], shape
        while level:
            if any(len(node) > 2 for node in level):
                raise ValueError("core node has more than two children")
            widths.append(len(level))
            level = [c for node in level for c in node]
        self.m = sum(widths)
        self.max_level = len(widths)
        self.lambda1, self.lambda2, self.lambda3 = (widths + [0, 0, 0])[:3]
        self.nu2 = sum(len(node) == 2 for node in shape)


def rigid_core(tree: FlipTree) -> RigidCore:
    """The RigidCore of the tree's all-rigid part: a child is kept only
    when its edge is rigid, recursively."""
    return RigidCore(_shape(tree.children, rigid_only=True))


def contr_plus_closed_form(core: RigidCore) -> int:
    """Positive charge of a core's subtrees via the level statistics."""
    if core.max_level >= 4:
        raise HasDeepEdgesError("closed form defined for cores without level-4 edges")
    l1, l2, l3 = core.lambda1, core.lambda2, core.lambda3
    return 4 + comb(l1, 3) + l1 * l1 + 2 * l1 + (l1 + 1) * l2 + l3 + core.nu2


def contr_plus_census(core: RigidCore) -> int:
    """Positive charge: subtrees with at most three edges."""
    return sum((4 - j) * c for j, c in enumerate(subtree_size_counts(core.shape)) if j <= 3)


def contr_plus(core: RigidCore) -> int:
    return contr_plus_closed_form(core) if core.max_level < 4 else contr_plus_census(core)


def contr_minus(core: RigidCore) -> int:
    """Negative charge: subtrees with five or more edges."""
    return sum((4 - j) * c for j, c in enumerate(subtree_size_counts(core.shape)) if j >= 5)


# ---------------------------------------------------------------------------
# subtree census of a geometric flip-tree: the charging vints
# ---------------------------------------------------------------------------


def _census(key, nodes=True):
    """(CCW boundary from a, chosen nodes) of every root-containing subtree
    of the flip-tree ``key``, or the boundary alone without ``nodes``,
    lazily: the product of the options of the root slots a -> b, b -> c
    and c -> a.  A chosen node is the triple (key position of its apex,
    slot edge u, v).  The cap is checked before anything is yielded."""
    a, b, c = key[1:4]
    preorder = islice(enumerate(key), 4, None)
    ab, bc, ca = (_slot_options(preorder, u, v, nodes) for u, v in ((a, b), (b, c), (c, a)))
    total = len(ab) * len(bc) * len(ca)
    if total > SUBTREE_CAP:
        raise CapExceededError(f"flip-tree has {total} subtrees, cap {SUBTREE_CAP}")
    if not nodes:
        return (x + y + z for x in ab for y in bc for z in ca)
    return ((x + y + z, xs + ys + zs) for x, xs in ab for y, ys in bc for z, zs in ca)


def _slot_options(preorder, u, v, nodes) -> list:
    """The options, as (chain from u up to v, chosen nodes) or the chain
    alone, of the slot through the boundary edge u -> v, read from
    ``preorder``, the enumerated key: leave it out, or take its node
    (apex q at position i), an option of (u, q) and one of (q, v)."""
    i, q = next(preorder)
    if q < 0:
        return [((u,), ())] if nodes else [(u,)]
    next(preorder)
    left = _slot_options(preorder, u, q, nodes)
    right = _slot_options(preorder, q, v, nodes)
    if nodes:
        return [((u,), ())] + [(x + y, ((i, u, v), *xs, *ys)) for x, xs in left for y, ys in right]
    return [(u,)] + [x + y for x in left for y in right]


def _rule1(key, signs, i, u, v, opp, level, found) -> int:
    """Append to ``found``, for each rigid level-1/2 node with two non-rigid
    children (see ``RulesReport``) in the slot through u -> v at position i
    of ``key``, whether both children free it; return the slot's end."""
    q = key[i]
    if q < 0:
        return i + 1
    j = _rule1(key, signs, i + 2, u, q, v, level + 1, found)
    end = _rule1(key, signs, j, q, v, u, level + 1, found)
    if level <= 2 and key[i + 1] == 1 and key[i + 2] >= 0 <= key[j] and key[i + 3] == 0 == key[j + 1]:
        found.append(crosses(signs, opp, key[i + 2], u, v) and crosses(signs, opp, key[j], u, v))
    return end


def frac_json(f: Fraction) -> dict:
    """An exact fraction as JSON: numerator and denominator strings."""
    return {"num": str(f.numerator), "den": str(f.denominator)}


@dataclass(frozen=True)
class ChargeContribution:
    """One vint charging a 3-vint: a root-containing subtree of its flip-tree.

    ``dual_edges`` are the triangulation edges dual to the chosen tree
    edges (sorted), ``boundary`` the polygon of the grown hole in CCW
    order, ``all_rigid`` whether the subtree lies in the rigid core,
    ``support`` the hole's triangulation count and ``amount`` the charge
    (4 - j) / support it sends.
    """

    dual_edges: tuple[EdgeRef, ...]
    boundary: tuple[int, ...]
    all_rigid: bool
    support: int
    amount: Fraction

    @property
    def j(self) -> int:
        return len(self.dual_edges)

    @property
    def degree(self) -> int:
        return self.j + 3


@dataclass
class ChargeReport:
    """Exact charge received by one 3-vint, itemized by charging vint."""

    point: int
    fingerprint: str
    contributions: list[ChargeContribution]
    total: Fraction

    def degree_counts(self) -> dict[int, int]:
        return dict(Counter(c.degree for c in self.contributions))

    def to_json_dict(self) -> dict:
        return {
            "point": self.point,
            "fingerprint": self.fingerprint,
            "total": frac_json(self.total),
            "contributions": [
                {
                    "degree": c.degree,
                    "support": str(c.support),
                    "amount": frac_json(c.amount),
                    "dual_edges": [list(e) for e in c.dual_edges],
                }
                for c in self.contributions
            ],
        }


def _charge_report(key, counter: PolygonCounter, fingerprint: str = "") -> ChargeReport:
    """The itemised charge received by the 3-vint of the flip-tree ``key``,
    one contribution per subtree by (j, dual edges): a chosen node's dual
    edge is its slot edge, and the int after its apex is 1 iff that edge
    is rigid."""
    contribs = []
    for boundary, chosen in _census(key):
        supp = counter.count(boundary)
        duals = tuple(sorted(edge(u, v) for _, u, v in chosen))
        all_rigid = all(key[i + 1] for i, _, _ in chosen)
        contribs.append(ChargeContribution(duals, boundary, all_rigid, supp, Fraction(4 - len(duals), supp)))
    contribs.sort(key=lambda c: (c.j, c.dual_edges))
    return ChargeReport(key[0], fingerprint, contribs, sum((c.amount for c in contribs), Fraction(0)))


def charge(v: Vint) -> ChargeReport:
    """Exact total charge received by the 3-vint v."""
    t = v.triangulation
    key = flip_tree_key(t.vertices.signs, t.star, v.point)
    return _charge_report(key, PolygonCounter(t.vertices.signs), t.fingerprint())


# ---------------------------------------------------------------------------
# whole-instance audit
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    """Charging-scheme audit over every triangulation of an instance, or
    over a run of them: ``merge`` adds the report of the run that follows.

    ``conservation_lhs`` sums (7 - deg) over every vint; the right side
    sums the charge received by every 3-vint.  Exact equality is the
    consistency check of the whole scheme.
    """

    n: int
    triangulation_count: int = 0
    conservation_rhs: Fraction = Fraction(0)
    max_charge: Fraction = Fraction(0)
    max_charge_at: tuple[str, int] | None = None
    charger_count_max: dict[int, int] = field(default_factory=dict)
    degree_totals: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    rules: RulesReport | None = None

    @property
    def three_vint_count(self) -> int:
        return self.degree_totals.get(3, 0)

    @property
    def conservation_lhs(self) -> int:
        return sum((7 - d) * c for d, c in self.degree_totals.items())

    @property
    def vhat3(self) -> Fraction | None:
        return Fraction(self.three_vint_count, self.triangulation_count) if self.triangulation_count else None

    @property
    def exceeds_believed_max(self) -> bool:
        return self.max_charge > BELIEVED_MAX_CHARGE

    @property
    def conservation_ok(self) -> bool:
        return self.conservation_lhs == self.conservation_rhs

    @property
    def ok(self) -> bool:
        return not self.violations

    def offer_max(self, total: Fraction, at: tuple[str, int]) -> None:
        """Keep the largest charge, then the smallest (fingerprint, point)."""
        if self.max_charge_at is None or total > self.max_charge or (
            total == self.max_charge and at < self.max_charge_at
        ):
            self.max_charge = total
            self.max_charge_at = at

    def offer_chargers(self, degree: int, count: int) -> None:
        if count > self.charger_count_max.get(degree, 0):
            self.charger_count_max[degree] = count

    def merge(self, other: "AuditReport") -> None:
        self.triangulation_count += other.triangulation_count
        self.conservation_rhs += other.conservation_rhs
        if other.max_charge_at is not None:
            self.offer_max(other.max_charge, other.max_charge_at)
        for d, c in other.charger_count_max.items():
            self.offer_chargers(d, c)
        for d, c in other.degree_totals.items():
            self.degree_totals[d] = self.degree_totals.get(d, 0) + c
        self.violations.extend(other.violations)
        if self.rules is not None:
            self.rules.merge(other.rules)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "count": str(self.triangulation_count),
            "conservation": {
                "lhs": str(self.conservation_lhs),
                "rhs": frac_json(self.conservation_rhs),
                "ok": self.conservation_ok,
            },
            "max_charge": {**frac_json(self.max_charge), "decimal": float(self.max_charge)},
            "max_charge_at": (
                {"fingerprint": self.max_charge_at[0], "point": self.max_charge_at[1]}
                if self.max_charge_at
                else None
            ),
            "charger_count_max": {str(k): v for k, v in sorted(self.charger_count_max.items())},
            "vhat3": frac_json(self.vhat3) if self.vhat3 is not None else None,
            "exceeds_believed_max": self.exceeds_believed_max,
            "violations": list(self.violations),
            "ok": self.ok,
        }


@cache
def charger_bound(degree: int) -> int:
    """Most chargers of one degree that a 3-vint may have, C_(i-1) - C_(i-2)."""
    return catalan(degree - 1) - catalan(degree - 2)


class _Priced:
    """A flip-tree key's entry in the charge cache, a priced fact that no
    run writes to: its 3-vint's charge, charger counts indexed by degree
    minus 3, their bound violations, whether the charge reaches
    ``HARD_CHARGE_BOUND`` and, with rules, its rule-1 count and rule
    violations.  It hashes by identity, so a run's ledger keys it without
    hashing a ``Fraction``."""

    __slots__ = ("total", "chargers", "over", "hard", "rule1", "rules")

    def __init__(self, total, chargers, over, rule1, rules):
        self.total, self.chargers, self.over, self.rule1, self.rules = total, chargers, over, rule1, rules
        self.hard = total >= HARD_CHARGE_BOUND


class _AuditContext:
    """Per-process audit state: the point roles of S+, its ``FlipWalk``,
    the polygon counter over its order type, the charge cache keyed by
    ``flip_tree_key`` and whether the structural rules run too.  Each
    process (a pool worker has its own) prices a 3-vint's key once, from
    the census of the key itself, into a ``_Priced`` entry, rule 1 read
    from the key too.  ``links[p]`` holds a larger vint's link rules and
    successor map by p's neighbour set, which fixes a valid link.  Both
    memos hold values only: what a run met is kept by ``tally`` in that
    run, so runs on one context, nested ones included, do not mix."""

    def __init__(self, P: AugmentedPointSet, rules: bool):
        self.n = P.n
        self.interior = list(P.interior_indices())
        self.frame = list(P.frame_indices())
        self.walk = FlipWalk(P)
        self.counter = PolygonCounter(P.signs)
        self.charge_cache: dict[tuple[int, ...], _Priced] = {}
        self.links = {p: {} for p in self.interior}
        self.rules = rules

    def tree_charge(self, key: tuple[int, ...]) -> _Priced:
        """The cache entry of a flip-tree key, priced from its census on a
        miss; a subtree with j edges has a boundary of j + 3 vertices."""
        hit = self.charge_cache.get(key)
        if hit is None:
            p, memo, supp_of = key[0], self.counter.memo, self.counter.count
            # A key of m nodes holds 4 + 2m + (m + 3) ints; j runs up to m.
            chargers = [0] * ((len(key) - 7) // 3 + 1)
            by_supp = {}
            for boundary in _census(key, nodes=False):
                j = len(boundary) - 3
                chargers[j] += 1
                supp = memo.get(boundary) or supp_of(boundary)
                by_supp[supp] = by_supp.get(supp, 0) + 4 - j
            den = lcm(*by_supp)
            total = Fraction(sum(num * (den // supp) for supp, num in by_supp.items()), den)
            over = []
            for degree, cnt in enumerate(chargers, 3):
                if cnt > (bound := charger_bound(degree)):
                    over.append(f"{cnt} chargers of degree {degree} at point {p} exceed bound {bound}")
            found, rules = [], ()
            if self.rules:
                # Rule 1 reads the root slots a -> b, b -> c and c -> a.
                (a, b, c), i = key[1:4], 4
                for u, v, opp in ((a, b, c), (b, c, a), (c, a, b)):
                    i = _rule1(key, self.counter.signs, i, u, v, opp, 1, found)
                freed = f"both children of a rigid edge can free it at point {p}"
                rules = _link_rules(p, key[1:4], self.counter)[1] + (freed,) * sum(found)
            hit = self.charge_cache[key] = _Priced(total, tuple(chargers), tuple(over), rule1=len(found), rules=rules)
        return hit

    def tally(self, stars) -> AuditReport:
        """Audit each triangulation of ``stars``, a run of star maps, into
        one fresh report, in one pass over each state's interior points.
        The run's ledger counts the occurrences of each cache entry it
        meets, so work that depends only on a 3-vint's key (the
        conservation sum, the charger maxima, rule 1) is done once per
        distinct key after the pass; no entry is written to."""
        signs, n, interior = self.counter.signs, self.n, self.interior
        f0, f1, f2 = self.frame
        r, links = AuditReport(n), self.links
        # The ledger: occurrences per entry met, the entries that fell below
        # the run's maximum charge, and with rules the run's rule violations
        # in walk order, broken links and monotone checks.
        met, below = {}, set()
        degree_totals, rv, broken, monotone = r.degree_totals, [] if self.rules else None, 0, 0
        for star in stars:
            r.triangulation_count += 1
            interior_sum = 0
            # The state's charge violations follow its degree-identity ones.
            over = []
            # The fingerprint only labels a maximum or a violation.
            fp = None
            for p in interior:
                succ = star[p]
                # A vertex's degree is its number of triangles, plus one on the hull.
                d = len(succ)
                interior_sum += d
                degree_totals[d] = degree_totals.get(d, 0) + 1
                if d == 3:
                    e = self.tree_charge(flip_tree_key(signs, star, p))
                    met[e] = met.get(e, 0) + 1
                    # The run's maximum only grows, so an entry below it stays below.
                    if e not in below:
                        if r.max_charge_at is None or e.total >= r.max_charge:
                            fp = fp or fingerprint_bytes(star_triangles(star)).hex()
                            r.offer_max(e.total, (fp, p))
                        else:
                            below.add(e)
                    over += e.over
                    if e.hard:
                        fp = fp or fingerprint_bytes(star_triangles(star)).hex()
                        over.append(f"charge {e.total} >= {HARD_CHARGE_BOUND} at point {p} in {fp}")
                    if e.rules:
                        rv.extend(e.rules)
                elif rv is not None:
                    # One probe by p's neighbour set; the stored map must match.
                    if (hit := links[p].get(nbrs := frozenset(succ))) is None or hit[0] != succ:
                        if (cyc := star_link(star, p)) is None:
                            # A broken link is reported at every occurrence, never memoised.
                            broken += 1
                            rv.append(f"point {p} link is not a single cycle")
                            continue
                        hit = links[p][nbrs] = (dict(succ), *_link_rules(p, tuple(cyc), self.counter))
                    monotone += hit[1]
                    if hit[2]:
                        rv.extend(hit[2])
            eq1 = len(star[f0]) + len(star[f1]) + len(star[f2]) + 3 + interior_sum
            if eq1 != 6 * n + 6:
                r.violations.append(f"degree identity violated: {eq1} != {6 * n + 6}")
            if n >= 1 and interior_sum > 6 * n - 3:
                r.violations.append("interior degree sum exceeds 6n - 3")
            r.violations.extend(over)
        # The received charges as int numerators per denominator.
        sums = {}
        for e, k in met.items():
            num, d = e.total.numerator, e.total.denominator
            sums[d] = sums.get(d, 0) + num * k
            for degree, cnt in enumerate(e.chargers, 3):
                r.offer_chargers(degree, cnt)
        den = lcm(*sums)
        r.conservation_rhs = Fraction(sum(num * (den // d) for d, num in sums.items()), den)
        if rv is not None:
            support = r.triangulation_count * len(interior) - broken
            r.rules = RulesReport(sum(e.rule1 * k for e, k in met.items()), monotone, support, rv)
        return r


def audit(P: AugmentedPointSet, jobs: int = 1, rules: bool = False) -> AuditReport:
    """Audit the charging scheme over every triangulation of S+.

    Checks, with exact arithmetic throughout: the degree identities, the
    conservation of total charge, the per-degree charger-count bound,
    the hard < 30 charge bound, and vhat3 * 30 >= n.  ``max_charge_at``
    is the smallest (fingerprint, point) among the 3-vints that receive
    the largest charge.

    With ``rules`` the same walk also sweeps every vint for the
    structural rules, rule 1 read from each 3-vint's key, and the report's
    ``rules`` holds the RulesReport (not part of ``to_json_dict``).  Each
    process computes them once per distinct key or (point, neighbour
    set); the counters and violations still count every occurrence.
    With ``jobs > 1`` the parent tallies the states above ``SPLIT_DEPTH``
    and deals the subtrees at it to ``jobs`` processes as flip paths,
    which each replays on its own walk; the partial reports merge in
    walk order, so the report is identical to a sequential run.
    """
    if not isinstance(P, AugmentedPointSet):
        raise TypeError("audit needs an AugmentedPointSet")
    ctx = _AuditContext(P, rules)
    rep = _audit_parallel(P, ctx, jobs) if jobs > 1 else ctx.tally(ctx.walk.walk())
    if not rep.conservation_ok:
        rep.violations.append(
            f"charge conservation broken: sum(7-deg)={rep.conservation_lhs} "
            f"but received={rep.conservation_rhs}"
        )
    vhat3 = rep.vhat3
    if P.n >= 1 and vhat3 is not None and vhat3 * 30 < P.n:
        rep.violations.append(f"vhat3 * 30 = {vhat3 * 30} < n = {P.n}")
    rep.degree_totals = dict(sorted(rep.degree_totals.items()))
    return rep


_worker_ctx: _AuditContext | None = None


def _audit_worker_init(P, rules):
    global _worker_ctx
    _worker_ctx = _AuditContext(P, rules)


def _audit_worker(path) -> AuditReport:
    return _worker_ctx.tally(_worker_ctx.walk.walk(path))


def _audit_parallel(P, ctx: _AuditContext, jobs: int) -> AuditReport:
    import multiprocessing as mp

    walk, parts, paths = ctx.walk, [], []
    with mp.Pool(jobs, initializer=_audit_worker_init, initargs=(P, ctx.rules)) as pool:
        for star in walk.walk(limit=SPLIT_DEPTH):
            if len(walk.trail) < SPLIT_DEPTH:
                parts.append(ctx.tally([star]))
            else:
                parts.append(None)
                paths.append([(u, v) for u, v, _, _ in walk.trail])
        subtrees = pool.imap(_audit_worker, paths, chunksize=4)
        rep = AuditReport(P.n, rules=RulesReport() if ctx.rules else None)
        for part in parts:
            rep.merge(next(subtrees) if part is None else part)
    return rep


# ---------------------------------------------------------------------------
# structural rules
# ---------------------------------------------------------------------------


@dataclass
class RulesReport:
    """Outcome of the structural property sweep of ``audit(P, rules=True)``.

    rule1: a rigid level-1/2 edge with two non-rigid children can be
    freed by flipping at most one of them.  monotone: supports never
    grow along a down-flip.  support_bound: 1 <= supp <= C_{deg-2} with
    equality exactly for convex holes.
    """

    rule1_checked: int = 0
    monotone_checked: int = 0
    support_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "RulesReport") -> None:
        self.rule1_checked += other.rule1_checked
        self.monotone_checked += other.monotone_checked
        self.support_checked += other.support_checked
        self.violations.extend(other.violations)

    def to_json_dict(self) -> dict:
        return {
            "rule1_checked": self.rule1_checked,
            "monotone_checked": self.monotone_checked,
            "support_checked": self.support_checked,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _link_rules(p, cyc, counter) -> tuple[int, tuple[str, ...]]:
    """The support bound, convexity and monotone rules at the interior
    point p with link cycle ``cyc``, a tuple of any length, over the order
    type of ``counter``.  Returns the monotone check count and the
    violations (``()`` when there are none); the vint's one support check
    is the caller's."""
    signs, memo, supp_of = counter.signs, counter.memo, counter.count
    violations = []
    d = len(cyc)
    supp = memo.get(cyc) or supp_of(cyc)
    bound = catalan(d - 2)
    if not 1 <= supp <= bound:
        violations.append(f"support {supp} outside [1, {bound}]")
    if (supp == bound) != is_convex(signs, cyc):
        violations.append(f"support {supp} vs bound {bound}: convexity mismatch at point {p}")
    # Monotonicity along each single down-flip at p.
    monotone = 0
    for idx, x in enumerate(cyc):
        # Edge (p, x) flips iff the quad (p, alpha, x, beta) is strictly
        # convex: as its faces are CCW, iff p, x lie either side of alpha beta.
        sab = signs[cyc[idx - 1]][cyc[(idx + 1) % d]]
        if sab[p] * sab[x] >= 0:
            continue
        rest = cyc[:idx] + cyc[idx + 1 :]
        supp_after = memo.get(rest) or supp_of(rest)
        monotone += 1
        if supp < supp_after:
            violations.append(f"support grew {supp} -> {supp_after} along down-flip at {p}")
    return monotone, tuple(violations)
