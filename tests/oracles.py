"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: vint reachability
is computed by brute-force BFS over single down-flips across the whole
enumerated triangulation space, and polygon counts are recomputed by
an interval DP over valid diagonals and by backtracking over pairwise
non-crossing diagonal subsets, which also counts the subsets that hold
given chords, a reference for ``tr_with_chords``.  Vertex visibility is recomputed by an
exact ray cast from the segment's midpoint, and boundary simplicity by
an edge-pair sweep.  The charging vints of a 3-vint are rebuilt as
explicit triangulations from its flip-tree, and the structural-rule
sweep is redone one vint at a time with explicit flips.  The charge
audit is redone one 3-vint occurrence at a time with ``charge``.  Flip-trees are
rebuilt node by node as ``FlipTree`` values, without the flat key, and
their root-containing subtrees are found by trying every node subset.
Crossings are decided here by ``crosses`` on coordinates, four
determinants per test, not by the order-type table the package reads.
The flip graph is walked by breadth-first search over explicit
triangle lists, deduplicated on exact edge sets, and the Delaunay test
is the 4x4 lifted determinant over exact fractional lifts.  The random
star polygons and rigid-core shapes that several test files draw are
generated here too.
"""

from collections import defaultdict, deque
from fractions import Fraction
from functools import cmp_to_key

from trichor.charging import (
    AuditReport,
    FlipTree,
    FlipTreeNode,
    RulesReport,
    Vint,
    build_flip_tree,
    charge,
    hole_of,
    support,
)
from trichor.enumeration import flip_graph_states
from trichor.errors import InvariantError, NotA3VintError, NotSimpleError
from trichor.geometry import COLLINEAR, Point, orient
from trichor.polygons import SimplePolygon, catalan, is_diagonal
from trichor.rng import SplitMix64
from trichor.triangulation import Triangulation, edge, initial_triangulation, star_link


def ccw_triangle(xy, a: int, b: int, c: int) -> tuple[int, int, int]:
    """The triangle abc in CCW order, from the coordinates ``xy``."""
    return (a, b, c) if orient(xy[a], xy[b], xy[c]) > 0 else (a, c, b)


def flip_graph_by_bfs(P) -> list[frozenset]:
    """Reference for ``flip_graph_states``: the edge set of every
    triangulation of P, in breadth-first order over single flips from
    the seed.  A state is a triangle list, its edge apexes are collected
    from the list, a flip rebuilds the list, and the walk deduplicates
    on exact edge sets."""
    xy = P.xy

    def edges(tris):
        return frozenset(edge(a, b) for t in tris for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])))

    seed = initial_triangulation(P).triangles
    seen = {edges(seed)}
    frontier = deque([seed])
    out = []
    while frontier:
        tris = frontier.popleft()
        out.append(edges(tris))
        apexes = defaultdict(list)
        for t in tris:
            for k in range(3):
                apexes[edge(t[k], t[k - 1])].append(t[k - 2])
        for (u, v), pair in apexes.items():
            if len(pair) == 2 and crosses(xy, *pair, u, v):
                x, y = pair
                nxt = [t for t in tris if not (u in t and v in t)] + [ccw_triangle(xy, x, y, u), ccw_triangle(xy, x, y, v)]
                if (key := edges(nxt)) not in seen:
                    seen.add(key)
                    frontier.append(nxt)
    return out


def incircle_by_lifts(xy, a: int, b: int, c: int, d: int) -> bool:
    """Reference for ``geometry.incircle``: the 4x4 determinant with rows
    (x, y, x² + y² + 2^(-64 (i + 1)), 1) for the points i = a, b, c, d is
    positive.  The lifts are exact fractions; the determinant is expanded
    along their column, whose minors are integer 3x3 determinants."""
    rows = [(i, *xy[i]) for i in (a, b, c, d)]
    det = Fraction(0)
    for r, (i, x, y) in enumerate(rows):
        (_, px, py), (_, qx, qy), (_, sx, sy) = rows[:r] + rows[r + 1 :]
        minor = px * (qy - sy) - py * (qx - sx) + (qx * sy - qy * sx)
        det += (-1) ** r * (x * x + y * y + Fraction(1, 2 ** (64 * (i + 1)))) * minor
    return det > 0


def point_on_open_segment(p, a, b) -> bool:
    """True iff the point p lies strictly between a and b on the segment
    ab, from coordinates."""
    if orient(a, b, p) != COLLINEAR:
        return False
    (px, py), (ax, ay), (bx, by) = p, a, b
    if ax != bx:
        return min(ax, bx) < px < max(ax, bx)
    return min(ay, by) < py < max(ay, by)


def crosses(xy, a: int, b: int, c: int, d: int) -> bool:
    """Reference for ``geometry.crosses`` on the points ``xy`` (pairs or
    ``Point``s): the open segments ab and cd properly intersect."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = xy[a], xy[b], xy[c], xy[d]
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    if o1 == 0 or o2 == 0 or (o1 > 0) == (o2 > 0):
        return False
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    return o3 != 0 and o4 != 0 and (o3 > 0) != (o4 > 0)


class DownFlipOracle:
    """The vint digraph of an instance: u -> w if one flip at u's point
    turns u into w (dropping the degree by one)."""

    def __init__(self, P):
        self.P = P
        self.states = list(flip_graph_states(P))
        self.interior = list(P.interior_indices())
        self.objs = {tris: Triangulation(P, tris) for tris in self.states}
        self.fwd = defaultdict(set)
        self.deg_of = {}
        for tris, T in self.objs.items():
            dm = T.degree_map()
            for p in self.interior:
                self.deg_of[(p, tris)] = dm[p]
                for e in T.edge_set:
                    if p in e and T.is_flippable(e):
                        self.fwd[(p, tris)].add((p, T.flip(e).triangles))
        self.rev = defaultdict(set)
        for u, outs in self.fwd.items():
            for w in outs:
                self.rev[w].add(u)

    def vints(self):
        return list(self.deg_of)

    def three_vints(self):
        return [v for v, d in self.deg_of.items() if d == 3]

    def chargers_of(self, v):
        """All u with u ->* v, by reverse BFS."""
        seen = {v}
        stack = [v]
        while stack:
            cur = stack.pop()
            for u in self.rev[cur]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def reachable_three_vints(self, u):
        seen = {u}
        stack = [u]
        out = set()
        while stack:
            cur = stack.pop()
            if self.deg_of[cur] == 3:
                out.add(cur)
            for w in self.fwd.get(cur, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return out


def sees_by_ray_cast(poly: SimplePolygon, i: int, j: int) -> bool:
    """Reference for ``SimplePolygon.sees``: i and j are not adjacent, no
    other vertex lies on the open segment, no edge away from i and j
    properly crosses it, and its midpoint is strictly inside."""
    pts = poly.boundary
    k = len(pts)
    i %= k
    j %= k
    if i == j or (i + 1) % k == j or (j + 1) % k == i:
        return False
    a, b = pts[i], pts[j]
    for w in range(k):
        if w != i and w != j and point_on_open_segment(pts[w], a, b):
            return False
    for u in range(k):
        v = (u + 1) % k
        if u in (i, j) or v in (i, j):
            continue
        if crosses(poly.xy, i, j, u, v):
            return False
    # Doubled midpoint keeps the inside test in exact integers.
    mid = Point(a.x + b.x, a.y + b.y)
    doubled = tuple(Point(2 * p.x, 2 * p.y) for p in pts)
    return _strictly_inside(mid, doubled)


def _strictly_inside(q: Point, pts) -> bool:
    """Exact crossing-number test; a point on the boundary is outside."""
    k = len(pts)
    inside = False
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        if point_on_open_segment(q, a, b) or (q.x, q.y) in ((a.x, a.y), (b.x, b.y)):
            return False
        if (a.y > q.y) != (b.y > q.y):
            # x coordinate of the edge at height q.y, compared exactly:
            # q.x < a.x + (q.y - a.y) (b.x - a.x) / (b.y - a.y)
            lhs = (q.x - a.x) * (b.y - a.y)
            rhs = (q.y - a.y) * (b.x - a.x)
            if (b.y > a.y and lhs < rhs) or (b.y < a.y and lhs > rhs):
                inside = not inside
    return inside


def check_simple_by_edge_pairs(pts) -> None:
    """Reference for ``SimplePolygon``'s simplicity check over a boundary
    of Points: raises NotSimpleError on a repeated vertex, on adjacent
    edges that overlap beyond their shared vertex, and on non-adjacent
    edges that cross or touch."""
    k = len(pts)
    seen = {}
    for idx, p in enumerate(pts):
        if (p.x, p.y) in seen:
            raise NotSimpleError(f"repeated boundary vertex at {idx}")
        seen[(p.x, p.y)] = idx
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        for j in range(i + 1, k):
            c, d = pts[j], pts[(j + 1) % k]
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                # Adjacent edges may only touch at the shared vertex.
                shared = {(a.x, a.y), (b.x, b.y)} & {(c.x, c.y), (d.x, d.y)}
                if shared:
                    others = [
                        (p, q, r)
                        for p, q, r in ((c, d, a), (c, d, b), (a, b, c), (a, b, d))
                        if (r.x, r.y) not in shared
                    ]
                    if any(point_on_open_segment(r, p, q) for p, q, r in others):
                        raise NotSimpleError(f"edges {i} and {j} overlap")
                    continue
            if crosses((a, b, c, d), 0, 1, 2, 3):
                raise NotSimpleError(f"edges {i} and {j} cross")
            for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)):
                if point_on_open_segment(r, p, q):
                    raise NotSimpleError(f"edges {i} and {j} touch")


def count_by_interval_dp(poly: SimplePolygon) -> int:
    """Reference for ``count_triangulations`` without inside points.

    ways[i][j] counts the triangulations of the sub-polygon cut off by
    chord (i, j), built by choosing the apex of the triangle resting on
    that chord; it is 0 when (i, j) is neither an edge nor a diagonal.
    """
    k = len(poly)
    ways = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        ways[i][i + 1] = 1
    for span in range(2, k):
        for i in range(k - span):
            j = i + span
            if span == k - 1 or is_diagonal(poly.signs, range(k), i, j):
                wi = ways[i]
                wi[j] = sum(wi[m] * ways[m][j] for m in range(i + 1, j))
    return ways[0][k - 1]


def count_by_noncrossing_sets(poly: SimplePolygon, required=()) -> int:
    """Triangulations = subsets of k-3 pairwise non-crossing diagonals.

    With ``required`` chords, ``(i, j)`` pairs in either order, only the
    subsets that hold every one of them count; a pair that is not a
    diagonal, or two that cross, leave none.  Diagonals are tried in a
    fixed order, so a subset that passes over a required one is dropped.
    """
    k = len(poly)
    diags = [
        (i, j)
        for i in range(k)
        for j in range(i + 2, k)
        if not (i == 0 and j == k - 1) and poly.sees(i, j)
    ]
    wanted = {tuple(sorted(c)) for c in required}
    if not wanted <= set(diags):
        return 0
    wanted = {diags.index(c) for c in wanted}
    crossing = {}
    for a in range(len(diags)):
        for b in range(a + 1, len(diags)):
            (i1, j1), (i2, j2) = diags[a], diags[b]
            crossing[(a, b)] = crosses(poly.xy, i1, j1, i2, j2)
    need = k - 3
    total = 0

    def rec(start, chosen):
        nonlocal total
        if len(chosen) == need:
            total += wanted <= set(chosen)
            return
        if len(diags) - start < need - len(chosen):
            return
        for nxt in range(start, len(diags)):
            if all(not crossing[(c, nxt) if c < nxt else (nxt, c)] for c in chosen):
                chosen.append(nxt)
                rec(nxt + 1, chosen)
                chosen.pop()
            if nxt in wanted:
                break

    rec(0, [])
    return total


def _angle_cmp_around(c: Point):
    def upper(p: Point) -> bool:
        return (p.y, p.x) > (c.y, c.x) if p.y == c.y else p.y > c.y

    def cmp(p: Point, q: Point) -> int:
        up, uq = upper(p), upper(q)
        if up != uq:
            return -1 if up else 1
        cross = (p.x - c.x) * (q.y - c.y) - (p.y - c.y) * (q.x - c.x)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return cmp


def random_star_polygon(k: int, rng: SplitMix64, span: int = 40) -> SimplePolygon:
    """A random simple polygon star-shaped around an interior witness."""
    cx = cy = span
    c = Point(cx, cy)
    cmp = _angle_cmp_around(c)
    for _ in range(500):
        pts = []
        seen = set()
        while len(pts) < k:
            p = Point(rng.below(2 * span + 1), rng.below(2 * span + 1))
            if (p.x, p.y) == (cx, cy) or (p.x, p.y) in seen:
                continue
            seen.add((p.x, p.y))
            pts.append(p)
        pts.sort(key=cmp_to_key(cmp))
        if any(cmp(pts[i], pts[(i + 1) % k]) == 0 for i in range(k)):
            continue
        try:
            return SimplePolygon(pts, kernel_witness=c)
        except Exception:
            continue
    raise RuntimeError(f"could not build a star polygon with {k} vertices")


def random_core_shape(rng: SplitMix64) -> tuple:
    """A random rigid-core shape at most three levels deep: 0..3 children
    at the root and 0..2 at each node of levels 1 and 2, drawn depth
    first."""

    def branch(level):
        if level >= 3:
            return ()
        return tuple(branch(level + 1) for _ in range(rng.below(3)))

    return tuple(branch(1) for _ in range(rng.below(4)))


def enumerate_charging_vints(v: Vint) -> list:
    """All vints charging v, via the subtree bijection, as
    (ChargeContribution, Vint) pairs.

    Each root-containing subtree of the flip-tree maps to the vint whose
    triangulation re-fans the subtree's polygon from v's point.
    """
    t = v.triangulation
    p = v.point
    out = []
    for sub in charge(v).contributions:
        # The region's faces are the three fan faces at p plus the chosen
        # node faces, and every face containing a dual edge is in the
        # region; drop them all, then re-fan the boundary from p.
        drop = set()
        duals = set(sub.dual_edges)
        for tri in t.triangles:
            a, b, c = tri
            if p in tri:
                drop.add(tri)
                continue
            for e_ in (edge(a, b), edge(b, c), edge(c, a)):
                if e_ in duals:
                    drop.add(tri)
                    break
        new_tris = [tri for tri in t.triangles if tri not in drop]
        k = len(sub.boundary)
        for i in range(k):
            new_tris.append(
                ccw_triangle(t.vertices.xy, p, sub.boundary[i], sub.boundary[(i + 1) % k])
            )
        vint = Vint(p, Triangulation(t.vertices, new_tris))
        out.append((sub, vint))
    return out


def subtrees_by_brute_force(tree: FlipTree) -> list:
    """Reference for ``charge``'s records: (j, sorted dual edges, all rigid)
    of every node subset of ``tree`` that holds the parent of each of its
    nodes, in sorted order, found by trying every subset."""
    nodes, parent = [], []
    stack = [(node, -1) for node in tree.children]
    while stack:
        node, up = stack.pop()
        nodes.append(node)
        parent.append(up)
        stack += [(child, len(nodes) - 1) for child in node.children]
    out = []
    for mask in range(1 << len(nodes)):
        chosen = [i for i in range(len(nodes)) if mask >> i & 1]
        if all(parent[i] < 0 or mask >> parent[i] & 1 for i in chosen):
            duals = tuple(sorted(nodes[i].dual for i in chosen))
            out.append((len(chosen), duals, all(nodes[i].rigid for i in chosen)))
    return sorted(out)


def walk_vints(P):
    """Every interior vint of every triangulation of P, in walk order."""
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            yield Vint(p, T)


def rules_by_walk(P) -> RulesReport:
    """Reference for ``audit(P, rules=True).rules`` from public objects,
    one vint occurrence at a time and nothing cached: support from
    ``support``, convexity from the hole polygon, each monotone pair from
    an explicit ``Triangulation.flip`` of an edge at the point, rule 1
    from ``build_flip_tree``.  Counters and strings come in walk order."""
    rep = RulesReport()
    for v in walk_vints(P):
        p, T = v.point, v.triangulation
        cyc = v.link()
        supp, bound = support(v), catalan(len(cyc) - 2)
        rep.support_checked += 1
        if not 1 <= supp <= bound:
            rep.violations.append(f"support {supp} outside [1, {bound}]")
        if (supp == bound) != hole_of(v).is_convex():
            rep.violations.append(f"support {supp} vs bound {bound}: convexity mismatch at point {p}")
        for x in cyc:
            if T.is_flippable(edge(p, x)):
                after = support(Vint(p, T.flip(edge(p, x))))
                rep.monotone_checked += 1
                if supp < after:
                    rep.violations.append(f"support grew {supp} -> {after} along down-flip at {p}")
        if len(cyc) != 3:
            continue
        for node in build_flip_tree(v).nodes():
            kids = node.children
            if node.level <= 2 and node.rigid and len(kids) == 2 and not any(k.rigid for k in kids):
                rep.rule1_checked += 1
                if all(crosses(P.xy, node.opp, k.apex, *node.dual) for k in kids):
                    rep.violations.append(f"both children of a rigid edge can free it at point {p}")
    return rep


def audit_by_occurrence(P, hard_bound=30, charger_bound=lambda d: catalan(d - 1) - catalan(d - 2)) -> AuditReport:
    """Reference for the charge side of ``audit(P)``, one 3-vint
    occurrence at a time: ``charge`` of every 3-vint of every state of
    ``flip_graph_states``, each with its own polygon counter.  The
    received charges are summed as ``Fraction``s, the charger maxima are
    taken over each occurrence's ``degree_counts()``, and the maximum is
    the largest charge at the smallest (fingerprint, point).  The
    violations are the per-occurrence ones in walk order: the chargers of
    each degree above ``charger_bound``, then a charge of at least
    ``hard_bound``."""
    rep = AuditReport(P.n)
    received = []
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        rep.triangulation_count += 1
        for p in P.interior_indices():
            d = T.degree_map()[p]
            rep.degree_totals[d] = rep.degree_totals.get(d, 0) + 1
            if d != 3:
                continue
            c = charge(Vint(p, T))
            rep.conservation_rhs += c.total
            received.append((c.total, c.fingerprint, p))
            for degree, k in sorted(c.degree_counts().items()):
                rep.charger_count_max[degree] = max(k, rep.charger_count_max.get(degree, 0))
                if k > (bound := charger_bound(degree)):
                    rep.violations.append(f"{k} chargers of degree {degree} at point {p} exceed bound {bound}")
            if c.total >= hard_bound:
                rep.violations.append(f"charge {c.total} >= {hard_bound} at point {p} in {c.fingerprint}")
    if received:
        rep.max_charge = max(total for total, _, _ in received)
        rep.max_charge_at = min((fp, p) for total, fp, p in received if total == rep.max_charge)
    rep.degree_totals = dict(sorted(rep.degree_totals.items()))
    return rep


def _reference_grow_node(xy, star, p, u, v, opp, first, used, level):
    """Child through edge (u, v), whose near triangle lies on its left,
    or None.  ``opp`` is the parent triangle's vertex opposite (u, v)
    (used for the rigidity test); the child edge at endpoint ``first``
    comes first among the node's children."""
    q = star[v].get(u)
    if q is None or not crosses(xy, p, q, u, v):
        return None
    face = tuple(sorted((u, v, q)))
    if face in used:
        raise InvariantError("flip-tree expansion revisited a face")
    used.add(face)
    rigid = not crosses(xy, opp, q, u, v)
    # The far face (u, q, v) lies left of its edges u -> q and q -> v;
    # below it, the child edge at q comes first.
    at_u, at_v = (u, q, v), (q, v, u)
    children = []
    for a, b, o in (at_u, at_v) if first == u else (at_v, at_u):
        child = _reference_grow_node(xy, star, p, a, b, o, q, used, level + 1)
        if child is not None:
            children.append(child)
    return FlipTreeNode(edge(u, v), q, opp, rigid, level, tuple(children))


def reference_flip_tree(xy, star, p: int) -> FlipTree:
    """Reference for ``build_flip_tree`` (``tree_from_key`` of a
    ``flip_tree_key``): the flip-tree of the 3-vint p grown node by node
    into ``FlipTreeNode`` values, with no flat key; ``star`` is the
    ``star_map`` of its triangulation."""
    link = star_link(star, p)
    if link is None:
        raise NotA3VintError(f"point {p} is not interior")
    if len(link) != 3:
        raise NotA3VintError(f"point {p} has degree {len(link)}")
    a, b, c = link
    used = set()
    children = [
        _reference_grow_node(xy, star, p, u, v, w, u, used, 1) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))
    ]
    return FlipTree(p, (a, b, c), tuple(node for node in children if node is not None))
