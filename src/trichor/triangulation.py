"""Triangulations over (augmented) point sets, with edge flips.

The representation is a triangle soup with one derived adjacency map,
the oriented star map (vertex x -> {y: z} for each CCW triangle
(x, y, z)).  The flips, the flip-graph walk, the link cycles and the
flip-trees all read it: the edge uv has apexes ``star[u][v]`` and
``star[v][u]`` (one is absent on the hull), and a vertex's link cycle
is walked in O(degree).  Each triangulation stores its vertex-index
triples in CCW order, in a canonical sorted form, plus a reference to
the underlying point container.  ``flip_star``, the one edge flip,
rewrites a star map in place: the walk flips and unflips one map, and
``Triangulation.flip`` flips a copy.  Every orientation decision reads
the container's order type ``signs``; only the area audit of
``validate`` reads coordinates.

The fingerprint is the SHA-256 of the sorted edge list (two bytes per
index, little endian), truncated to 16 bytes.  It names a triangulation
in reports and on the command line only: the walk reaches each state
once and deduplicates nothing, so no count depends on hash quality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import NotFlippableError, UnknownEdgeError
from .geometry import CCW, AugmentedPointSet, Point, crosses, signed_area_2x

# An edge is an index pair (i, j) with i < j.
EdgeRef = tuple[int, int]

Tri = tuple[int, int, int]


def edge(i: int, j: int) -> EdgeRef:
    return (i, j) if i < j else (j, i)


def _canon_tri(a: int, b: int, c: int) -> Tri:
    """Rotate a CCW triple so the smallest index comes first."""
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


def canonical_triangles(tris) -> tuple[Tri, ...]:
    return tuple(sorted(_canon_tri(*t) for t in tris))


def edges_of(tris) -> list[EdgeRef]:
    es = set()
    for a, b, c in tris:
        es.add(edge(a, b))
        es.add(edge(b, c))
        es.add(edge(c, a))
    return sorted(es)


def star_map(tris) -> dict[int, dict[int, int]]:
    """For each vertex x, ``{y: z}`` over the CCW triangles (x, y, z):
    z follows y counterclockwise around x."""
    star: dict[int, dict[int, int]] = {}
    for a, b, c in tris:
        star.setdefault(a, {})[b] = c
        star.setdefault(b, {})[c] = a
        star.setdefault(c, {})[a] = b
    return star


def star_link(star, p: int) -> list[int] | None:
    """Neighbours of p in CCW order around p, starting at the smallest
    index, or None when they do not close into one cycle (p on the hull
    or in no triangle)."""
    succ = star.get(p)
    if not succ:
        return None
    start = min(succ)
    cycle = [start]
    cur = succ[start]
    while cur != start:
        if cur not in succ or len(cycle) == len(succ):
            return None
        cycle.append(cur)
        cur = succ[cur]
    return cycle if len(cycle) == len(succ) else None


def star_triangles(star) -> tuple[Tri, ...]:
    """The canonical triangles of a ``star_map``: each CCW triangle once,
    from its smallest index."""
    return tuple(sorted((a, b, c) for a, succ in star.items() for b, c in succ.items() if a < b and a < c))


def flip_star(star, u: int, v: int, x: int, y: int) -> None:
    """Flip the edge uv of the ``star_map`` ``star`` to xy in place, where
    x = star[u][v] and y = star[v][u] are its apexes and the quad u, y,
    v, x is convex: the CCW triangles (u, v, x) and (v, u, y) become
    (x, u, y) and (y, v, x).  ``flip_star(star, x, y, v, u)`` undoes it."""
    su, sv, sx, sy = star[u], star[v], star[x], star[y]
    del su[v], sv[u]
    sx[u] = sv[x] = y
    su[y] = sy[v] = x
    sy[x] = u
    sx[y] = v


def fingerprint_bytes(tris) -> bytes:
    """Stable 16-byte digest of the canonical edge list."""
    raw = bytearray()
    for i, j in edges_of(tris):
        raw += i.to_bytes(2, "little")
        raw += j.to_bytes(2, "little")
    return hashlib.sha256(bytes(raw)).digest()[:16]


@dataclass(frozen=True)
class DegreeVector:
    """Interior degree histogram plus the three frame-vertex degrees."""

    v: dict[int, int]
    frame_degrees: tuple[int, int, int]

    def weighted_sum(self) -> int:
        return sum(i * c for i, c in self.v.items())


class Triangulation:
    """Immutable triangulation of a point container.

    ``vertices`` is the PointSet or AugmentedPointSet the index triples
    refer to.  ``triangles`` is the canonical sorted tuple of CCW
    triples.
    """

    __slots__ = ("vertices", "triangles", "_edges", "_star", "_fp")

    def __init__(self, vertices, triangles, check: bool = False):
        self.vertices = vertices
        self.triangles = canonical_triangles(triangles)
        self._edges = None
        self._star = None
        self._fp = None
        if check:
            self.validate()

    @property
    def points(self) -> tuple[Point, ...]:
        return self.vertices.points

    @property
    def edge_set(self) -> tuple[EdgeRef, ...]:
        if self._edges is None:
            self._edges = tuple(edges_of(self.triangles))
        return self._edges

    @property
    def star(self) -> dict[int, dict[int, int]]:
        """The ``star_map`` of the triangles (read it, do not mutate it)."""
        if self._star is None:
            self._star = star_map(self.triangles)
        return self._star

    def fingerprint(self) -> str:
        if self._fp is None:
            self._fp = fingerprint_bytes(self.triangles).hex()
        return self._fp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.vertices.points == other.vertices.points
            and self.edge_set == other.edge_set
        )

    def __hash__(self) -> int:
        return hash((self.vertices.points, self.edge_set))

    def __repr__(self) -> str:
        return f"Triangulation({len(self.triangles)} triangles, fp={self.fingerprint()[:8]})"

    # --- flips ---

    def is_flippable(self, e: EdgeRef) -> bool:
        u, v = edge(*e)
        x, y = self.star.get(u, {}).get(v), self.star.get(v, {}).get(u)
        if x is None and y is None:
            raise UnknownEdgeError(f"edge {(u, v)} not in triangulation")
        # A hull edge has one apex.  The quad is strictly convex iff the
        # candidate diagonal xy properly crosses uv.
        return None not in (x, y) and crosses(self.vertices.signs, x, y, u, v)

    def flip(self, e: EdgeRef) -> "Triangulation":
        u, v = edge(*e)
        if not self.is_flippable((u, v)):
            raise NotFlippableError(f"edge {(u, v)} cannot be flipped")
        star = {p: dict(succ) for p, succ in self.star.items()}
        flip_star(star, u, v, star[u][v], star[v][u])
        t = Triangulation(self.vertices, ())
        t.triangles, t._star = star_triangles(star), star  # already canonical
        return t

    def flippable_edges(self) -> list[EdgeRef]:
        return [e for e in self.edge_set if self.is_flippable(e)]

    # --- structure queries ---

    def degree_map(self) -> dict[int, int]:
        # A vertex's neighbours are the keys and the values of its star.
        return {p: len(succ.keys() | succ.values()) for p, succ in self.star.items()}

    def link_cycle(self, p: int) -> list[int]:
        """Neighbours of interior vertex p in CCW order around p, starting
        at the smallest index."""
        cycle = star_link(self.star, p)
        if cycle is None:
            raise ValueError(f"vertex {p} is not interior")
        return cycle

    # --- invariants ---

    def validate(self) -> None:
        xy, signs = self.vertices.xy, self.vertices.signs
        for a, b, c in self.triangles:
            if signs[a][b][c] != CCW:
                raise ValueError(f"triangle {(a, b, c)} is not CCW")
        # One triangle per directed edge, so at most two per edge.
        if sum(map(len, self.star.values())) != 3 * len(self.triangles):
            raise ValueError("a directed edge lies in two triangles")
        # Exact area audit: interior-disjoint CCW triangles covering the
        # hull must sum to the hull area.
        hull = self.vertices.convex_hull_indices()
        hull_area = signed_area_2x([xy[i] for i in hull])
        tri_area = sum(signed_area_2x((xy[a], xy[b], xy[c])) for a, b, c in self.triangles)
        if tri_area != hull_area:
            raise ValueError("triangles do not tile the hull")
        n_all = len(xy)
        expected_edges = 3 * n_all - 3 - len(hull)
        if len(self.edge_set) != expected_edges:
            raise ValueError(
                f"edge count {len(self.edge_set)} != {expected_edges}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"n": len(self.points), "edges": [list(e) for e in self.edge_set]},
            separators=(",", ":"),
        )


def degree_vector(t: Triangulation) -> DegreeVector:
    """Interior degree histogram and frame degrees for an S+ triangulation."""
    if not isinstance(t.vertices, AugmentedPointSet):
        raise TypeError("degree_vector is defined over an AugmentedPointSet")
    deg = t.degree_map()
    fi = t.vertices.frame_indices()
    v: dict[int, int] = {}
    for p in t.vertices.interior_indices():
        d = deg[p]
        v[d] = v.get(d, 0) + 1
    return DegreeVector(v=v, frame_degrees=tuple(deg[i] for i in fi))


def initial_triangulation(container) -> Triangulation:
    """Any valid seed triangulation, by incremental insertion.

    The container's CCW hull is fanned from its first vertex (an
    augmented set's hull is its frame, so the fan is the frame triangle),
    then the interior points are inserted one by one, each splitting the
    CCW triangle that holds it into three CCW triangles.
    """
    signs = container.signs
    hull = container.convex_hull_indices()
    if len(hull) < 3:
        raise ValueError("point set has no interior: need >= 3 points")
    tris = [(hull[0], hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    for p in container.interior_indices():
        for idx, (a, b, c) in enumerate(tris):
            if signs[a][b][p] == signs[b][c][p] == signs[c][a][p] == CCW:
                tris[idx : idx + 1] = [(a, b, p), (b, c, p), (c, a, p)]
                break
        else:
            raise ValueError(f"point {p} not inside any triangle")
    return Triangulation(container, tris, check=True)
