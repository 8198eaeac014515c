"""Exception types shared across the package."""


class TrichorError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicatePointError(TrichorError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} coincide")
        self.indices = (i, j)


class CollinearTripleError(TrichorError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"points {i}, {j}, {k} are collinear")
        self.indices = (i, j, k)


class ExhaustedRetriesError(TrichorError):
    """Random generation could not place the requested points on the grid."""


class UnknownEdgeError(TrichorError):
    """Edge is not present in the triangulation."""


class NotFlippableError(TrichorError):
    """Edge is a boundary edge or its quadrilateral is not strictly convex."""


class CapExceededError(TrichorError):
    """A state or subtree cap was hit where no partial value exists:
    ``flip_graph_states`` past its cap, or a flip-tree with more than
    ``SUBTREE_CAP`` subtrees.  A capped ``enumerate_all`` returns its
    partial result, flagged non-exhaustive, instead."""


class InvariantError(TrichorError):
    """An internal invariant of the traversal or a flip-tree failed.

    This signals a bug or inconsistent input, not a finding of the audit.
    """


class NotSimpleError(TrichorError):
    """Polygon boundary self-intersects or is degenerate."""


class InvalidChordError(TrichorError):
    """Chord endpoints are adjacent or the open segment leaves the polygon."""


class CrossingChordsError(TrichorError):
    """Two required chords cross each other."""


class OutOfRangeError(TrichorError):
    """Index arguments outside the defined range of a counting function."""


class NotA3VintError(TrichorError):
    """Requested point does not have degree 3 in the given triangulation."""


class HasDeepEdgesError(TrichorError):
    """Rigid core contains level-4+ edges; the closed form does not apply."""
