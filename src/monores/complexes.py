"""Labeled simplicial complexes attached to a monomial ideal.

A complex stores its faces as vertex bitmasks and always contains the empty
face; faces are read as strictly increasing tuples of vertex indices.
Labels are lcms of the vertex generators, so label monotonicity along
inclusions holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .errors import CapExceededError
from .homology import _faces_by_dim, collapsed_core, face_mask, mask_face
from .monomials import (
    Multidegree,
    MonomialIdeal,
    _as_multidegree,
    monomial_to_text,
)

Face = tuple[int, ...]

FACE_CAP = 1 << 20
GENERATOR_CAP = 22
CLIQUE_CAP = 1 << 18


class SimplicialComplex:
    """Downward-closed family of faces, stored as vertex bitmasks.

    Bit v of a mask is vertex v.  The store is a tuple of the distinct
    nonempty faces, in the order the builder made them: every builder makes
    each face once, so the masks are hashed only where a set is read, by
    the collapse and by ``==``.  The empty face is always present and
    counted by ``len``.  Sorted vertex tuples exist only for callers that
    print or compare faces: a complex built from tuples keeps them, one
    built from masks makes them on first use.
    """

    __slots__ = ("_masks", "_dim", "_by_dim", "_face_set", "_core", "_cofaces")

    def __init__(self, faces):
        seen = {()}
        for f in faces:
            t = tuple(f)
            if any(not isinstance(v, int) or v < 0 for v in t):
                raise ValueError(f"face {t!r} has invalid vertices")
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError(f"face {t} is not strictly sorted")
            seen.add(t)
        for f in seen:
            for i in range(len(f)):
                if f[:i] + f[i + 1:] not in seen:
                    raise ValueError(f"not downward closed: {f} lacks a facet")
        self._masks = tuple(face_mask(t) for t in seen if t)
        self._by_dim = _faces_by_dim(seen)
        self._dim = self._face_set = self._core = self._cofaces = None

    @classmethod
    def from_masks(cls, masks, cofaces=None) -> SimplicialComplex:
        """A complex from the distinct bitmasks of its nonempty faces, downward closed.

        ``cofaces``, when given, is the collapse's coface map of the faces
        (see ``collapsed_core``), handed to it on the first ``core()``.
        """
        complex_ = cls.__new__(cls)
        complex_._masks = tuple(masks)
        complex_._dim = complex_._by_dim = complex_._face_set = complex_._core = None
        complex_._cofaces = cofaces
        return complex_

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = max(map(int.bit_count, self._masks), default=0) - 1
        return self._dim

    def _tuples(self) -> dict[int, tuple[Face, ...]]:
        if self._by_dim is None:
            self._by_dim = _faces_by_dim([()] + [mask_face(m) for m in self._masks])
        return self._by_dim

    def faces(self, k: int) -> tuple[Face, ...]:
        """Faces of dimension k in canonical (lexicographic) order."""
        return self._tuples().get(k, ())

    def all_faces(self):
        by_dim = self._tuples()
        for k in sorted(by_dim):
            yield from by_dim[k]

    def face_set(self) -> frozenset[Face]:
        if self._face_set is None:
            self._face_set = frozenset(self.all_faces())
        return self._face_set

    def core(self) -> frozenset[Face]:
        """The faces left by ``collapsed_core``, computed on first use.

        Every homology computation reads this, so a complex is collapsed
        once however many fields it is checked over.
        """
        if self._core is None:
            # collapsed_core takes any iterable of distinct masks; the frozenset
            # is for perfbench's tracer, which hashes it to count repeats and
            # would call tuple(f) on each int mask of any other argument
            # (test_collapse_takes_nonempty_masks_and_returns_tuples pins it)
            self._core = frozenset(collapsed_core(frozenset(self._masks), cofaces=self._cofaces))
            self._cofaces = None
        return self._core

    def induced(self, vertex_mask: int) -> SimplicialComplex:
        """The faces whose vertices all lie in ``vertex_mask``, on the same indices."""
        outside = ~vertex_mask
        return SimplicialComplex.from_masks([f for f in self._masks if not f & outside])

    def __len__(self) -> int:
        return len(self._masks) + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return frozenset(self._masks) == frozenset(other._masks)

    __hash__ = None

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} faces={len(self)}>"


class LabeledComplex(SimplicialComplex):
    """Simplicial complex on the generators of an ideal, faces labeled by lcm.

    Labels are kept by face mask.  A builder that has them already passes
    them to ``from_masks``; otherwise they are computed on first read.
    """

    __slots__ = ("ideal", "_labels")

    def __init__(self, ideal: MonomialIdeal, faces):
        super().__init__(faces)
        if self._masks and max(self._masks).bit_length() > len(ideal.generators):
            raise ValueError("vertex index out of range for the ideal")
        self.ideal = ideal
        self._labels = None

    @classmethod
    def from_masks(cls, ideal: MonomialIdeal, masks, labels=None, cofaces=None) -> LabeledComplex:
        """A complex from the bitmasks of its nonempty faces, downward closed.

        ``labels``, when given, maps every face mask, 0 for the empty face
        included, to the lcm of the face's generators.
        """
        complex_ = super().from_masks(masks, cofaces)
        complex_.ideal = ideal
        complex_._labels = labels
        return complex_

    def labels(self) -> dict[int, Multidegree]:
        """The label of every face by face mask, the empty face's under 0."""
        if self._labels is None:
            gens = self.ideal.generators
            labels = {0: (0,) * self.ideal.nvars}
            # a face minus its top vertex has a smaller mask, so it is labelled first
            for m in sorted(self._masks):
                top = m.bit_length() - 1
                labels[m] = tuple(map(max, labels[m ^ 1 << top], gens[top]))
            self._labels = labels
        return self._labels

    def label(self, f) -> Multidegree:
        return self.labels()[face_mask(f)]


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for e in self.edges:
            i, j = e
            if not 0 <= i < j < self.vertex_count:
                raise ValueError(f"bad edge {e}")

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.vertex_count
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks


def buchberger_graph(ideal: MonomialIdeal) -> SimpleGraph:
    """Edge {i, j} whenever no generator properly divides lcm(g_i, g_j)."""
    gens = ideal.generators
    strictly_dividing = ideal.divisibility.strictly_dividing
    edges = set()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not strictly_dividing(tuple(map(max, gens[i], gens[j]))):
                edges.add((i, j))
    return SimpleGraph(len(gens), frozenset(edges))


def buchberger_complex(
    ideal: MonomialIdeal,
    *,
    max_faces: int = FACE_CAP,
    max_generators: int = GENERATOR_CAP,
) -> LabeledComplex:
    """All generator subsets whose lcm no generator properly divides.

    Grown one dimension at a time by extending faces with larger vertices;
    the admissibility test is inherited by subsets, so the sweep is complete.
    """
    gens = ideal.generators
    strictly_dividing = ideal.divisibility.strictly_dividing
    if len(gens) > max_generators:
        raise CapExceededError(
            f"{len(gens)} generators exceed the enumeration cap {max_generators}"
        )
    frontier: list[tuple[int, Multidegree]] = [(0, (0,) * ideal.nvars)]
    labels: dict[int, Multidegree] = {}
    while frontier:
        labels.update(frontier)
        if len(labels) > max_faces:
            raise CapExceededError(f"face count exceeds cap {max_faces}")
        grown = []
        for mask, label in frontier:
            # bit_length is one past the top vertex
            for w in range(mask.bit_length(), len(gens)):
                lab = tuple(map(max, label, gens[w]))
                if not strictly_dividing(lab):
                    grown.append((mask | 1 << w, lab))
        frontier = grown
    # downward closed by construction
    return LabeledComplex.from_masks(ideal, [m for m in labels if m], labels)


def _scarf_faces(bu: LabeledComplex) -> list[Face]:
    """Filter Buchberger faces by the one-vertex add/remove label test.

    A face has a repeated lcm somewhere in the power set exactly when adding
    some outside vertex or dropping some member leaves the label unchanged,
    because equal labels propagate along one-step inclusions.  The complex
    is downward closed, so the label of a face minus one member is stored.
    """
    dividing = bu.ideal.divisibility.dividing
    labels = bu.labels()
    keep = []
    for k in range(-1, bu.dim + 1):
        for face in bu.faces(k):
            mask = face_mask(face)
            label = labels[mask]
            if dividing(label) & ~mask:
                continue
            if any(labels[mask ^ 1 << v] == label for v in face):
                continue
            keep.append(face)
    return keep


def scarf_complex(
    ideal: MonomialIdeal,
    *,
    max_faces: int = FACE_CAP,
    max_generators: int = GENERATOR_CAP,
) -> LabeledComplex:
    """Generator subsets whose lcm no other subset attains."""
    bu = buchberger_complex(ideal, max_faces=max_faces, max_generators=max_generators)
    return LabeledComplex(ideal, _scarf_faces(bu))


def taylor_complex(ideal: MonomialIdeal, *, max_faces: int = FACE_CAP) -> LabeledComplex:
    """The full simplex on the generators with lcm labels."""
    r = len(ideal.generators)
    if 1 << r > max_faces:
        raise CapExceededError(f"2^{r} faces exceed cap {max_faces}")
    faces = chain.from_iterable(combinations(range(r), k) for k in range(r + 1))
    return LabeledComplex(ideal, faces)


def clique_complex(
    graph: SimpleGraph, ideal: MonomialIdeal, *, max_faces: int = CLIQUE_CAP
) -> LabeledComplex:
    """Vertex subsets inducing complete subgraphs, labeled by lcm."""
    n = graph.vertex_count
    if n != len(ideal.generators):
        raise ValueError("graph vertices must match the ideal's generators")
    adj = graph.adjacency_masks()
    # a clique's coface mask is the common neighbourhood of its vertices
    cofaces: dict[int, int] = {}
    frontier: list[tuple[int, int]] = [(0, (1 << n) - 1)]
    while frontier:
        cofaces.update(frontier)
        if len(cofaces) > max_faces:
            raise CapExceededError(f"clique count exceeds cap {max_faces}")
        grown = []
        for clique, common in frontier:
            # bit_length is one past the top vertex
            top = clique.bit_length()
            above = common >> top << top
            while above:
                low = above & -above
                above ^= low
                grown.append((clique | low, common & adj[low.bit_length() - 1]))
        frontier = grown
    # downward closed by construction; labels are computed if read
    return LabeledComplex.from_masks(ideal, [m for m in cofaces if m], cofaces=cofaces)


def subcomplex_dividing(complex_: LabeledComplex, m) -> SimplicialComplex:
    """Faces whose label divides m, without labels.

    A label is the lcm of its face's generators, so it divides m exactly
    when every vertex of the face does: this is the subcomplex induced on
    the generators dividing m.
    """
    ideal = complex_.ideal
    return complex_.induced(ideal.divisibility.dividing(_as_multidegree(m, ideal.nvars)))


def dismantle(closed_masks) -> int:
    """The vertices left after strong collapses, as a bitmask.

    ``closed_masks[v]`` is the closed neighbourhood N[v] of vertex v (v
    included).  A vertex v goes when N[v] is inside N[w] for another vertex
    w still present; removing it is a strong collapse of the clique complex,
    which keeps the homotopy type (Barmak and Minian, 2012).  Vertices are
    tried lowest index first, in passes repeated until one removes nothing,
    so the result is deterministic.
    """
    alive = (1 << len(closed_masks)) - 1
    removed = True
    while removed:
        removed = False
        for v in mask_face(alive):
            near = closed_masks[v] & alive
            rest = near ^ 1 << v
            while rest:
                low = rest & -rest
                if not near & ~closed_masks[low.bit_length() - 1]:
                    alive ^= 1 << v
                    removed = True
                    break
                rest ^= low
    return alive


def f_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Face counts per dimension, empty face excluded."""
    return tuple(len(complex_.faces(k)) for k in range(0, complex_.dim + 1))


def is_connected(graph: SimpleGraph) -> bool:
    if graph.vertex_count <= 1:
        return True
    adj = graph.adjacency_masks()
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        rest = adj[v] & ~seen
        while rest:
            w = (rest & -rest).bit_length() - 1
            seen |= 1 << w
            stack.append(w)
            rest &= rest - 1
    return seen == (1 << graph.vertex_count) - 1


def is_planar(graph: SimpleGraph) -> bool:
    """Planarity, pre-filtered by the edge-count bound e <= 3v - 6.

    networkx is imported here, past the early exits, so importing the
    package and running every other command never loads it.
    """
    v, e = graph.vertex_count, len(graph.edges)
    if v < 5:
        return True
    if e > 3 * v - 6:
        return False
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(v))
    g.add_edges_from(graph.edges)
    return nx.check_planarity(g, counterexample=False)[0]


def graph_to_dot(graph: SimpleGraph, labels=None) -> str:
    """DOT rendering with monomial vertex labels."""
    lines = ["graph monores {"]
    for v in range(graph.vertex_count):
        text = labels[v] if labels else str(v)
        lines.append(f'  {v} [label="{text}"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_to_json_dict(complex_: LabeledComplex) -> dict:
    """JSON shape: vertices as monomial text, faces per dimension, labels per face."""
    faces = {
        str(k): [list(f) for f in complex_.faces(k)]
        for k in range(0, complex_.dim + 1)
    }
    labels = {
        ",".join(map(str, f)): list(complex_.label(f))
        for k in range(0, complex_.dim + 1)
        for f in complex_.faces(k)
    }
    return {
        "vertices": [monomial_to_text(g) for g in complex_.ideal.generators],
        "faces": faces,
        "labels": labels,
    }
