"""Finite posets, the lcm-lattice, degree posets, order and crosscut complexes."""

from __future__ import annotations

from itertools import chain, compress
from operator import eq

from .complexes import SimplicialComplex
from .errors import CapExceededError
from .homology import mask_face
from .monomials import DivisibilityIndex, Multidegree, MonomialIdeal, _as_multidegree

LATTICE_CAP = 1 << 16
CHAIN_CAP = 1 << 20


def _transpose(masks: list[int]) -> list[int]:
    """Bit j of masks[i] becomes bit i of the j-th result."""
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


class FinitePoset:
    """Finite poset on distinct hashable payloads, given by its down-sets.

    ``down[j]`` is the bitmask of {i : element_i <= element_j}; the up-sets
    are its transpose.  The order is taken as given and not validated: every
    poset here is built from a divisibility index (open intervals, Buchberger
    degrees, agreement posets) or restricted from one, so the axioms hold by
    construction.
    """

    __slots__ = ("elements", "_pos", "_up", "_down")

    def __init__(self, elements, down):
        self.elements = tuple(elements)
        self._pos = {e: i for i, e in enumerate(self.elements)}
        if len(self._pos) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        self._down = list(down)
        # i <= j sets bit i of down[j] and bit j of up[i]
        self._up = _transpose(self._down)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, payload) -> int:
        return self._pos[payload]

    def up_mask(self, i: int) -> int:
        """Bitmask of {j : element_i <= element_j}."""
        return self._up[i]

    def down_mask(self, j: int) -> int:
        return self._down[j]

    def comparability_masks(self) -> list[int]:
        """Closed neighbourhoods in the comparability graph, whose clique
        complex is the order complex."""
        return [u | d for u, d in zip(self._up, self._down)]

    def restrict(self, mask: int) -> FinitePoset:
        """The subposet on the elements whose index bit is set in ``mask``."""
        if mask == (1 << len(self.elements)) - 1:
            return self
        keep = mask_face(mask)
        bit = {old: 1 << new for new, old in enumerate(keep)}
        down = [sum(bit[i] for i in mask_face(self._down[j] & mask)) for j in keep]
        return FinitePoset([self.elements[j] for j in keep], down)


class LcmLattice:
    """All lcms of generator subsets, divisibility-ordered, bottom element 1."""

    __slots__ = ("nvars", "elements", "_pos", "_divisibility")

    def __init__(self, nvars: int, elements):
        self.nvars = nvars
        self.elements = tuple(sorted(elements))
        self._pos = {e: i for i, e in enumerate(self.elements)}
        self._divisibility: DivisibilityIndex | None = None

    def __contains__(self, m) -> bool:
        return tuple(m) in self._pos

    @property
    def divisibility(self) -> DivisibilityIndex:
        """The elements' ``DivisibilityIndex``, built on first use."""
        if self._divisibility is None:
            self._divisibility = DivisibilityIndex(self.nvars, self.elements)
        return self._divisibility

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def top(self) -> Multidegree:
        return tuple(max(col) for col in zip(*self.elements))


def lcm_lattice(ideal: MonomialIdeal, *, max_elements: int = LATTICE_CAP) -> LcmLattice:
    """Join-closure of the generators over the bottom element."""
    elements = {(0,) * ideal.nvars}
    for g in ideal.generators:
        elements |= {tuple(map(max, e, g)) for e in elements}
        if len(elements) > max_elements:
            raise CapExceededError(f"lcm-lattice exceeds cap {max_elements}")
    return LcmLattice(ideal.nvars, elements)


def _interval_elements(lattice: LcmLattice, m: Multidegree) -> list[Multidegree]:
    pos = lattice._pos.get(m)
    if pos is None:
        raise ValueError(f"{m} is not an lcm-lattice element")
    # leave out m itself and the zero vector, if the lattice holds it
    inside = lattice.divisibility.dividing(m) & ~(1 << pos)
    bottom = lattice._pos.get((0,) * lattice.nvars)
    if bottom is not None:
        inside &= ~(1 << bottom)
    return [lattice.elements[i] for i in mask_face(inside)]


def _divisibility_poset(nvars: int, points, elements=None) -> FinitePoset:
    """Distinct multidegrees under divisibility, carrying ``elements`` (by
    default the points themselves) as payloads."""
    dividing = DivisibilityIndex(nvars, points).dividing
    return FinitePoset(points if elements is None else elements, [dividing(p) for p in points])


def open_interval(lattice: LcmLattice, m) -> FinitePoset:
    """Lattice elements strictly between 1 and m under divisibility."""
    return _divisibility_poset(lattice.nvars, _interval_elements(lattice, tuple(m)))


def interval_crosscut(
    ideal: MonomialIdeal, m, *, max_faces: int = CHAIN_CAP
) -> SimplicialComplex:
    """Atom crosscut of the lcm-lattice interval [1, m], on generator indices.

    The atoms of [1, m] are the generators dividing m; the faces are the atom
    sets whose lcm is not m.  By the crosscut theorem this complex is
    homotopy equivalent to the order complex of the open interval (1, m), and
    it has at most 2^(atoms) faces however many lattice elements lie below m.

    Faces grow one vertex at a time carrying the variables where the running
    lcm already reaches m; the lcm is m exactly when that set is all of them,
    and a set that falls short keeps falling short on every subset.
    """
    m = _as_multidegree(m, ideal.nvars)
    full = (1 << ideal.nvars) - 1
    gens = ideal.generators
    atoms = [
        (v, sum(1 << i for i, (a, b) in enumerate(zip(gens[v], m)) if a == b))
        for v in mask_face(ideal.divisibility.dividing(m))
    ]
    reached = 0
    for _, agree in atoms:
        reached |= agree
    if reached != full:
        raise ValueError(f"{m} is not an lcm-lattice element")
    faces: list[int] = []
    frontier = [(0, 0, 0)]
    count = 0
    while frontier:
        faces.extend(f for f, _, _ in frontier)
        count += len(frontier)
        if count > max_faces:
            raise CapExceededError(f"interval crosscut face count exceeds cap {max_faces}")
        grown = []
        for face, agree, start in frontier:
            for p in range(start, len(atoms)):
                v, more = atoms[p]
                if agree | more != full:
                    grown.append((face | 1 << v, agree | more, p + 1))
        frontier = grown
    return SimplicialComplex.from_masks(faces[1:])


def buchberger_degree_poset(
    ideal: MonomialIdeal,
    *,
    lattice: LcmLattice | None = None,
    max_elements: int = LATTICE_CAP,
) -> FinitePoset:
    """Nontrivial lattice elements without a properly dividing generator."""
    lattice = lattice or lcm_lattice(ideal, max_elements=max_elements)
    strictly_dividing = ideal.divisibility.strictly_dividing
    degrees = [e for e in lattice.elements if any(e) and not strictly_dividing(e)]
    return _divisibility_poset(ideal.nvars, degrees)


def agreement_sets(
    ideal: MonomialIdeal, m, *, lattice: LcmLattice | None = None
) -> tuple[int, ...]:
    """Distinct variable-agreement sets of the elements strictly between 1 and m.

    Each such element e gives the bitmask of the variables t with
    e_t = m_t.  The masks come sorted by size, then by value, so equal
    families are equal tuples.
    """
    lattice = lattice or lcm_lattice(ideal)
    m = tuple(m)
    bits = [1 << t for t in range(len(m))]
    sets = {sum(compress(bits, map(eq, e, m))) for e in _interval_elements(lattice, m)}
    return tuple(sorted(sets, key=lambda s: (s.bit_count(), s)))


def agreement_poset(nvars: int, sets) -> FinitePoset:
    """Variable bitmasks ordered by inclusion, carrying the masks as payloads.

    A mask is ordered as its 0/1 vector, since inclusion of sets is
    divisibility of those vectors.
    """
    vectors = [tuple(s >> t & 1 for t in range(nvars)) for s in sets]
    return _divisibility_poset(nvars, vectors, sets)


def order_complex(poset: FinitePoset, *, max_chains: int = CHAIN_CAP) -> SimplicialComplex:
    """All chains of the poset as faces, on the poset's element indices.

    Elements are taken in a linear extension (by down-set size).  The chains
    topped by v are {v} and v added to each chain topped by an element below
    v, so each chain is made once, as a vertex bitmask, by one OR.
    """
    topped: list[list[int]] = [[] for _ in range(len(poset))]
    count = 1
    for v in sorted(range(len(poset)), key=lambda i: poset.down_mask(i).bit_count()):
        bit = 1 << v
        chains = topped[v] = [bit]
        for u in mask_face(poset.down_mask(v) & ~bit):
            chains += map(bit.__or__, topped[u])
        count += len(chains)
        if count > max_chains:
            raise CapExceededError(f"chain count exceeds cap {max_chains}")
    return SimplicialComplex.from_masks(chain.from_iterable(topped))


def crosscut_complex(
    poset: FinitePoset, antichain, *, max_faces: int = CHAIN_CAP
) -> SimplicialComplex:
    """Subsets of the antichain that are bounded inside the poset.

    Bounded means a common upper bound or a common lower bound exists; for an
    antichain of atoms only the upper bounds matter, since no two distinct
    atoms have a common lower bound.
    """
    members = tuple(antichain)
    if len(set(members)) != len(members):
        raise ValueError("antichain entries must be distinct")
    ups = [poset.up_mask(a) for a in members]
    bits = sum(1 << a for a in members)
    if any(up & bits & ~(1 << a) for a, up in zip(members, ups)):
        raise ValueError("the given elements do not form an antichain")
    downs = [poset.down_mask(a) for a in members]
    faces: list[int] = []
    frontier = [(1 << k, k, ups[k], downs[k]) for k in range(len(members))]
    count = 1
    while frontier:
        faces.extend(f for f, _, _, _ in frontier)
        count += len(frontier)
        if count > max_faces:
            raise CapExceededError(f"crosscut face count exceeds cap {max_faces}")
        grown = []
        for face, last, up, down in frontier:
            for k in range(last + 1, len(members)):
                u = up & ups[k]
                d = down & downs[k]
                if u or d:
                    grown.append((face | 1 << k, k, u, d))
        frontier = grown
    return SimplicialComplex.from_masks(faces)
