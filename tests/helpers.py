"""Independent oracles and generators shared by the test modules.

Everything here is deliberately brute force: exhaustive subset scans and
Fraction-based elimination, kept separate from the library's own algorithms
so the two routes stay independent.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
import random

from monores import FinitePoset, IdealRandomSpec, random_ideal
from monores.cli import derive_trial_seed
from monores.monomials import divides, lcm_of, properly_divides


def minimalize_oracle(vectors):
    """Quadratic dominance filter."""
    vs = sorted(set(map(tuple, vectors)))
    out = []
    for v in vs:
        if not any(u != v and divides(u, v) for u in vs):
            out.append(v)
    return out


def random_ideal_oracle(spec):
    """The generators ``random_ideal`` drew before its rejection loops were
    inlined: randint per exponent, and in strongly generic mode a full
    minimalization and genericity test per draw."""
    rng = random.Random(spec.seed)
    if spec.mode == "arbitrary":
        vectors = []
        for _ in range(spec.ngens):
            v = tuple(rng.randint(0, spec.max_degree) for _ in range(spec.nvars))
            while not any(v):
                v = tuple(rng.randint(0, spec.max_degree) for _ in range(spec.nvars))
            vectors.append(v)
        return tuple(minimalize_oracle(vectors))
    for _ in range(1000):
        cols = []
        for _ in range(spec.nvars):
            zeros = [rng.random() < 0.15 for _ in range(spec.ngens)]
            values = iter(rng.sample(range(1, spec.max_degree + 1), spec.ngens - sum(zeros)))
            cols.append([0 if z else next(values) for z in zeros])
        rows = [tuple(col[j] for col in cols) for j in range(spec.ngens)]
        if any(not any(row) for row in rows):
            continue
        gens = minimalize_oracle(rows)
        generic = all(
            x != y or x == 0
            for a, b in combinations(gens, 2)
            for x, y in zip(a, b)
        )
        if len(gens) == spec.ngens and generic:
            return tuple(gens)
    return None


def buchberger_oracle(ideal):
    """All 2^r subsets whose lcm has no properly dividing generator."""
    gens = ideal.generators
    faces = []
    for k in range(len(gens) + 1):
        for subset in combinations(range(len(gens)), k):
            lab = lcm_of([gens[v] for v in subset], ideal.nvars)
            if not any(properly_divides(g, lab) for g in gens):
                faces.append(subset)
    return set(faces)


def subcomplex_dividing_oracle(complex_, m):
    """The faces of a labeled complex whose label divides m, by a label scan."""
    return {f for f in complex_.all_faces() if divides(complex_.label(f), m)}


def interval_elements_oracle(lattice, m):
    """The lattice elements strictly between 1 and m, by a divisibility scan."""
    return [e for e in lattice.elements if any(e) and e != m and divides(e, m)]


def clique_oracle(graph):
    """All vertex subsets whose pairs are all edges."""
    n = graph.vertex_count
    return {
        subset
        for k in range(n + 1)
        for subset in combinations(range(n), k)
        if all(graph.has_edge(i, j) for i, j in combinations(subset, 2))
    }


def scarf_oracle(ideal):
    """All subsets whose lcm is attained by no other subset."""
    gens = ideal.generators
    by_label = {}
    for k in range(len(gens) + 1):
        for subset in combinations(range(len(gens)), k):
            lab = lcm_of([gens[v] for v in subset], ideal.nvars)
            by_label.setdefault(lab, []).append(subset)
    return {subsets[0] for subsets in by_label.values() if len(subsets) == 1}


def rank_oracle(dense, characteristic=0):
    """Plain Gaussian elimination over Fraction or a prime field."""
    p = characteristic
    m = [
        [(v % p) if p else Fraction(v) for v in row]
        for row in dense
    ]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv
                if p:
                    m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
                else:
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def boundary_dense(lower, upper):
    index = {f: i for i, f in enumerate(lower)}
    m = [[0] * len(upper) for _ in lower]
    for c, f in enumerate(upper):
        for pos in range(len(f)):
            m[index[f[:pos] + f[pos + 1:]]][c] = -1 if pos % 2 else 1
    return m


def homology_oracle(faces, characteristic=0):
    """Reduced Betti numbers straight from the definitions, no collapsing."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(f))
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    ranks = {}
    boundary_rank = {}
    boundary_rank[0] = 1 if by_dim.get(0) else 0
    for k in range(1, top + 1):
        boundary_rank[k] = rank_oracle(
            boundary_dense(by_dim[k - 1], by_dim[k]), characteristic
        )
    for k in range(-1, top + 1):
        ranks[k] = (
            len(by_dim.get(k, ()))
            - boundary_rank.get(k, 0)
            - boundary_rank.get(k + 1, 0)
        )
    return ranks


def collapse_oracle(faces):
    """Elementary collapses on sorted vertex tuples, in the library's order.

    Free faces by decreasing size, then lexicographically, then as removals
    free them; the core is returned with the empty face.
    """
    present = {tuple(f) for f in faces}
    present.add(())
    cofaces = {f: set() for f in present}
    for f in present:
        for p in range(len(f)):
            cofaces[f[:p] + f[p + 1:]].add(f[p])
    queue = deque(
        sorted(
            (f for f in present if f and len(cofaces[f]) == 1),
            key=lambda f: (-len(f), f),
        )
    )
    while queue:
        f = queue.popleft()
        if f not in present or len(cofaces[f]) != 1:
            continue
        (v,) = cofaces[f]
        g = tuple(sorted(f + (v,)))
        present.discard(f)
        present.discard(g)
        for removed in (g, f):
            for p in range(len(removed)):
                facet = removed[:p] + removed[p + 1:]
                if facet in present:
                    s = cofaces[facet]
                    s.discard(removed[p])
                    if len(s) == 1 and facet:
                        queue.append(facet)
    return present


def comparator_poset(elements, leq):
    """The poset of a comparator, by n^2 calls, with the order axioms checked.

    Transitivity is checked on every pair, so this is for small posets only.
    """
    elements = list(elements)
    n = len(elements)
    up = [sum(1 << j for j, b in enumerate(elements) if leq(a, b)) for a in elements]
    for i in range(n):
        if not up[i] >> i & 1:
            raise ValueError("order relation is not reflexive")
        for j in range(n):
            if not up[i] >> j & 1 or i == j:
                continue
            if up[j] >> i & 1:
                raise ValueError(f"order relation is not antisymmetric on elements {i}, {j}")
            if up[j] & ~up[i]:
                raise ValueError("order relation is not transitive")
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return FinitePoset(elements, down)


def chains_oracle(poset):
    """Every chain of the poset, as a sorted index tuple, by subset scans."""
    n = len(poset)
    comparable = poset.comparability_masks()
    return {
        subset
        for k in range(n + 1)
        for subset in combinations(range(n), k)
        if all(comparable[i] >> j & 1 for i, j in combinations(subset, 2))
    }


@dataclass(frozen=True)
class FreeResolutionDescription:
    """Bases and monomial-weighted differentials read off a labeled complex.

    Homological index i is spanned by the faces of dimension i.  A matrix
    entry is a pair (sign, exponent vector): the sign follows the simplicial
    boundary, the exponent vector is label(F) - label(G) for G directly under
    F.  The index-0 map sends each vertex to its generator.
    """

    basis: tuple
    differentials: tuple
    augmentation: tuple

    def ranks(self):
        return tuple(len(b) for b in self.basis)

    def differential(self, i):
        """Entries (row, col, sign, exponents) of the map from index i to i-1."""
        if not 1 <= i < len(self.basis):
            raise IndexError(f"no differential at homological index {i}")
        return self.differentials[i - 1]

    def compose_zero(self):
        """Symbolic check that consecutive differentials compose to zero."""
        for i in range(2, len(self.basis)):
            upper = self.differential(i)
            lower = {}
            for r, c, s, e in self.differential(i - 1):
                lower.setdefault(c, []).append((r, s, e))
            sums = {}
            for mid, col, s1, e1 in upper:
                for row, s2, e2 in lower.get(mid, ()):
                    key = (row, col, tuple(a + b for a, b in zip(e1, e2)))
                    sums[key] = sums.get(key, 0) + s1 * s2
            if any(sums.values()):
                return False
        return True


def homogenized_resolution(complex_):
    """The chain complex of the labeled complex with monomial-weighted maps."""
    basis = tuple(
        tuple((f, complex_.label(f)) for f in complex_.faces(k))
        for k in range(0, complex_.dim + 1)
    )
    differentials = []
    for i in range(1, len(basis)):
        rows = {f: r for r, (f, _) in enumerate(basis[i - 1])}
        entries = []
        for c, (f, label) in enumerate(basis[i]):
            for p in range(len(f)):
                facet = f[:p] + f[p + 1:]
                below = complex_.label(facet)
                exps = tuple(a - b for a, b in zip(label, below))
                entries.append((rows[facet], c, -1 if p % 2 else 1, exps))
        differentials.append(tuple(entries))
    augmentation = tuple(label for _, label in basis[0]) if basis else ()
    return FreeResolutionDescription(basis, tuple(differentials), augmentation)


def downward_closure(faces):
    closed = {()}
    for f in faces:
        f = tuple(sorted(set(f)))
        for k in range(len(f) + 1):
            closed.update(combinations(f, k))
    return closed


def random_face_family(seed, nverts=6, nfacets=5, max_dim=3):
    """A random downward-closed family for homology stress tests."""
    rng = random.Random(seed)
    facets = []
    for _ in range(nfacets):
        size = rng.randint(1, max_dim + 1)
        facets.append(tuple(sorted(rng.sample(range(nverts), min(size, nverts)))))
    return downward_closure(facets)


def ideal_from_seed(seed, nvars, ngens, max_degree):
    return random_ideal(IdealRandomSpec(nvars, ngens, max_degree, "arbitrary", seed))


def spec_stream(master, count, scheme):
    """Deterministic IdealRandomSpec stream; scheme(i) -> (n, r, d, mode)."""
    for i in range(count):
        n, r, d, mode = scheme(i)
        yield IdealRandomSpec(n, r, d, mode, derive_trial_seed(master, i))


# the 6-vertex closed-surface triangulation with Euler characteristic 1
PROJECTIVE_PLANE_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]
