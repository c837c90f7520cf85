"""Exact reduced simplicial homology over the rationals, prime fields, and the integers.

Ranks are computed by sparse elimination with exact integer arithmetic only;
characteristic zero uses division-free cross-multiplication with per-row gcd
reduction, prime characteristics use modular elimination.  Complexes are
first shrunk by elementary collapses, which preserve the homotopy type and
hence every rank and torsion invariant reported here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import CapExceededError

INTEGRAL_CELL_CAP = 4096
DEFAULT_CHARACTERISTICS = (0, 2, 3, 32003)
CHARACTERISTIC_LIMIT = 1 << 64


# Miller-Rabin with these bases decides primality for every n < 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c >= CHARACTERISTIC_LIMIT:
            raise ValueError(f"characteristic must be below 2**64, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")


DEFAULT_FIELDS = tuple(FieldSpec(c) for c in DEFAULT_CHARACTERISTICS)


@dataclass(frozen=True)
class HomologyRanks:
    """Reduced Betti numbers indexed from dimension -1 upward."""

    ranks: tuple[int, ...]

    def betti(self, k: int) -> int:
        i = k + 1
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    @property
    def trivial(self) -> bool:
        return not any(self.ranks)


@dataclass(frozen=True)
class IntegralHomology:
    """Free ranks and nontrivial invariant factors, indexed from dimension -1."""

    ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def torsion_free(self) -> bool:
        return not any(self.torsion)

    @property
    def trivial(self) -> bool:
        return not any(self.ranks) and self.torsion_free


# ---------------------------------------------------------------------------
# elementary collapses

def face_mask(face) -> int:
    """The vertex bitmask of a face: bit v is set when v is a vertex."""
    m = 0
    for v in face:
        m |= 1 << v
    return m


def mask_face(m: int) -> tuple[int, ...]:
    """The sorted vertex tuple of a vertex bitmask."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _coface_masks(faces) -> dict[int, int]:
    """Each face's coface mask, the empty face's under 0.

    ``faces`` are the nonempty faces of a complex as vertex bitmasks; the
    coface mask of a face holds the vertices that extend it to a face.
    """
    cofaces = dict.fromkeys(faces, 0)
    cofaces[0] = 0
    for f in cofaces:
        rest = f
        while rest:
            low = rest & -rest
            cofaces[f ^ low] |= low
            rest ^= low
    return cofaces


def collapsed_core(faces, *, cofaces=None) -> set[tuple[int, ...]]:
    """Greedily remove free face / unique-coface pairs.

    ``faces`` are the nonempty faces as vertex bitmasks.  A face's coface
    mask holds the vertices that extend it to a present face; a nonempty
    face is free when that mask has one bit, and it goes together with its
    coface, which keeps the homotopy type.  Candidates are taken in a fixed
    order (free faces by decreasing size, then lexicographically, then as
    removals free them), so the core is deterministic.  It is returned as
    sorted vertex tuples, the empty face included.

    ``cofaces``, when given, maps every face of ``faces``, and 0 for the
    empty face, to its coface mask; a builder that has computed them passes
    them, and the collapse edits the map in place.  Otherwise the map is
    derived from ``faces``.
    """
    # the keys are the faces still present
    if cofaces is None:
        cofaces = _coface_masks(faces)
    free = [f for f, c in cofaces.items() if f and c and not c & (c - 1)]
    queue = deque(sorted(free, key=lambda f: (-f.bit_count(), mask_face(f))))
    get, push, pop = cofaces.get, queue.append, queue.popleft
    while queue:
        f = pop()
        c = get(f)
        if not c or c & (c - 1):
            continue
        g = f | c
        del cofaces[f], cofaces[g]
        for removed in (g, f):
            rest = removed
            while rest:
                low = rest & -rest
                rest ^= low
                facet = removed ^ low
                s = get(facet)
                if s is not None:
                    # removed was present, so its vertex is in facet's mask
                    s ^= low
                    cofaces[facet] = s
                    if facet and s and not s & (s - 1):
                        push(facet)
    return {mask_face(f) for f in cofaces}


# ---------------------------------------------------------------------------
# exact rank computation

def _matrix_rank(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    """Rank of sparse rows ``{column: entry}`` by elimination on leading columns.

    Each row is reduced by the pivot stored under its leading (lowest)
    column until that column has none, and then becomes the pivot there.
    Over F_p (p > 0) entries are residues and a pivot is scaled to lead with
    1.  Over Q (p = 0) the elimination is fraction-free: a pivot leading
    with 1 is subtracted as it is, any other scales the row first, and the
    row's content (gcd) is then divided out.
    """
    pivots: dict[int, dict[int, int]] = {}
    full = min(len(rows), ncols)
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p} if p else dict(row)
        while row:
            lead = min(row)
            a = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                if p and a != 1:
                    inv = pow(a, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                elif a < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                break
            b = piv[lead]
            if b != 1:
                # only over Q: scale the row so that the pivot's multiple cancels
                g = gcd(a, b)
                a, b = a // g, b // g
                row = {c: v * b for c, v in row.items()}
            for c, v in piv.items():
                v = row.get(c, 0) - a * v
                if p:
                    v %= p
                if v:
                    row[c] = v
                else:
                    del row[c]
            if b != 1 and row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
        if len(pivots) == full:
            break
    return len(pivots)


def _faces_by_dim(faces) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Sorted vertex tuples grouped by dimension."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    return {k: tuple(sorted(v)) for k, v in by_dim.items()}


def _boundary_rows(lower: list, upper: list) -> list[dict[int, int]]:
    """Rows indexed by the lower faces, columns by the upper ones."""
    index = {f: i for i, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for c, f in enumerate(upper):
        for p in range(len(f)):
            rows[index[f[:p] + f[p + 1:]]][c] = -1 if p % 2 else 1
    return rows


def _reduced_ranks_of_faces(faces, characteristic: int) -> dict[int, int]:
    """Reduced Betti numbers of an explicit face family (assumed a complex)."""
    by_dim = _faces_by_dim(faces)
    top = max(by_dim)
    counts = {k: len(v) for k, v in by_dim.items()}
    boundary_rank = {k: 0 for k in range(0, top + 2)}
    if counts.get(0):
        boundary_rank[0] = 1
    for k in range(1, top + 1):
        rows = _boundary_rows(by_dim[k - 1], by_dim[k])
        boundary_rank[k] = _matrix_rank(rows, counts[k], characteristic)
    return {
        k: counts.get(k, 0) - boundary_rank.get(k, 0) - boundary_rank.get(k + 1, 0)
        for k in range(-1, top + 1)
    }


def reduced_homology(complex_, field: FieldSpec = FieldSpec(0), *, collapse: bool = True) -> HomologyRanks:
    """Reduced Betti numbers of the complex over the given field."""
    faces = complex_.core() if collapse else complex_.face_set()
    if len(faces) == 2:
        # the empty face and one vertex: a point, acyclic over every field
        return HomologyRanks((0,) * (complex_.dim + 2))
    ranks = _reduced_ranks_of_faces(faces, field.characteristic)
    return HomologyRanks(tuple(ranks.get(k, 0) for k in range(-1, complex_.dim + 1)))


def is_acyclic(complex_, field: FieldSpec = FieldSpec(0)) -> bool:
    """True for complexes without vertices and whenever all reduced ranks vanish."""
    if complex_.dim <= -1:
        return True
    return reduced_homology(complex_, field).trivial


# ---------------------------------------------------------------------------
# integral homology

def _diagonalize(m: list[list[int]]) -> list[int]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the absolute values of the nonzero diagonal; divisibility is not
    normalized here.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    t = 0
    while True:
        best = None
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, nrows):
                while m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, ncols):
                while m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        # the swap can re-dirty the column below; the outer
                        # loop re-clears it
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if not any(m[i][t] for i in range(t + 1, nrows)):
                break
        t += 1
        if t == min(nrows, ncols):
            break
    return [abs(m[i][i]) for i in range(t) if m[i][i]]


def _invariant_factors(diagonal: list[int]) -> list[int]:
    """Normalize a diagonal multiset into the divisibility chain."""
    d = sorted(diagonal)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] // g * d[j]
                    changed = True
        if changed:
            d.sort()
    return d


def integral_homology(complex_, *, max_cells: int = INTEGRAL_CELL_CAP) -> IntegralHomology:
    """Free ranks and invariant factors of the reduced integral homology."""
    faces = complex_.core()
    if len(faces) - 1 > max_cells:
        raise CapExceededError(
            f"{len(faces) - 1} cells after collapsing exceed cap {max_cells}"
        )
    if len(faces) == 2:
        return IntegralHomology((0,) * (complex_.dim + 2), ((),) * (complex_.dim + 2))
    by_dim = _faces_by_dim(faces)
    top = max(by_dim)
    counts = {k: len(v) for k, v in by_dim.items()}
    diag: dict[int, list[int]] = {k: [] for k in range(0, top + 2)}
    if counts.get(0):
        diag[0] = [1]
    for k in range(1, top + 1):
        rows = _boundary_rows(by_dim[k - 1], by_dim[k])
        diag[k] = _diagonalize([[row.get(c, 0) for c in range(counts[k])] for row in rows])
    ranks = []
    torsion = []
    for k in range(-1, complex_.dim + 1):
        rank_k = len(diag.get(k, []))
        rank_k1 = len(diag.get(k + 1, []))
        ranks.append(counts.get(k, 0) - rank_k - rank_k1)
        torsion.append(tuple(v for v in _invariant_factors(diag.get(k + 1, [])) if v > 1))
    return IntegralHomology(tuple(ranks), tuple(torsion))
