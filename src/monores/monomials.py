"""Exponent vectors and monomial ideals presented by minimal generators.

A monomial is stored as its multidegree: a fixed-length tuple of nonnegative
integer exponents.  A monomial ideal is the canonically sorted tuple of its
divisibility-minimal generators; the sort order (lexicographic on exponent
vectors) fixes vertex numbering for every complex built downstream.
"""

from __future__ import annotations

import json
import random
import re
import warnings
from dataclasses import dataclass
from operator import le

from .errors import GenerationError, ParseError

Multidegree = tuple[int, ...]

# lcm and the +1 shift in ibar_extend stay well inside any machine word
EXPONENT_LIMIT = 2**31 - 2

RETRY_BUDGET = 1000
_ZERO_CHANCE = 0.15


class DroppedGeneratorsWarning(UserWarning):
    """Non-minimal generators were discarded while loading an ideal."""


def _as_multidegree(value, nvars: int | None = None) -> Multidegree:
    v = tuple(map(int, value))
    for e in v:
        if not 0 <= e <= EXPONENT_LIMIT:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            raise ValueError(f"exponent {e} exceeds limit {EXPONENT_LIMIT}")
    if nvars is not None and len(v) != nvars:
        raise ValueError(f"expected {nvars} exponents, got {len(v)}")
    return v


def _same_length(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def divides(a: Multidegree, b: Multidegree) -> bool:
    """Componentwise a_i <= b_i."""
    _same_length(a, b)
    return _divides(a, b)


def _divides(a: Multidegree, b: Multidegree) -> bool:
    """``divides`` for vectors whose common length is already validated."""
    return all(map(le, a, b))


def properly_divides(a: Multidegree, b: Multidegree) -> bool:
    """a_i < b_i wherever b_i > 0, and a_i = 0 wherever b_i = 0.

    The order is strict, so nothing properly divides itself; componentwise
    the two coincide except at the degenerate all-zero pair.
    """
    _same_length(a, b)
    if a == b:
        return False
    return all((x < y) if y else (x == 0) for x, y in zip(a, b))


def lcm_of(mdegs, nvars: int | None = None) -> Multidegree:
    """Componentwise maximum; the empty collection yields the all-zero vector."""
    mdegs = list(mdegs)
    if not mdegs:
        if nvars is None:
            raise ValueError("lcm of an empty collection needs an explicit variable count")
        return (0,) * nvars
    first = mdegs[0]
    if nvars is not None and len(first) != nvars:
        raise ValueError(f"expected {nvars} exponents, got {len(first)}")
    for m in mdegs[1:]:
        _same_length(first, m)
    return tuple(map(max, *mdegs)) if len(mdegs) > 1 else tuple(first)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its canonically sorted minimal generators.

    The zero ideal (no generators) is allowed; the unit ideal is rejected.
    Instances are immutable value objects and safe to share between threads.
    """

    nvars: int
    generators: tuple[Multidegree, ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        gens = tuple(_as_multidegree(g, self.nvars) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not any(g):
                raise ValueError("unit ideal: the monomial 1 cannot be a generator")
        for i in range(1, len(gens)):
            if not gens[i - 1] < gens[i]:
                raise ValueError("generators must be strictly sorted in canonical order")
        # in the sorted order a proper divisor comes first, so i < j suffices
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if _divides(g, h):
                    raise ValueError(f"{g} divides {h}: not a minimal generating set")

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def top_multidegree(self) -> Multidegree:
        """lcm of all generators (the all-zero vector for the zero ideal)."""
        return lcm_of(self.generators, self.nvars)


def minimalize(nvars: int, vectors) -> MonomialIdeal:
    """Deduplicate, drop divisibility-dominated vectors, and sort canonically.

    A proper divisor sorts first, and a dropped vector has a kept divisor, so
    each vector is tested against the vectors kept before it only.
    """
    keep: list[Multidegree] = []
    for v in sorted({_as_multidegree(v, nvars) for v in vectors}):
        if not any(_divides(u, v) for u in keep):
            keep.append(v)
    return MonomialIdeal(nvars, tuple(keep))


def restrict(ideal: MonomialIdeal, m: Multidegree) -> MonomialIdeal:
    """The subideal generated by the generators dividing m (automatically minimal)."""
    m = _as_multidegree(m, ideal.nvars)
    return MonomialIdeal(ideal.nvars, tuple(g for g in ideal.generators if _divides(g, m)))


def is_strongly_generic(ideal: MonomialIdeal) -> bool:
    """No two generators share a positive exponent in any variable."""
    gens = ideal.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for x, y in zip(gens[i], gens[j]):
                if x == y != 0:
                    return False
    return True


def is_generic(ideal: MonomialIdeal) -> bool:
    """Whenever two generators share a positive exponent, a third one properly
    divides their lcm."""
    gens = ideal.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if any(x == y != 0 for x, y in zip(gens[i], gens[j])):
                l = lcm_of([gens[i], gens[j]])
                if not any(
                    k != i and k != j and properly_divides(gens[k], l)
                    for k in range(len(gens))
                ):
                    return False
    return True


def ibar_extend(ideal: MonomialIdeal, bound, cofactor) -> MonomialIdeal:
    """Adjoin x_i^(bound_i + 1) * cofactor for every original variable.

    ``cofactor`` is the exponent vector of a monomial on freshly appended
    variables; every generator must divide x^bound.  The result lives in
    ``ideal.nvars + len(cofactor)`` variables and is minimalized.
    """
    bound = _as_multidegree(bound, ideal.nvars)
    cof = _as_multidegree(cofactor)
    if not cof:
        raise ValueError("need at least one new variable")
    for g in ideal.generators:
        if not _divides(g, bound):
            raise ValueError(f"generator {g} does not divide the bounding degree {bound}")
    pad = (0,) * len(cof)
    vectors = [g + pad for g in ideal.generators]
    for i in range(ideal.nvars):
        v = [0] * ideal.nvars
        v[i] = bound[i] + 1
        vectors.append(tuple(v) + cof)
    return minimalize(ideal.nvars + len(cof), vectors)


@dataclass(frozen=True)
class IdealRandomSpec:
    """Parameters for deterministic random ideal generation."""

    nvars: int
    ngens: int
    max_degree: int
    mode: str = "arbitrary"
    seed: int = 0

    def __post_init__(self):
        if self.nvars < 1 or self.ngens < 1 or self.max_degree < 1:
            raise ValueError("nvars, ngens and max_degree must be positive")
        if self.mode not in ("arbitrary", "strongly-generic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.mode == "strongly-generic" and self.max_degree < self.ngens:
            raise ValueError("strongly-generic mode needs max_degree >= ngens")


def random_ideal(spec: IdealRandomSpec) -> MonomialIdeal:
    """Deterministic function of the seed.

    Arbitrary mode draws exponent vectors uniformly (all-zero redrawn) and
    minimalizes, so fewer than ``ngens`` generators may survive.  In
    strongly-generic mode each variable hands out distinct nonzero exponents
    (or zero) and the draw is rejected until exactly ``ngens`` generators
    remain minimal; the retry budget is explicit.
    """
    rng = random.Random(spec.seed)
    if spec.mode == "arbitrary":
        vectors = []
        for _ in range(spec.ngens):
            v = tuple(rng.randint(0, spec.max_degree) for _ in range(spec.nvars))
            while not any(v):
                v = tuple(rng.randint(0, spec.max_degree) for _ in range(spec.nvars))
            vectors.append(v)
        return minimalize(spec.nvars, vectors)

    for _ in range(RETRY_BUDGET):
        cols = []
        for _ in range(spec.nvars):
            zeros = [rng.random() < _ZERO_CHANCE for _ in range(spec.ngens)]
            values = iter(rng.sample(range(1, spec.max_degree + 1), spec.ngens - sum(zeros)))
            cols.append([0 if z else next(values) for z in zeros])
        rows = [tuple(col[j] for col in cols) for j in range(spec.ngens)]
        if any(not any(row) for row in rows):
            continue
        candidate = minimalize(spec.nvars, rows)
        if len(candidate.generators) == spec.ngens and is_strongly_generic(candidate):
            return candidate
    raise GenerationError(
        f"no strongly generic ideal with {spec.ngens} minimal generators found "
        f"in {RETRY_BUDGET} attempts (nvars={spec.nvars}, max_degree={spec.max_degree})"
    )


# ---------------------------------------------------------------------------
# parsing and formatting

_TOKEN = re.compile(r"x(\d+)(?:\^(\d+))?$")


def monomial_to_text(m: Multidegree) -> str:
    parts = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the JSON or the line-oriented text ideal format.

    Both paths minimalize on load and emit a DroppedGeneratorsWarning when
    non-minimal generators were discarded.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _finish(nvars: int, raw: list[Multidegree]) -> MonomialIdeal:
    try:
        ideal = minimalize(nvars, raw)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    dropped = len(raw) - len(ideal.generators)
    if dropped:
        warnings.warn(
            f"dropped {dropped} non-minimal generator(s)", DroppedGeneratorsWarning,
            stacklevel=3,
        )
    return ideal


def _parse_json(text: str) -> MonomialIdeal:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(data, dict) or "variables" not in data or "generators" not in data:
        raise ParseError('JSON ideal needs "variables" and "generators" keys')
    nvars = data["variables"]
    if not isinstance(nvars, int) or nvars < 1:
        raise ParseError('"variables" must be a positive integer')
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ParseError('"generators" must be a list of exponent vectors')
    raw = []
    for g in gens:
        if not isinstance(g, list) or len(g) != nvars:
            raise ParseError(f"generator {g!r} does not have {nvars} exponents")
        try:
            raw.append(_as_multidegree(g, nvars))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return _finish(nvars, raw)


def _parse_monomial(chunk: str, nvars: int, line_no: int, offset: int) -> Multidegree:
    exponents = [0] * nvars
    seen_token = False
    for match in re.finditer(r"[^\s*]+", chunk):
        token, column = match.group(), offset + match.start() + 1
        seen_token = True
        if token == "1":
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad token {token!r}", line_no, column)
        index = int(m.group(1))
        if not 1 <= index <= nvars:
            raise ParseError(f"variable x{index} out of range (vars: {nvars})", line_no, column)
        exponents[index - 1] += int(m.group(2) or 1)
    if not seen_token:
        raise ParseError("empty monomial", line_no, offset + 1)
    return tuple(exponents)


def _parse_text(text: str) -> MonomialIdeal:
    nvars = None
    raw: list[Multidegree] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if nvars is None:
            m = re.match(r"\s*vars:\s*(\d+)\s*$", line)
            if not m:
                raise ParseError("expected header 'vars: N'", line_no, 1)
            nvars = int(m.group(1))
            if nvars < 1:
                raise ParseError("need at least one variable", line_no, 1)
            continue
        offset = 0
        for chunk in line.split(","):
            if chunk.strip():
                raw.append(_parse_monomial(chunk, nvars, line_no, offset))
            offset += len(chunk) + 1
    if nvars is None:
        raise ParseError("missing header 'vars: N'")
    return _finish(nvars, raw)


def format_ideal(ideal: MonomialIdeal, fmt: str = "text") -> str:
    """Render an ideal in the text or JSON interchange format."""
    if fmt == "text":
        lines = [f"vars: {ideal.nvars}"]
        lines.extend(monomial_to_text(g) for g in ideal.generators)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(ideal_to_json_dict(ideal), sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def ideal_to_json_dict(ideal: MonomialIdeal) -> dict:
    return {"variables": ideal.nvars, "generators": [list(g) for g in ideal.generators]}
