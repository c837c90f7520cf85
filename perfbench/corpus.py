"""Seeded input generation for the benchmark workloads.

Every input is drawn with ``monores.monomials.random_ideal`` from a seed that
the benchmark derives from its own ``--seed``.  Op cost on these families is
heavy-tailed (one 8-generator ideal can cost as much as a hundred small
ones), so a plain random draw makes runs with different seeds do very
different amounts of work.  Each round of a workload therefore has a fixed
list of slots, and a slot names a family and a target *size*; the seed
decides which ideal of that size fills it.  Sizes are computed here, by the
benchmark's own code, so they do not depend on the program under test:

* ``chain_size``: the number of chains summed over the open intervals
  (1, m) of the lcm-lattice, which is the order-complex work behind
  ``verify`` and ``betti --method interval`` (about 20-45 us per chain at
  the defining commit);
* ``clique_size``: the faces of the clique complex of the Buchberger graph,
  which is what ``conjecture`` collapses five times per trial.
"""

from __future__ import annotations

import math
import random

SIZE_TOLERANCE = 0.04
MAX_DRAWS = 600
HUGE = 10 ** 12


def _threshold_masks(points, nvars: int, strict: bool) -> list[list[int]]:
    """masks[t][v]: bit i set when points[i][t] <= v (< v when ``strict``)."""
    top = max(max(p) for p in points) + 2
    masks = []
    for t in range(nvars):
        at = [0] * top
        for i, p in enumerate(points):
            at[p[t] + strict] |= 1 << i
        for v in range(1, top):
            at[v] |= at[v - 1]
        masks.append(at)
    return masks


def chain_size(gens, max_elements: int = 300) -> int:
    """Sum over nonzero lcm-lattice elements m of the chain count of (1, m).

    Lattices above ``max_elements`` count as HUGE: their chain counts are far
    beyond every target, and counting them would cost more than drawing on.
    """
    nvars = len(gens[0])
    elements = {(0,) * nvars}
    for g in gens:
        elements |= {tuple(map(max, e, g)) for e in elements}
        if len(elements) > max_elements:
            return HUGE
    # degree-sum order puts every proper divisor before its multiples
    lattice = sorted(elements, key=lambda e: (sum(e), e))[1:]
    at_most = _threshold_masks(lattice, nvars, strict=False)
    ending_at = []
    total = 0
    for j, x in enumerate(lattice):
        below = (1 << j) - 1
        for t, v in enumerate(x):
            below &= at_most[t][v]
        chains_below = 0
        while below:
            low = below & -below
            chains_below += ending_at[low.bit_length() - 1]
            below ^= low
        ending_at.append(1 + chains_below)
        total += chains_below
    return total


def clique_size(gens, limit: int = 1 << 15) -> int:
    """Nonempty cliques of the Buchberger graph, counted up to ``limit``.

    The default limit is about four times the clique count of the largest
    trial that a workload target admits, so only far larger ideals are cut."""
    r = len(gens)
    nvars = len(gens[0])
    less = _threshold_masks(gens, nvars, strict=True)
    adj = [0] * r
    for i in range(r):
        for j in range(i + 1, r):
            # generators that properly divide lcm(i, j): below it wherever it
            # is nonzero, zero elsewhere
            dividers = (1 << r) - 1
            for t in range(nvars):
                dividers &= less[t][max(gens[i][t], gens[j][t], 1)]
            if not dividers:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    count = 0
    stack = [(1 << r) - 1]
    while stack and count < limit:
        cand = stack.pop()
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            count += 1
            stack.append(cand & adj[v])
    return count


def ideal_text(nvars: int, gens) -> str:
    """The ideal in the CLI's text format: a vars header, one monomial a line."""
    lines = [f"vars: {nvars}"]
    for g in gens:
        parts = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(g) if e]
        lines.append("*".join(parts))
    return "\n".join(lines) + "\n"


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    """Independent stream per (workload, seed, round), so round k's inputs do
    not depend on how many rounds a run reaches."""
    return random.Random(f"{workload}/{seed}/{round_index}")


def fill_slots(targets, draw, size, rng: random.Random, tolerance: float = SIZE_TOLERANCE):
    """Pick one distinct candidate per target size.

    ``draw(rng)`` returns a candidate or None (rejected by shape);
    ``size(candidate)`` its size.  A candidate within ``tolerance`` of an
    open target fills it; after MAX_DRAWS the remaining targets take the
    nearest unused candidates on a log scale.  Returns (candidate, size)
    pairs in target order.
    """
    chosen: list = [None] * len(targets)
    spare = []
    draws = 0
    while draws < MAX_DRAWS and any(c is None for c in chosen):
        draws += 1
        cand = draw(rng)
        if cand is None:
            continue
        s = size(cand)
        for k, t in enumerate(targets):
            if chosen[k] is None and abs(s - t) <= max(tolerance * t, 5):
                chosen[k] = (cand, s)
                break
        else:
            spare.append((cand, s))
    for k, t in enumerate(targets):
        if chosen[k] is None:
            if not spare:
                raise RuntimeError(f"no candidate drawn for size target {t}")
            best = min(spare, key=lambda cs: abs(math.log(max(cs[1], 1) / t)))
            spare.remove(best)
            chosen[k] = best
    return chosen
