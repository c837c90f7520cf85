"""Host-speed reference used to normalise every time the benchmark reports.

Shared hosts change speed from minute to minute.  On a shared 2-core x86_64
host with CPython 3.11, one ``verify`` op on a fixed ideal took anywhere
from 0.053 s to 0.105 s, while the ratio of that op's time to the time of
the reference kernel below, timed right next to it, stayed within
14.1 +- 0.4.  So every op is bracketed by two
runs of the kernel, and its latency is scaled by REFERENCE_NOMINAL_S over
their mean: reported times are seconds on a host where the kernel takes
REFERENCE_NOMINAL_S.  Raw wall times are kept in the result file.

The kernel is fixed pure-Python code of the same kind as the program's
(tuples, sets, bit masks): it counts lattice chains and Buchberger-graph
cliques of two fixed ideals.  It must not change, or normalised times stop
being comparable across commits.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_NOMINAL_S = 0.004

_CHAIN_GENS = ((0, 5, 9, 5), (0, 11, 1, 2), (2, 8, 3, 11), (4, 2, 8, 6), (5, 7, 0, 7),
               (8, 9, 7, 0), (9, 1, 11, 10))
_CLIQUE_GENS = ((0, 1, 0, 4, 6), (0, 3, 3, 0, 1), (0, 6, 0, 2, 3), (1, 2, 3, 1, 4),
                (1, 4, 0, 3, 0), (2, 1, 3, 5, 0), (2, 2, 1, 6, 1), (3, 2, 4, 0, 0),
                (4, 0, 1, 5, 5), (4, 0, 4, 1, 0), (5, 0, 4, 0, 4), (5, 1, 0, 4, 4),
                (5, 1, 2, 0, 4), (5, 2, 0, 3, 2), (5, 5, 0, 0, 5), (5, 6, 1, 0, 4))


def _chains(gens) -> int:
    elements = {(0,) * len(gens[0])}
    for g in gens:
        elements |= {tuple(map(max, e, g)) for e in elements}
    lattice = sorted(elements, key=lambda e: (sum(e), e))[1:]
    ending_at = []
    total = 0
    for j, x in enumerate(lattice):
        below = 0
        for i in range(j):
            if all(a <= b for a, b in zip(lattice[i], x)):
                below += ending_at[i]
        ending_at.append(1 + below)
        total += below
    return total


def _cliques(gens) -> int:
    r = len(gens)
    adj = [0] * r
    for i in range(r):
        for j in range(i + 1, r):
            lcm = tuple(map(max, gens[i], gens[j]))
            if not any(g != lcm and all((x < y) if y else (x == 0) for x, y in zip(g, lcm))
                       for g in gens):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    count = 0
    stack = [(1 << r) - 1]
    while stack:
        cand = stack.pop()
        while cand:
            low = cand & -cand
            cand ^= low
            count += 1
            stack.append(cand & adj[low.bit_length() - 1])
    return count


def reference_time() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = perf_counter()
    _chains(_CHAIN_GENS)
    _cliques(_CLIQUE_GENS)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel runs into
    reference-normalised seconds."""
    return 2 * REFERENCE_NOMINAL_S / (before + after)
