"""The verification batteries.

This is where the pieces meet: the support criterion (every subcomplex of
faces dividing a degree must be acyclic), minimality checks, Betti tables
computed three independent ways, and the evidence harness for the clique
complex of the Buchberger graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Face,
    LabeledComplex,
    buchberger_complex,
    buchberger_graph,
    clique_complex,
    dismantle,
    subcomplex_dividing,
    _scarf_faces,
    CLIQUE_CAP,
    FACE_CAP,
    GENERATOR_CAP,
)
from .errors import CapExceededError, NotMinimalError
from .homology import (
    DEFAULT_FIELDS,
    FieldSpec,
    INTEGRAL_CELL_CAP,
    integral_homology,
    is_acyclic,
    mask_face,
    reduced_homology,
)
from .monomials import (
    Multidegree,
    MonomialIdeal,
    divides,
    ibar_extend,
    ideal_to_json_dict,
    is_generic,
    lcm_of,
    properly_divides,
)
from .posets import (
    CHAIN_CAP,
    LATTICE_CAP,
    FinitePoset,
    LcmLattice,
    agreement_poset,
    agreement_sets,
    buchberger_degree_poset,
    crosscut_complex,
    interval_crosscut,
    lcm_lattice,
    open_interval,
    order_complex,
)

EXHAUSTIVE_SUBSET_LIMIT = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: dict | None = None
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def statuses(self) -> dict[str, str]:
        return {c.name: c.status for c in self.checks}

    def to_json_dict(self) -> dict:
        out = []
        for c in self.checks:
            entry: dict = {"name": c.name, "status": c.status}
            if c.reason is not None:
                entry["reason"] = c.reason
            if c.witness is not None:
                entry["witness"] = c.witness
            out.append(entry)
        return {"checks": out, "all_passed": self.all_passed}


def _check(name, ok, witness=None) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", None if ok else witness)


# ---------------------------------------------------------------------------
# support and minimality

def supports_resolution(
    complex_: LabeledComplex,
    ideal: MonomialIdeal,
    fields=(FieldSpec(0),),
    *,
    lattice: LcmLattice | None = None,
    max_lattice: int = LATTICE_CAP,
) -> tuple[VerificationReport, ...]:
    """Check acyclicity of every degree-restricted subcomplex, one report per field.

    Only lcm-lattice degrees need checking: the subcomplex of faces dividing
    m is the one induced on the generators dividing m, and the lcm of those
    generators is a lattice element giving the same subcomplex.
    """
    if lattice is None:
        lattice = lcm_lattice(ideal, max_elements=max_lattice)
    dividing = ideal.divisibility.dividing
    seen: set[int] = set()
    failures: list[list[dict]] = [[] for _ in fields]
    checked = 0
    for m in lattice.elements:
        if not any(m):
            continue
        checked += 1
        key = dividing(m)
        if key in seen:
            continue
        seen.add(key)
        sub = subcomplex_dividing(complex_, m)
        for f, found in zip(fields, failures):
            if not is_acyclic(sub, f):
                ranks = reduced_homology(sub, f)
                found.append({"degree": list(m), "reduced_ranks": list(ranks.ranks)})
    return tuple(
        VerificationReport(
            (
                CheckResult(
                    "subcomplexes-acyclic",
                    "fail" if found else "pass",
                    {"characteristic": f.characteristic, "failures": found[:5]} if found else None,
                    reason=None if found else f"{checked} lattice degrees",
                ),
            )
        )
        for f, found in zip(fields, failures)
    )


def is_minimal_complex(complex_: LabeledComplex) -> bool:
    """No covering pair of faces shares a label.

    Covering pairs suffice: labels divide along inclusions, so a repeated
    label on any comparable pair forces one on some covering pair.
    """
    labels = complex_.labels()
    return not any(
        labels[mask ^ 1 << v] == lab
        for mask, lab in labels.items()
        if mask & (mask - 1)  # faces of dimension 1 and up
        for v in mask_face(mask)
    )


def buchberger_minimality(
    ideal: MonomialIdeal,
    *,
    max_faces: int = FACE_CAP,
    max_generators: int = GENERATOR_CAP,
) -> bool:
    """True when the Scarf and Buchberger complexes coincide."""
    bu = buchberger_complex(ideal, max_faces=max_faces, max_generators=max_generators)
    return set(_scarf_faces(bu)) == bu.face_set()


# ---------------------------------------------------------------------------
# Betti tables

class BettiTable:
    """Finitely supported multigraded Betti numbers."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        self._entries = {
            (int(i), tuple(m)): int(r) for (i, m), r in dict(entries).items() if r
        }

    def rank(self, i: int, m) -> int:
        return self._entries.get((i, tuple(m)), 0)

    def entries(self):
        return sorted(self._entries.items())

    def max_index(self) -> int:
        return max((i for i, _ in self._entries), default=-1)

    def totals(self) -> tuple[int, ...]:
        out = [0] * (self.max_index() + 1)
        for (i, _), r in self._entries.items():
            out[i] += r
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        return f"<BettiTable totals={self.totals()}>"

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"i": i, "degree": list(m), "rank": r} for (i, m), r in self.entries()
            ],
            "totals": list(self.totals()),
        }


def _strong_core(poset: FinitePoset) -> FinitePoset:
    """The subposet left by dismantling the comparability graph.

    The order complex is that graph's clique complex, so the strong
    collapses keep its homotopy type, and every beat point goes with them.
    """
    return poset.restrict(dismantle(poset.comparability_masks()))


def betti_from_complex(complex_: LabeledComplex) -> BettiTable:
    """Count faces per (dimension, label); valid only for minimal complexes."""
    if not is_minimal_complex(complex_):
        raise NotMinimalError("complex has a covering pair with equal labels")
    counts: dict[tuple[int, Multidegree], int] = {}
    for mask, label in complex_.labels().items():
        if mask:
            key = (mask.bit_count() - 1, label)
            counts[key] = counts.get(key, 0) + 1
    return BettiTable(counts)


def betti_from_intervals(
    ideal: MonomialIdeal,
    field: FieldSpec = FieldSpec(0),
    *,
    lattice: LcmLattice | None = None,
    max_lattice: int = LATTICE_CAP,
    max_chains: int = CHAIN_CAP,
) -> BettiTable:
    """Betti numbers from open-interval homology in the lcm-lattice.

    Every chain of each interval is listed, so ``max_chains`` bounds the
    whole order complex; the homology is read on the chains inside the
    interval's strong core, which have the same homotopy type.
    """
    lattice = lattice or lcm_lattice(ideal, max_elements=max_lattice)
    entries: dict[tuple[int, Multidegree], int] = {}
    for m in lattice.elements:
        if not any(m):
            continue
        interval = open_interval(lattice, m)
        chains = order_complex(interval, max_chains=max_chains)
        core = dismantle(interval.comparability_masks())
        ranks = reduced_homology(chains.induced(core), field)
        for i, r in enumerate(ranks.ranks):
            if r:
                entries[(i, m)] = r
    return BettiTable(entries)


def betti_from_agreement(
    ideal: MonomialIdeal,
    field: FieldSpec = FieldSpec(0),
    *,
    lattice: LcmLattice | None = None,
    max_lattice: int = LATTICE_CAP,
    max_chains: int = CHAIN_CAP,
) -> BettiTable:
    """Betti numbers from agreement-poset homology; zero off Buchberger degrees.

    The poset of a degree depends only on its family of agreement sets, so
    each distinct family's homology is read once per call, on the order
    complex of its poset's strong core.
    """
    lattice = lattice or lcm_lattice(ideal, max_elements=max_lattice)
    strictly_dividing = ideal.divisibility.strictly_dividing
    ranks_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    entries: dict[tuple[int, Multidegree], int] = {}
    for m in lattice.elements:
        if not any(m) or strictly_dividing(m):
            continue
        sets = agreement_sets(ideal, m, lattice=lattice)
        ranks = ranks_of.get(sets)
        if ranks is None:
            core = _strong_core(agreement_poset(ideal.nvars, sets))
            chains = order_complex(core, max_chains=max_chains)
            ranks = ranks_of[sets] = reduced_homology(chains, field).ranks
        for i, r in enumerate(ranks):
            if r:
                entries[(i, m)] = r
    return BettiTable(entries)


# ---------------------------------------------------------------------------
# theorem and proposition batteries

def _truncation(m: Multidegree) -> Multidegree:
    return tuple(e - 1 if e else 0 for e in m)


def verify_scarf_equivalence(
    ideal: MonomialIdeal,
    field: FieldSpec = FieldSpec(0),
    *,
    complex_: LabeledComplex | None = None,
    scarf_faces: frozenset[Face] | None = None,
    support: VerificationReport | None = None,
    max_faces: int = FACE_CAP,
) -> VerificationReport:
    """Cross-check the minimality biconditionals.

    Minimality of the Buchberger resolution must agree with the label-based
    criterion (every repeated subset lcm has a properly dividing generator)
    and with the ideal-membership form (every non-Scarf subset's lcm has a
    proper divisor inside the ideal, which reduces to a generator dividing
    the truncated degree).  Both scan all 2^r generator subsets, so above
    ``EXHAUSTIVE_SUBSET_LIMIT`` generators they are reported skipped (the
    Buchberger faces alone cannot witness a failure: no generator properly
    divides their labels).  The Buchberger complex, its Scarf faces and its
    support report over ``field`` are computed here unless the caller
    passes them.
    """
    gens = ideal.generators
    bu = complex_ if complex_ is not None else buchberger_complex(ideal, max_faces=max_faces)
    sc_faces = scarf_faces if scarf_faces is not None else frozenset(_scarf_faces(bu))
    minimal = sc_faces == bu.face_set()

    if len(gens) <= EXHAUSTIVE_SUBSET_LIMIT:
        from itertools import combinations

        label_count: dict[Multidegree, int] = {}
        for k in range(1, len(gens) + 1):
            for subset in combinations(range(len(gens)), k):
                lab = lcm_of([gens[v] for v in subset], ideal.nvars)
                label_count[lab] = label_count.get(lab, 0) + 1
        repeated = [lab for lab, c in label_count.items() if c >= 2]
        criterion = all(
            any(properly_divides(g, lab) for g in gens) for lab in repeated
        )
        membership = all(
            any(divides(g, _truncation(lab)) for g in gens) for lab in repeated
        )
        checks = [
            _check(
                "minimality-biconditional",
                criterion == minimal,
                {"criterion": criterion, "scarf_equals_buchberger": minimal},
            ),
            _check(
                "scarf-membership-lemma",
                membership == minimal,
                {"membership": membership, "scarf_equals_buchberger": minimal},
            ),
        ]
    else:
        reason = (
            f"{len(gens)} generators exceed the exhaustive subset limit "
            f"{EXHAUSTIVE_SUBSET_LIMIT}"
        )
        checks = [
            CheckResult(name, "skipped", reason=reason)
            for name in ("minimality-biconditional", "scarf-membership-lemma")
        ]
    if minimal:
        # equal face sets give equal labels, so the Scarf complex is bu itself
        if support is None:
            (support,) = supports_resolution(bu, ideal, (field,))
        ok = support.all_passed and is_minimal_complex(bu)
        checks.append(_check("scarf-minimal-when-buchberger-minimal", ok,
                             {"ideal": ideal_to_json_dict(ideal)}))
    else:
        checks.append(
            CheckResult(
                "scarf-minimal-when-buchberger-minimal",
                "pass",
                reason="vacuous: Buchberger resolution not minimal",
            )
        )
    return VerificationReport(tuple(checks))


def verify_ibar(
    ideal: MonomialIdeal,
    bound,
    cofactor,
    field: FieldSpec = FieldSpec(0),
    *,
    max_faces: int = FACE_CAP,
    max_lattice: int = LATTICE_CAP,
) -> VerificationReport:
    """For a generic input, the extended ideal must have a minimal Buchberger
    resolution that coincides with its Scarf complex.

    ``max_faces`` bounds the extension's Buchberger complex and
    ``max_lattice`` its lcm-lattice."""
    if not is_generic(ideal):
        return VerificationReport(
            (CheckResult("ibar-extension", "skipped", reason="input ideal is not generic"),)
        )
    extended = ibar_extend(ideal, bound, cofactor)
    bu = buchberger_complex(extended, max_faces=max_faces)
    sc_faces = set(_scarf_faces(bu))
    witness = {"extended": ideal_to_json_dict(extended)}
    return VerificationReport(
        (
            _check("ibar-minimal-labels", is_minimal_complex(bu), witness),
            _check("ibar-scarf-equals-buchberger", sc_faces == bu.face_set(), witness),
            _check(
                "ibar-supports-resolution",
                supports_resolution(
                    bu, extended, (field,), max_lattice=max_lattice
                )[0].all_passed,
                witness,
            ),
        )
    )


def conjecture_evidence(
    ideal: MonomialIdeal,
    fields=DEFAULT_FIELDS,
    *,
    max_faces: int = CLIQUE_CAP,
    integral_cells: int = INTEGRAL_CELL_CAP,
) -> VerificationReport:
    """Homology evidence for contractibility of the Buchberger-graph clique complex.

    Vanishing homology over every requested field plus torsion-free integral
    homology yields a "consistent" verdict; anything else is a candidate
    counterexample with a full witness.  Contractibility itself is never
    claimed.
    """
    if not list(fields):
        raise ValueError("need at least one field")
    try:
        graph = buchberger_graph(ideal)
        cl = clique_complex(graph, ideal, max_faces=max_faces)
    except CapExceededError as exc:
        return VerificationReport(
            (
                CheckResult(
                    "clique-complex",
                    "skipped",
                    witness={"ideal": ideal_to_json_dict(ideal)},
                    reason=str(exc),
                ),
            )
        )
    witness_base = {"ideal": ideal_to_json_dict(ideal)}
    checks = []
    for f in fields:
        ranks = reduced_homology(cl, f)
        checks.append(
            _check(
                f"clique-homology-char-{f.characteristic}",
                ranks.trivial,
                dict(witness_base, reduced_ranks=list(ranks.ranks)),
            )
        )
    try:
        integral = integral_homology(cl, max_cells=integral_cells)
        checks.append(
            _check(
                "clique-integral-homology",
                integral.trivial,
                dict(
                    witness_base,
                    free_ranks=list(integral.ranks),
                    torsion=[list(t) for t in integral.torsion],
                ),
            )
        )
    except CapExceededError as exc:
        checks.append(CheckResult("clique-integral-homology", "skipped", reason=str(exc)))
    return VerificationReport(tuple(checks))


def conjecture_verdict(report: VerificationReport) -> str:
    if any(c.status == "fail" for c in report.checks):
        return "CANDIDATE COUNTEREXAMPLE"
    if all(c.status == "skipped" for c in report.checks):
        return "skipped"
    return "consistent"


def lemma_battery(
    ideal: MonomialIdeal,
    fields=(FieldSpec(0),),
    *,
    complex_: LabeledComplex | None = None,
    lattice: LcmLattice | None = None,
    max_lattice: int = LATTICE_CAP,
    max_chains: int = CHAIN_CAP,
    max_faces: int = FACE_CAP,
) -> tuple[VerificationReport, ...]:
    """Homology-level checks behind the support theorem, one report per field.

    Intervals below degrees with a properly dividing generator are acyclic
    (read on the atom crosscut of [1, m], which ``max_faces`` bounds), the
    degree poset is acyclic (read on the order complex of its strong core,
    which ``max_chains`` bounds), the crosscut complex of the generators
    inside it equals the Buchberger complex, and the Buchberger complex
    itself is acyclic.  Every complex is built once and checked over all
    fields before the next one is built.
    """
    gens = ideal.generators
    if lattice is None:
        lattice = lcm_lattice(ideal, max_elements=max_lattice)
    strictly_dividing = ideal.divisibility.strictly_dividing
    interval_failures: list[list[list[int]]] = [[] for _ in fields]
    for m in lattice.elements:
        if not any(m) or not strictly_dividing(m):
            continue
        gamma = interval_crosscut(ideal, m, max_faces=max_faces)
        for f, found in zip(fields, interval_failures):
            if not is_acyclic(gamma, f):
                found.append(list(m))
    degree_poset = buchberger_degree_poset(ideal, lattice=lattice)
    oc = order_complex(_strong_core(degree_poset), max_chains=max_chains)
    poset_acyclic = [is_acyclic(oc, f) for f in fields]
    bu = complex_ if complex_ is not None else buchberger_complex(ideal, max_faces=max_faces)
    atoms = [degree_poset.index(g) for g in gens]
    crosscut = crosscut_complex(degree_poset, atoms, max_faces=max_faces)
    crosscut_matches = crosscut == bu
    witness = {"ideal": ideal_to_json_dict(ideal)}
    return tuple(
        VerificationReport(
            (
                _check("covered-intervals-acyclic", not found, {"degrees": found[:5]}),
                _check("degree-poset-acyclic", poset_ok, witness),
                _check("crosscut-matches-complex", crosscut_matches, witness),
                _check("complex-acyclic", is_acyclic(bu, f), witness),
            )
        )
        for f, found, poset_ok in zip(fields, interval_failures, poset_acyclic)
    )
