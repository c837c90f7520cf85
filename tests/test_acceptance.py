"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The 500/200/100-instance corpora are deterministic (fixed master
seeds in conftest) and shared between criteria through session fixtures.
"""

import time

import helpers
from conftest import corpus_conjecture_spec
from monores import (
    FieldSpec,
    IdealRandomSpec,
    betti_from_agreement,
    betti_from_complex,
    betti_from_intervals,
    buchberger_complex,
    buchberger_graph,
    buchberger_minimality,
    clique_complex,
    divides,
    f_vector,
    ibar_extend,
    is_connected,
    is_generic,
    is_minimal_complex,
    is_planar,
    lemma_battery,
    minimalize,
    random_ideal,
    scarf_complex,
    supports_resolution,
    taylor_complex,
)
from monores.cli import FuzzRecord, replay_fuzz_record, run_conjecture_trial
from monores.homology import _boundary_rows
from monores.resolution import _scarf_faces


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def example_ideal():
    return minimalize(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 0, 1)])


def facets(complex_):
    faces = complex_.face_set()
    return sorted(
        f for f in faces if not any(f != g and set(f) <= set(g) for g in faces)
    )


def test_criterion_01_golden_example():
    start = time.perf_counter()
    ideal = example_ideal()
    bu = buchberger_complex(ideal)
    ok = facets(bu) == [(0, 1, 2, 3), (1, 2, 3, 4)]
    ok &= f_vector(bu) == (5, 9, 7, 2)
    ok &= helpers.homogenized_resolution(bu).ranks() == (5, 9, 7, 2)
    ok &= buchberger_minimality(ideal)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"two facets, f-vector (5,9,7,2), ranks 5/9/7/2, minimal, {elapsed:.3f}s")


def test_criterion_02_golden_squarefree_example():
    ideal = minimalize(
        6,
        [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (1, 1, 1, 0, 0, 0)],
    )
    bu = buchberger_complex(ideal)
    sc = scarf_complex(ideal)
    ok = bu == taylor_complex(ideal) and len(bu) == 16
    ok &= facets(sc) == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ok &= supports_resolution(sc, ideal)[0].all_passed
    ok &= is_minimal_complex(sc)
    ok &= not buchberger_minimality(ideal)
    report(2, ok, "Bu = Taylor simplex, Scarf has the 3 facets and resolves minimally")


def test_criterion_03_main_theorem_battery(corpus_500):
    start = time.perf_counter()
    failures = 0
    fields = (FieldSpec(0), FieldSpec(2))
    for ideal, bu, lattice in corpus_500:
        for result in supports_resolution(bu, ideal, fields, lattice=lattice):
            if not result.all_passed:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 600.0
    report(3, ok, f"500 ideals x chars (0, 2): {failures} failures in {elapsed:.1f}s")


def test_criterion_04_betti_triple_agreement(corpus_200):
    mismatches = 0
    for ideal, lattice in corpus_200:
        for characteristic in (0, 2):
            f = FieldSpec(characteristic)
            interval_table = betti_from_intervals(ideal, f, lattice=lattice)
            agreement_table = betti_from_agreement(ideal, f, lattice=lattice)
            if interval_table != agreement_table:
                mismatches += 1
                continue
            if buchberger_minimality(ideal):
                if betti_from_complex(buchberger_complex(ideal)) != interval_table:
                    mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"200 ideals x 2 fields x 3 methods: {mismatches} discrepancies")


def test_criterion_05_minimality_biconditional(corpus_500):
    violations = 0
    for ideal, bu, _ in corpus_500:
        scarf_face_set = set(_scarf_faces(bu))
        minimal = buchberger_minimality(ideal)
        if minimal != (scarf_face_set == bu.face_set()):
            violations += 1
            continue
        if minimal:
            sc = scarf_complex(ideal)
            if not supports_resolution(sc, ideal)[0].all_passed or not is_minimal_complex(sc):
                violations += 1
    ok = violations == 0
    report(5, ok, f"500 ideals: {violations} biconditional violations")


def test_criterion_06_lemma_battery(corpus_500):
    failures = 0
    for ideal, _, _ in corpus_500:
        if not lemma_battery(ideal)[0].all_passed:
            failures += 1
    ok = failures == 0
    report(6, ok, f"500 ideals: {failures} lemma-battery failures")


def test_criterion_07_ibar_proposition(corpus_generic_100):
    failures = 0
    for ideal in corpus_generic_100:
        extended = ibar_extend(ideal, ideal.top_multidegree(), (1,))
        bu = buchberger_complex(extended)
        if set(_scarf_faces(bu)) != bu.face_set() or not is_minimal_complex(bu):
            failures += 1
    ok = failures == 0
    report(7, ok, f"100 generic ideals extended by a fresh variable: {failures} failures")


def test_criterion_08_strong_genericity_pipeline(corpus_strongly_generic):
    failures = 0
    for ideal in corpus_strongly_generic:
        graph = buchberger_graph(ideal)
        good = (
            helpers.is_strongly_generic(ideal)
            and is_generic(ideal)
            and is_planar(graph)
            and is_connected(graph)
            and buchberger_minimality(ideal)
        )
        if not good:
            failures += 1
    ok = failures == 0
    report(8, ok, f"200 strongly generic 3-variable ideals: {failures} failures")


def test_criterion_09_conjecture_campaign(tmp_path):
    fields = tuple(FieldSpec(c) for c in (0, 2, 3, 32003))
    log = tmp_path / "campaign.jsonl"
    counts = {"consistent": 0, "CANDIDATE COUNTEREXAMPLE": 0, "skipped": 0}
    with open(log, "a", encoding="utf-8") as handle:
        for i in range(1000):
            record = run_conjecture_trial(corpus_conjecture_spec(i), fields)
            counts[record.verdict] += 1
            handle.write(record.to_json_line() + "\n")
    not_replayable = 0
    for line in log.read_text().splitlines():
        if not replay_fuzz_record(FuzzRecord.from_json_line(line)):
            not_replayable += 1
    ok = not_replayable == 0
    report(
        9,
        ok,
        f"1000 trials: {counts['consistent']} consistent, "
        f"{counts['CANDIDATE COUNTEREXAMPLE']} candidates, {counts['skipped']} skipped, "
        f"{not_replayable} non-replayable",
    )


def test_criterion_10_structural_property_suites():
    bad = []

    # boundary composition, integer and symbolic
    for seed in range(10):
        complex_faces = helpers.random_face_family(seed)
        from monores import SimplicialComplex

        c = SimplicialComplex(complex_faces)
        maps = [_boundary_rows(c.faces(k - 1), c.faces(k)) for k in range(0, c.dim + 1)]
        for k in range(1, c.dim + 1):
            for row in maps[k - 1]:
                for j in range(len(c.faces(k))):
                    if sum(v * maps[k][m].get(j, 0) for m, v in row.items()) != 0:
                        bad.append(("integer-boundary", seed))
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        if not helpers.homogenized_resolution(buchberger_complex(ideal)).compose_zero():
            bad.append(("symbolic-boundary", seed))

    # Euler characteristic equals the alternating Betti sum
    from monores import SimplicialComplex, reduced_homology

    for seed in range(10):
        c = SimplicialComplex(helpers.random_face_family(seed + 100))
        for characteristic in (0, 2):
            ranks = reduced_homology(c, FieldSpec(characteristic))
            lhs = sum((-1) ** k * len(c.faces(k)) for k in range(-1, c.dim + 1))
            rhs = sum((-1) ** k * ranks.betti(k) for k in range(-1, c.dim + 1))
            if lhs != rhs:
                bad.append(("euler", seed, characteristic))

    # closure, label monotonicity, and the inclusion chain
    for seed in range(20):
        ideal = helpers.ideal_from_seed(seed + 300, 4, 5, 4)
        sc = scarf_complex(ideal)
        bu = buchberger_complex(ideal)
        cl = clique_complex(buchberger_graph(ideal), ideal)
        ty = taylor_complex(ideal)
        if not (sc.face_set() <= bu.face_set() <= cl.face_set() <= ty.face_set()):
            bad.append(("inclusion-chain", seed))
        for c in (sc, bu, cl):
            for k in range(0, c.dim + 1):
                for face in c.faces(k):
                    for p in range(len(face)):
                        sub = face[:p] + face[p + 1:]
                        if sub not in c.face_set() or not divides(c.label(sub), c.label(face)):
                            bad.append(("closure-or-monotonicity", seed))

    # Scarf local criterion against the exhaustive oracle, up to 10 generators
    checked_large_scarf = 0
    index = 0
    while checked_large_scarf < 3 and index < 400:
        ideal = random_ideal(IdealRandomSpec(5, 10, 6, "arbitrary", 52000 + index))
        index += 1
        if len(ideal.generators) < 8:
            continue
        checked_large_scarf += 1
        if scarf_complex(ideal).face_set() != helpers.scarf_oracle(ideal):
            bad.append(("scarf-oracle", index))
    for seed in range(15):
        ideal = helpers.ideal_from_seed(seed + 600, 4, 6, 4)
        if scarf_complex(ideal).face_set() != helpers.scarf_oracle(ideal):
            bad.append(("scarf-oracle-small", seed))

    # Buchberger enumeration against the exhaustive oracle, up to 12 generators
    checked_large_bu = 0
    index = 0
    while checked_large_bu < 2 and index < 400:
        ideal = random_ideal(IdealRandomSpec(5, 12, 6, "arbitrary", 91000 + index))
        index += 1
        if len(ideal.generators) < 10:
            continue
        checked_large_bu += 1
        if buchberger_complex(ideal).face_set() != helpers.buchberger_oracle(ideal):
            bad.append(("buchberger-oracle", index))
    for seed in range(15):
        ideal = helpers.ideal_from_seed(seed + 700, 4, 6, 4)
        if buchberger_complex(ideal).face_set() != helpers.buchberger_oracle(ideal):
            bad.append(("buchberger-oracle-small", seed))

    ok = not bad and checked_large_scarf == 3 and checked_large_bu == 2
    report(10, ok, f"property suites clean (violations: {bad[:5]})")
