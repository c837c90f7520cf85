import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import helpers
from monores import (
    FieldSpec,
    LabeledComplex,
    NotMinimalError,
    betti_from_agreement,
    betti_from_complex,
    betti_from_intervals,
    buchberger_complex,
    buchberger_graph,
    buchberger_minimality,
    clique_complex,
    conjecture_evidence,
    conjecture_verdict,
    is_minimal_complex,
    lcm_lattice,
    lemma_battery,
    minimalize,
    parse_ideal,
    random_ideal,
    reduced_homology,
    IdealRandomSpec,
    scarf_complex,
    supports_resolution,
    taylor_complex,
    verify_ibar,
    verify_scarf_equivalence,
)

seeds = st.integers(0, 10_000)

# clique complexes that do not collapse to a point: the octahedron, a
# 2-sphere with no free face, and the second trial of
# `conjecture --vars 5 --gens 30 --maxdeg 6 --trials 2 --seed 7793247015739397264`
OCTAHEDRON_TEXT = "vars: 3\nx3^4\nx1*x2^2*x3^3\nx2^4\nx1^2*x2^3*x3\nx1^3*x2*x3^2\nx1^4\n"
SEED_32_TRIAL = IdealRandomSpec(5, 30, 6, "arbitrary", 9095011457165053181)


def example_ideal():
    return minimalize(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 0, 1)])


def squarefree_example():
    return minimalize(6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (1, 1, 1, 0, 0, 0)])


class TestHomogenizedResolution:
    def test_example_ranks(self):
        res = helpers.homogenized_resolution(buchberger_complex(example_ideal()))
        assert res.ranks() == (5, 9, 7, 2)

    def test_single_generator(self):
        res = helpers.homogenized_resolution(buchberger_complex(minimalize(2, [(1, 1)])))
        assert res.ranks() == (1,)
        assert res.augmentation == ((1, 1),)

    def test_augmentation_is_generator_list(self):
        ideal = example_ideal()
        res = helpers.homogenized_resolution(buchberger_complex(ideal))
        assert res.augmentation == ideal.generators

    @given(seeds)
    def test_symbolic_composition_zero(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        res = helpers.homogenized_resolution(buchberger_complex(ideal))
        assert res.compose_zero()

    @given(seeds)
    def test_entries_have_nonnegative_exponents(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        res = helpers.homogenized_resolution(taylor_complex(ideal))
        for i in range(1, len(res.basis)):
            for _, _, sign, exponents in res.differential(i):
                assert sign in (-1, 1)
                assert all(e >= 0 for e in exponents)


class TestSupportsResolution:
    def test_example_passes(self):
        ideal = example_ideal()
        (report,) = supports_resolution(buchberger_complex(ideal), ideal)
        assert report.all_passed

    def test_squarefree_scarf_passes(self):
        ideal = squarefree_example()
        (report,) = supports_resolution(scarf_complex(ideal), ideal)
        assert report.all_passed

    def test_mutilated_complex_fails_with_witness(self):
        ideal = example_ideal()
        bu = buchberger_complex(ideal)
        top = bu.faces(bu.dim)
        kept = [f for f in bu.all_faces() if f != top[0]]
        broken = LabeledComplex(ideal, kept)
        (report,) = supports_resolution(broken, ideal)
        assert not report.all_passed
        (check,) = report.checks
        assert check.witness["failures"]
        assert check.witness["failures"][0]["degree"]

    def test_fields_checked_together_match_one_at_a_time(self):
        ideal = example_ideal()
        bu = buchberger_complex(ideal)
        top = bu.faces(bu.dim)
        broken = LabeledComplex(ideal, [f for f in bu.all_faces() if f != top[0]])
        fields = (FieldSpec(0), FieldSpec(2), FieldSpec(3))
        for complex_ in (bu, broken):
            together = supports_resolution(complex_, ideal, fields)
            alone = tuple(supports_resolution(complex_, ideal, (f,))[0] for f in fields)
            assert together == alone

    @given(seeds)
    def test_buchberger_always_supports(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        reports = supports_resolution(bu, ideal, (FieldSpec(0), FieldSpec(2)))
        assert len(reports) == 2
        assert all(report.all_passed for report in reports)


class TestMinimality:
    def test_example_is_minimal(self):
        ideal = example_ideal()
        assert is_minimal_complex(buchberger_complex(ideal))
        assert buchberger_minimality(ideal)

    def test_taylor_with_repeated_label(self):
        # {x1^2, x3^2} and {x1^2, x3^2, x1x3} share the label x1^2x3^2
        taylor = taylor_complex(example_ideal())
        assert not is_minimal_complex(taylor)
        # two variables with disjoint supports never repeat a label
        assert is_minimal_complex(taylor_complex(minimalize(2, [(1, 0), (0, 1)])))

    def test_squarefree_example_not_minimal(self):
        assert not buchberger_minimality(squarefree_example())

    def test_single_vertex(self):
        assert is_minimal_complex(buchberger_complex(minimalize(2, [(1, 1)])))

    @given(seeds)
    def test_cross_oracle_agreement(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        assert buchberger_minimality(ideal) == is_minimal_complex(bu)


class TestBettiTables:
    def test_example_totals_all_methods(self):
        ideal = example_ideal()
        complex_table = betti_from_complex(buchberger_complex(ideal))
        interval_table = betti_from_intervals(ideal)
        agreement_table = betti_from_agreement(ideal)
        assert complex_table.totals() == (5, 9, 7, 2)
        assert complex_table == interval_table == agreement_table

    def test_single_generator(self):
        ideal = minimalize(2, [(2, 1)])
        table = betti_from_intervals(ideal)
        assert table.entries() == [((0, (2, 1)), 1)]

    def test_first_column_sits_on_generators(self):
        ideal = example_ideal()
        table = betti_from_intervals(ideal)
        degrees = {m for (i, m), _ in table.entries() if i == 0}
        assert degrees == set(ideal.generators)

    def test_vanishes_off_buchberger_degrees(self):
        ideal = example_ideal()
        lattice = lcm_lattice(ideal)
        table = betti_from_intervals(ideal)
        for (i, m), rank in table.entries():
            assert rank >= 0
            assert m in lattice
            assert helpers.is_buchberger_degree(ideal, m)

    def test_rejects_non_minimal(self):
        with pytest.raises(NotMinimalError):
            betti_from_complex(buchberger_complex(squarefree_example()))

    @given(seeds)
    def test_methods_agree(self, seed):
        from monores import f_vector

        ideal = helpers.ideal_from_seed(seed, 3, 4, 3)
        lattice = lcm_lattice(ideal)
        for characteristic in (0, 2):
            f = FieldSpec(characteristic)
            a = betti_from_intervals(ideal, f, lattice=lattice)
            b = betti_from_agreement(ideal, f, lattice=lattice)
            assert a == b
        if buchberger_minimality(ideal):
            bu = buchberger_complex(ideal)
            assert betti_from_complex(bu) == a
            assert a.totals() == f_vector(bu)

    def test_json_shape(self):
        table = betti_from_intervals(minimalize(2, [(2, 1)]))
        data = table.to_json_dict()
        assert data["totals"] == [1]
        assert data["entries"] == [{"i": 0, "degree": [2, 1], "rank": 1}]

    def test_characteristic_dependence(self):
        # face ideal of the 6-vertex closed surface with Euler characteristic
        # 1: its top-degree syzygies feel the surface's 2-torsion, so the
        # tables over the rationals and over F_2 genuinely differ
        from itertools import combinations

        present = set(helpers.PROJECTIVE_PLANE_FACETS)
        gens = []
        for t in combinations(range(6), 3):
            if t not in present:
                v = [0] * 6
                for i in t:
                    v[i] = 1
                gens.append(tuple(v))
        ideal = minimalize(6, gens)
        assert len(ideal.generators) == 10
        lattice = lcm_lattice(ideal)
        rational = betti_from_intervals(ideal, FieldSpec(0), lattice=lattice)
        mod_two = betti_from_intervals(ideal, FieldSpec(2), lattice=lattice)
        assert rational.totals() == (10, 15, 6)
        assert mod_two.totals() == (10, 15, 7, 1)
        assert betti_from_agreement(ideal, FieldSpec(0), lattice=lattice) == rational
        assert betti_from_agreement(ideal, FieldSpec(2), lattice=lattice) == mod_two


ROADMAP_TABLES = json.loads(
    Path(__file__).with_name("agreement_roadmap_tables.json").read_text()
)


class TestAgreementFamilies:
    """Each distinct family of agreement sets is read once per call."""

    @given(
        seeds,
        st.integers(2, 5),
        st.integers(1, 6),
        st.sampled_from([("arbitrary", 4), ("strongly-generic", 8)]),
    )
    def test_matches_the_oracle_without_lookup(self, seed, nvars, ngens, family):
        mode, maxdeg = family
        ideal = random_ideal(IdealRandomSpec(nvars, ngens, maxdeg, mode, seed))
        lattice = lcm_lattice(ideal)
        for characteristic in (0, 2):
            f = FieldSpec(characteristic)
            assert betti_from_agreement(ideal, f, lattice=lattice) == (
                helpers.agreement_betti_oracle(ideal, f)
            )

    def test_chain_cap_bounds_every_family(self):
        # the cap applies to each family's first degree: the largest core's
        # chain count passes and one less raises
        from monores import CapExceededError, agreement_poset, agreement_sets, order_complex
        from monores.resolution import _strong_core

        ideal = example_ideal()
        lattice = lcm_lattice(ideal)
        dividing = ideal.divisibility.strictly_dividing
        families = {
            agreement_sets(ideal, m, lattice=lattice)
            for m in lattice.elements
            if any(m) and not dividing(m)
        }
        most = max(
            len(order_complex(_strong_core(agreement_poset(ideal.nvars, sets))))
            for sets in families
        )
        expected = betti_from_agreement(ideal, lattice=lattice)
        assert betti_from_agreement(ideal, lattice=lattice, max_chains=most) == expected
        with pytest.raises(CapExceededError, match=f"chain count exceeds cap {most - 1}"):
            betti_from_agreement(ideal, lattice=lattice, max_chains=most - 1)

    @pytest.mark.parametrize("command", sorted(ROADMAP_TABLES))
    def test_roadmap_ideals_keep_their_tables(self, command):
        # 13-14 generators; the tables were computed one degree at a time,
        # with no lookup of families
        nvars, ngens, maxdeg, seed = (int(w) for w in command.split()[2::2])
        ideal = random_ideal(IdealRandomSpec(nvars, ngens, maxdeg, "arbitrary", seed))
        expected = ROADMAP_TABLES[command]
        lattice = lcm_lattice(ideal)
        for characteristic in (0, 2):
            table = betti_from_agreement(ideal, FieldSpec(characteristic), lattice=lattice)
            assert list(table.totals()) == expected["totals"]
            assert [[i, list(m), r] for (i, m), r in table.entries()] == expected["entries"]


class TestScarfEquivalence:
    def test_example(self):
        report = verify_scarf_equivalence(example_ideal())
        assert report.all_passed

    def test_squarefree_example_converse_failure(self):
        ideal = squarefree_example()
        report = verify_scarf_equivalence(ideal)
        assert report.all_passed
        # converse failure: Buchberger resolution is not minimal, yet the
        # Scarf complex still supports a minimal resolution
        assert not buchberger_minimality(ideal)
        sc = scarf_complex(ideal)
        (report,) = supports_resolution(sc, ideal)
        assert report.all_passed
        assert is_minimal_complex(sc)

    @given(seeds)
    def test_random_battery(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        assert verify_scarf_equivalence(ideal).all_passed

    def test_label_checks_skipped_above_the_subset_limit(self):
        gens = helpers.ideal_from_seed(0, 4, 40, 6).generators
        label_checks = ("minimality-biconditional", "scarf-membership-lemma")
        twelve = verify_scarf_equivalence(minimalize(4, gens[:12]))
        assert all(twelve.statuses()[name] == "pass" for name in label_checks)
        report = verify_scarf_equivalence(minimalize(4, gens[:13]))
        assert report.all_passed
        for check in report.checks:
            if check.name in label_checks:
                assert check.status == "skipped"
                assert check.reason == "13 generators exceed the exhaustive subset limit 12"

    @given(seeds)
    def test_minimality_matches_scarf_equality(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        equal = scarf_complex(ideal) == buchberger_complex(ideal)
        assert buchberger_minimality(ideal) == equal


class TestIbar:
    def test_non_generic_skipped(self):
        ideal = minimalize(3, [(1, 1, 0), (0, 1, 1)])
        report = verify_ibar(ideal, (1, 1, 1), (1,))
        assert report.checks[0].status == "skipped"

    def test_single_generator(self):
        ideal = minimalize(2, [(2, 1)])
        report = verify_ibar(ideal, (2, 1), (1,))
        assert report.all_passed

    def test_generic_batch(self):
        found = 0
        index = 0
        while found < 20:
            ideal = random_ideal(IdealRandomSpec(3, 2 + index % 4, 3 + index % 3, "arbitrary", 4000 + index))
            index += 1
            from monores import is_generic

            if not is_generic(ideal):
                continue
            found += 1
            report = verify_ibar(ideal, ideal.top_multidegree(), (1,))
            assert report.all_passed


class TestConjectureEvidence:
    def test_example_consistent(self):
        report = conjecture_evidence(example_ideal())
        assert conjecture_verdict(report) == "consistent"

    def test_squarefree_consistent(self):
        report = conjecture_evidence(squarefree_example())
        assert conjecture_verdict(report) == "consistent"

    def test_strongly_generic_three_variables(self):
        for seed in range(10):
            ideal = random_ideal(IdealRandomSpec(3, 4, 7, "strongly-generic", seed))
            assert conjecture_verdict(conjecture_evidence(ideal)) == "consistent"

    def test_cap_reports_skipped(self):
        report = conjecture_evidence(example_ideal(), max_faces=4)
        assert conjecture_verdict(report) == "skipped"
        assert report.checks[0].reason

    @pytest.mark.parametrize(
        "ideal, faces, core_faces, oracle_field",
        [
            (parse_ideal(OCTAHEDRON_TEXT), 27, 27, FieldSpec(0)),
            # the tuple oracle takes seconds over Q here; the collapse-free
            # path is the check over Q, the oracle the one over F_2
            (random_ideal(SEED_32_TRIAL), 805, 51, FieldSpec(2)),
        ],
        ids=["octahedron", "seed-32-trial"],
    )
    def test_clique_complexes_with_a_2_sphere(self, ideal, faces, core_faces, oracle_field):
        graph = buchberger_graph(ideal)
        cl = clique_complex(graph, ideal)
        assert cl.face_set() == helpers.clique_oracle(graph)
        assert (len(cl), len(cl.core())) == (faces, core_faces)
        assert cl.core() == helpers.collapse_oracle(cl.face_set())
        expected = (0, 0, 0, 1) + (0,) * (cl.dim - 2)
        oracle = helpers.homology_oracle(cl.face_set(), oracle_field.characteristic)
        assert tuple(oracle[k] for k in range(-1, cl.dim + 1)) == expected
        assert reduced_homology(cl, collapse=False).ranks == expected
        for field in (FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(32003)):
            assert reduced_homology(cl, field).ranks == expected
        report = conjecture_evidence(ideal)
        assert [c.status for c in report.checks] == ["fail"] * 5
        assert conjecture_verdict(report) == "CANDIDATE COUNTEREXAMPLE"

    def test_candidate_from_artificial_homology(self):
        # a hollow-square Buchberger graph would be a candidate; simulate by
        # checking the verdict logic on a report with a failing check
        from monores.resolution import CheckResult, VerificationReport

        report = VerificationReport(
            (CheckResult("clique-homology-char-0", "fail", {"x": 1}),)
        )
        assert conjecture_verdict(report) == "CANDIDATE COUNTEREXAMPLE"


class TestLemmaBattery:
    def test_example(self):
        (report,) = lemma_battery(example_ideal())
        assert report.all_passed

    def test_single_generator(self):
        (report,) = lemma_battery(minimalize(3, [(1, 2, 0)]))
        assert report.all_passed

    def test_zero_ideal(self):
        from monores import MonomialIdeal

        (report,) = lemma_battery(MonomialIdeal(2, ()))
        assert report.all_passed

    @given(seeds)
    def test_random_battery(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        fields = (FieldSpec(0), FieldSpec(2))
        reports = lemma_battery(ideal, fields)
        assert all(report.all_passed for report in reports)
        assert reports == tuple(lemma_battery(ideal, (f,))[0] for f in fields)

    def test_example_interval_with_divisor_is_acyclic(self):
        from monores import open_interval, order_complex, reduced_homology

        ideal = example_ideal()
        lattice = lcm_lattice(ideal)
        # x1*x3 properly divides x1^2*x3^2, so that interval must vanish
        assert (2, 0, 2, 0) in lattice
        oc = order_complex(open_interval(lattice, (2, 0, 2, 0)))
        assert reduced_homology(oc).trivial


class TestInclusionWithCliqueComplex:
    @given(seeds)
    def test_buchberger_inside_clique(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        cl = clique_complex(buchberger_graph(ideal), ideal)
        assert bu.face_set() <= cl.face_set()
