import random
import time

import pytest
from hypothesis import given, strategies as st

import helpers
from monores import (
    CapExceededError,
    FieldSpec,
    FinitePoset,
    LcmLattice,
    SimplicialComplex,
    agreement_poset,
    agreement_sets,
    buchberger_complex,
    buchberger_degree_poset,
    crosscut_complex,
    dismantle,
    divides,
    interval_crosscut,
    lcm_lattice,
    minimalize,
    open_interval,
    order_complex,
    reduced_homology,
)
from monores.homology import mask_face
from monores.posets import _divisibility_poset, _interval_elements

seeds = st.integers(0, 10_000)


def example_ideal():
    return minimalize(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 0, 1)])


def xy_ideal():
    # (x^2, xy, y^2)
    return minimalize(2, [(2, 0), (1, 1), (0, 2)])


class TestFinitePoset:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FinitePoset([1, 1], [0b01, 0b11])

    @given(seeds)
    def test_down_masks_match_comparator(self, seed):
        elements = lcm_lattice(helpers.ideal_from_seed(seed, 3, 5, 3)).elements
        poset = _divisibility_poset(3, elements)
        for j, b in enumerate(elements):
            expected = sum(1 << i for i, a in enumerate(elements) if divides(a, b))
            assert poset.down_mask(j) == expected
            assert poset.up_mask(j) == sum(
                1 << i for i, a in enumerate(elements) if divides(b, a)
            )


class TestDivisibilityPosets:
    @given(seeds)
    def test_masks_match_validated_comparator_poset(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 4)
        lattice = lcm_lattice(ideal)
        posets = [buchberger_degree_poset(ideal, lattice=lattice)]
        posets += [open_interval(lattice, m) for m in lattice.elements if any(m)]
        for poset in posets:
            # the comparator poset checks the order axioms on construction
            reference = helpers.comparator_poset(poset.elements, divides)
            indices = range(len(poset))
            assert [poset.up_mask(i) for i in indices] == [
                reference.up_mask(i) for i in indices
            ]
            assert [poset.down_mask(i) for i in indices] == [
                reference.down_mask(i) for i in indices
            ]

    @given(seeds)
    def test_interval_elements_match_scan(self, seed):
        lattice = lcm_lattice(helpers.ideal_from_seed(seed, 4, 6, 4))
        for m in lattice.elements:
            assert _interval_elements(lattice, m) == helpers.interval_elements_oracle(
                lattice, m
            )

    def test_interval_elements_without_bottom(self):
        lattice = LcmLattice(2, [(1, 0), (0, 1), (1, 1)])
        assert _interval_elements(lattice, (1, 1)) == [(0, 1), (1, 0)]
        assert _interval_elements(lattice, (1, 1)) == helpers.interval_elements_oracle(
            lattice, (1, 1)
        )


class TestLcmLattice:
    def test_principal_ideal(self):
        lattice = lcm_lattice(minimalize(1, [(1,)]))
        assert lattice.elements == ((0,), (1,))

    def test_example_contents(self):
        ideal = example_ideal()
        lattice = lcm_lattice(ideal)
        assert (0, 0, 0, 0) in lattice
        for g in ideal.generators:
            assert g in lattice
        assert (2, 0, 2, 0) in lattice

    @given(seeds)
    def test_size_bound_and_join_closure(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        lattice = lcm_lattice(ideal)
        assert len(lattice) <= 2 ** len(ideal.generators)
        elems = lattice.elements
        import random

        rng = random.Random(seed)
        for _ in range(10):
            a, b = rng.choice(elems), rng.choice(elems)
            assert tuple(map(max, a, b)) in lattice

    def test_cap(self):
        ideal = helpers.ideal_from_seed(11, 5, 7, 6)
        with pytest.raises(CapExceededError):
            lcm_lattice(ideal, max_elements=2)


class TestIntervals:
    def test_atom_interval_empty(self):
        ideal = xy_ideal()
        lattice = lcm_lattice(ideal)
        assert len(open_interval(lattice, (2, 0))) == 0

    def test_xy_example(self):
        lattice = lcm_lattice(xy_ideal())
        interval = open_interval(lattice, (2, 2))
        assert set(interval.elements) == {(2, 0), (0, 2), (1, 1), (2, 1), (1, 2)}

    def test_top_interval_size(self):
        ideal = example_ideal()
        lattice = lcm_lattice(ideal)
        assert len(open_interval(lattice, lattice.top)) == len(lattice) - 2

    def test_membership_error(self):
        lattice = lcm_lattice(xy_ideal())
        with pytest.raises(ValueError):
            open_interval(lattice, (9, 9))


class TestBuchbergerDegrees:
    def test_example_excludes_shared_square(self):
        ideal = example_ideal()
        poset = buchberger_degree_poset(ideal)
        assert (2, 0, 2, 0) not in set(poset.elements)
        assert not helpers.is_buchberger_degree(ideal, (2, 0, 2, 0))

    def test_generators_are_degrees(self):
        ideal = example_ideal()
        for g in ideal.generators:
            assert helpers.is_buchberger_degree(ideal, g)

    def test_squarefree_keeps_everything(self):
        ideal = minimalize(6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0),
                               (0, 0, 1, 0, 0, 1), (1, 1, 1, 0, 0, 0)])
        lattice = lcm_lattice(ideal)
        poset = buchberger_degree_poset(ideal, lattice=lattice)
        assert len(poset) == len(lattice) - 1

    @given(seeds)
    def test_matches_membership_predicate(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 5, 4)
        lattice = lcm_lattice(ideal)
        poset_elements = set(buchberger_degree_poset(ideal, lattice=lattice).elements)
        for m in lattice.elements:
            if any(m):
                assert (m in poset_elements) == helpers.is_buchberger_degree(ideal, m)

    @given(seeds)
    def test_is_lower_order_ideal(self, seed):
        # proper divisibility passes down, so no lattice element below a
        # Buchberger degree is left out
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        lattice = lcm_lattice(ideal)
        degrees = set(buchberger_degree_poset(ideal, lattice=lattice).elements)
        for e in degrees:
            for below in lattice.elements:
                if any(below) and divides(below, e):
                    assert below in degrees


class TestAgreementPoset:
    def test_atom_gives_empty_poset(self):
        ideal = xy_ideal()
        assert agreement_sets(ideal, (2, 0)) == ()
        assert len(agreement_poset(2, ())) == 0

    def test_xy_example(self):
        # x^2, xy and y^2 lie under x^2y^2 and agree with it on x, none and y
        sets = agreement_sets(xy_ideal(), (2, 2))
        assert sets == (0b00, 0b01, 0b10)
        poset = agreement_poset(2, sets)
        assert poset.elements == sets
        assert [poset.up_mask(i) for i in range(3)] == [0b111, 0b010, 0b100]

    def test_membership_error(self):
        with pytest.raises(ValueError, match="not an lcm-lattice element"):
            agreement_sets(xy_ideal(), (9, 9))

    @given(seeds, st.integers(3, 5))
    def test_masks_and_order_match_inclusion_comparator(self, seed, nvars):
        ideal = helpers.ideal_from_seed(seed, nvars, 6, 4)
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            if not any(m):
                continue
            poset = agreement_poset(nvars, agreement_sets(ideal, m, lattice=lattice))
            sets = {
                frozenset(i for i, (a, b) in enumerate(zip(e, m)) if a == b)
                for e in helpers.interval_elements_oracle(lattice, m)
            }
            elements = sorted(sets, key=lambda s: (len(s), sum(1 << i for i in s)))
            reference = helpers.comparator_poset(elements, frozenset.issubset)
            assert poset.elements == tuple(sum(1 << i for i in s) for s in elements)
            indices = range(len(poset))
            assert [poset.down_mask(i) for i in indices] == [
                reference.down_mask(i) for i in indices
            ]
            assert [poset.up_mask(i) for i in indices] == [
                reference.up_mask(i) for i in indices
            ]

    @given(seeds)
    def test_homology_matches_interval(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 4, 3)
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            if not any(m) or not helpers.is_buchberger_degree(ideal, m):
                continue
            a = reduced_homology(order_complex(open_interval(lattice, m)))
            sets = agreement_sets(ideal, m, lattice=lattice)
            b = reduced_homology(order_complex(agreement_poset(ideal.nvars, sets)))
            assert _padded_equal(a.ranks, b.ranks)


def _padded_equal(x, y):
    n = max(len(x), len(y))
    return tuple(x) + (0,) * (n - len(x)) == tuple(y) + (0,) * (n - len(y))


def strong_core(poset):
    return dismantle(poset.comparability_masks())


def poset_family(ideal):
    """The degree poset, then every interval and agreement poset, of an ideal."""
    lattice = lcm_lattice(ideal)
    yield buchberger_degree_poset(ideal, lattice=lattice)
    for m in lattice.elements:
        if any(m):
            yield open_interval(lattice, m)
            if helpers.is_buchberger_degree(ideal, m):
                yield agreement_poset(ideal.nvars, agreement_sets(ideal, m, lattice=lattice))


class TestStrongCore:
    def test_restrict_matches_comparator_subposet(self):
        values = [1, 2, 3, 4, 6, 8, 12, 24]
        poset = helpers.comparator_poset(values, lambda a, b: b % a == 0)
        sub = poset.restrict(0b01101110)  # 2, 3, 4, 8, 12
        reference = helpers.comparator_poset([2, 3, 4, 8, 12], lambda a, b: b % a == 0)
        assert sub.elements == reference.elements
        assert [sub.up_mask(i) for i in range(5)] == [reference.up_mask(i) for i in range(5)]
        assert [sub.down_mask(i) for i in range(5)] == [reference.down_mask(i) for i in range(5)]

    def test_unique_maximum_goes_to_a_point(self):
        poset = helpers.comparator_poset([(1, 0), (0, 1), (1, 1)], divides)
        assert strong_core(poset).bit_count() == 1

    @given(seeds, st.integers(2, 8))
    def test_core_keeps_ranks_and_induces_the_chains(self, seed, ngens):
        # the first generators of a larger minimal draw, so 8 are reached
        ideal = minimalize(4, helpers.ideal_from_seed(seed, 4, 24, 4).generators[:ngens])
        for poset in poset_family(ideal):
            core = strong_core(poset)
            chains = order_complex(poset)
            restricted = order_complex(poset.restrict(core))
            # vertex i of the restricted poset is the i-th kept element
            kept = mask_face(core)
            relabeled = {tuple(kept[v] for v in f) for f in restricted.face_set()}
            assert chains.induced(core).face_set() == relabeled
            if len(chains) > 1000:
                continue  # too large for elimination without collapses
            for f in (FieldSpec(0), FieldSpec(2)):
                assert _padded_equal(
                    reduced_homology(restricted, f, collapse=False).ranks,
                    reduced_homology(chains, f, collapse=False).ranks,
                )


class TestIntervalCrosscut:
    @given(seeds, st.integers(2, 8))
    def test_ranks_match_interval_order_complex(self, seed, ngens):
        # the first generators of a larger minimal draw, so 8 are reached
        ideal = minimalize(4, helpers.ideal_from_seed(seed, 4, 24, 4).generators[:ngens])
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            if not any(m):
                continue
            gamma = interval_crosscut(ideal, m)
            SimplicialComplex(gamma.face_set())  # downward closed
            oc = order_complex(open_interval(lattice, m))
            for f in (FieldSpec(0), FieldSpec(2)):
                assert _padded_equal(
                    reduced_homology(gamma, f).ranks, reduced_homology(oc, f).ranks
                )

    def test_faces_are_atom_sets_short_of_m(self):
        gamma = interval_crosscut(xy_ideal(), (2, 2))
        # generators 0..2 are y^2, xy, x^2; only y^2 and x^2 together reach x^2y^2
        assert gamma.face_set() == {(), (0,), (1,), (2,), (0, 1), (1, 2)}

    def test_generator_gives_empty_complex(self):
        ideal = example_ideal()
        for g in ideal.generators:
            assert interval_crosscut(ideal, g).face_set() == {()}

    def test_cap(self):
        with pytest.raises(CapExceededError, match="cap 3"):
            interval_crosscut(xy_ideal(), (2, 2), max_faces=3)

    @pytest.mark.parametrize("m", [(9, 9), (1, 0), (3, 3)])
    def test_membership_error(self, m):
        with pytest.raises(ValueError, match="not an lcm-lattice element"):
            interval_crosscut(xy_ideal(), m)


class TestOrderComplex:
    def test_antichain(self):
        poset = helpers.comparator_poset([(1, 0), (0, 1)], divides)
        oc = order_complex(poset)
        assert oc.dim == 0
        assert len(oc.faces(0)) == 2

    def test_total_order_full_simplex(self):
        poset = helpers.comparator_poset([1, 2, 4, 8], lambda a, b: b % a == 0)
        oc = order_complex(poset)
        assert len(oc) == 16

    def test_unique_maximum_is_acyclic(self):
        poset = helpers.comparator_poset([(1, 0), (0, 1), (1, 1)], divides)
        assert reduced_homology(order_complex(poset)).trivial

    def test_chain_cap(self):
        poset = helpers.comparator_poset(list(range(1, 9)), lambda a, b: a == b or a < b)
        with pytest.raises(CapExceededError):
            order_complex(poset, max_chains=10)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
    def test_chains_match_brute_force(self, values):
        poset = helpers.comparator_poset(values, lambda a, b: b % a == 0)
        assert order_complex(poset).face_set() == helpers.chains_oracle(poset)

    @given(seeds)
    def test_interval_chains_match_brute_force(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 5, 3)
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            interval = open_interval(lattice, m) if any(m) else None
            if interval is not None and len(interval) <= 14:
                assert order_complex(interval).face_set() == helpers.chains_oracle(interval)

    @given(seeds)
    def test_chains_match_brute_force_on_degree_interval_and_agreement_posets(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 3)
        for poset in poset_family(ideal):
            if len(poset) <= 14:
                assert order_complex(poset).face_set() == helpers.chains_oracle(poset)

    @given(seeds)
    def test_chains_match_brute_force_on_restricted_posets(self, seed):
        rng = random.Random(seed)
        lattice = lcm_lattice(helpers.ideal_from_seed(seed, 3, 5, 3))
        poset = open_interval(lattice, lattice.top)
        sub = poset.restrict(rng.getrandbits(len(poset)))
        if len(sub) <= 14:
            assert order_complex(sub).face_set() == helpers.chains_oracle(sub)

    @given(seeds)
    def test_chains_do_not_depend_on_the_index_order(self, seed):
        # the permuted poset's index order is in general no linear extension
        rng = random.Random(seed)
        lattice = lcm_lattice(helpers.ideal_from_seed(seed, 3, 5, 3))
        poset = open_interval(lattice, lattice.top)
        n = len(poset)
        perm = list(range(n))  # old index i becomes perm[i]
        rng.shuffle(perm)
        old = [0] * n
        for i, j in enumerate(perm):
            old[j] = i
        down = [sum(1 << perm[i] for i in mask_face(poset.down_mask(old[j]))) for j in range(n)]
        permuted = FinitePoset([poset.elements[old[j]] for j in range(n)], down)
        chains = order_complex(permuted)
        assert chains.face_set() == {
            tuple(sorted(perm[i] for i in f)) for f in order_complex(poset).face_set()
        }
        if n <= 14:
            assert chains.face_set() == helpers.chains_oracle(permuted)
        total = len(chains)
        assert len(order_complex(permuted, max_chains=total)) == total
        if total > 1:
            with pytest.raises(CapExceededError, match=f"chain count exceeds cap {total - 1}$"):
                order_complex(permuted, max_chains=total - 1)

    def test_cap_is_checked_per_element(self):
        # a Boolean lattice on 12 atoms has 4096 elements and more than 10^11
        # chains; the cap must stop the listing long before a level is done
        sets = tuple(sorted(range(1 << 12), key=lambda s: (s.bit_count(), s)))
        poset = agreement_poset(12, sets)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="chain count exceeds cap 1000$"):
            order_complex(poset, max_chains=1000)
        assert time.perf_counter() - start < 1.0


class TestCrosscut:
    def test_matches_buchberger_complex(self):
        for seed in (0, 5, 17, 99):
            ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
            poset = buchberger_degree_poset(ideal)
            atoms = [poset.index(g) for g in ideal.generators]
            gamma = crosscut_complex(poset, atoms)
            assert gamma.face_set() == buchberger_complex(ideal).face_set()

    def test_singleton(self):
        poset = helpers.comparator_poset([1], lambda a, b: True if a == b else False)
        gamma = crosscut_complex(poset, [0])
        assert gamma.face_set() == {(), (0,)}

    def test_global_maximum_gives_full_simplex(self):
        poset = helpers.comparator_poset(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
            divides,
        )
        gamma = crosscut_complex(poset, [0, 1, 2])
        assert len(gamma) == 8

    def test_rejects_non_antichain(self):
        # 1 and 2 divide 4; 1 also divides 2
        poset = helpers.comparator_poset([1, 2, 4], lambda a, b: b % a == 0)
        for members in ([0, 1], [1, 0], [2, 0], [1, 2]):
            with pytest.raises(ValueError, match="antichain"):
                crosscut_complex(poset, members)

    @given(seeds)
    def test_crosscut_homotopy_rank_equality(self, seed):
        # the crosscut complex of the generators has the same reduced ranks
        # as the order complex of the degree poset it sits in
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        poset = buchberger_degree_poset(ideal)
        atoms = [poset.index(g) for g in ideal.generators]
        gamma_ranks = reduced_homology(crosscut_complex(poset, atoms)).ranks
        order_ranks = reduced_homology(order_complex(poset)).ranks
        n = max(len(gamma_ranks), len(order_ranks))
        pad = lambda t: tuple(t) + (0,) * (n - len(t))
        assert pad(gamma_ranks) == pad(order_ranks)


class TestCapsCountTheEmptyFace:
    # each complex raises once its count, the empty face included, exceeds the
    # cap, so the full count passes and one less raises; order and crosscut
    # complexes count the empty face without a check, so a complex that is
    # only the empty face passes any cap

    @given(seeds)
    def test_order_complex(self, seed):
        lattice = lcm_lattice(helpers.ideal_from_seed(seed, 3, 5, 3))
        poset = open_interval(lattice, lattice.top)
        n = len(order_complex(poset))
        assert len(order_complex(poset, max_chains=n)) == n
        if n == 1:
            assert len(order_complex(poset, max_chains=0)) == 1
            return
        with pytest.raises(CapExceededError, match=f"cap {n - 1}"):
            order_complex(poset, max_chains=n - 1)

    @given(seeds)
    def test_crosscut_complex(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        poset = buchberger_degree_poset(ideal)
        atoms = [poset.index(g) for g in ideal.generators]
        n = len(crosscut_complex(poset, atoms))
        assert len(crosscut_complex(poset, atoms, max_faces=n)) == n
        with pytest.raises(CapExceededError, match=f"cap {n - 1}"):
            crosscut_complex(poset, atoms, max_faces=n - 1)

    @given(seeds)
    def test_interval_crosscut(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 4)
        m = ideal.top_multidegree()
        n = len(interval_crosscut(ideal, m))
        assert len(interval_crosscut(ideal, m, max_faces=n)) == n
        with pytest.raises(CapExceededError, match=f"cap {n - 1}"):
            interval_crosscut(ideal, m, max_faces=n - 1)
