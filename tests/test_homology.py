import random
import time

import pytest
from hypothesis import given, strategies as st

import helpers
from monores import (
    CapExceededError,
    FieldSpec,
    IdealRandomSpec,
    SimplicialComplex,
    buchberger_complex,
    buchberger_graph,
    clique_complex,
    integral_homology,
    is_acyclic,
    lcm_lattice,
    minimalize,
    open_interval,
    order_complex,
    random_ideal,
    reduced_homology,
    subcomplex_dividing,
)
from monores.homology import (
    _boundary_rows,
    _coface_masks,
    _matrix_rank,
    collapsed_core,
    face_mask,
)

seeds = st.integers(0, 10_000)

HOLLOW_TRIANGLE = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
TWO_POINTS = [(0,), (1,)]


def complex_of(faces):
    return SimplicialComplex(helpers.downward_closure(faces))


def sphere(n):
    """Boundary of the (n+1)-simplex."""
    verts = tuple(range(n + 2))
    faces = [verts[:i] + verts[i + 1:] for i in range(n + 2)]
    return complex_of(faces)


class TestFieldSpec:
    def test_accepts_zero_and_primes(self):
        FieldSpec(0)
        FieldSpec(2)
        FieldSpec(32003)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(1)

    def test_large_characteristics_are_decided_promptly(self):
        start = time.perf_counter()
        assert FieldSpec(1000000000000000003).characteristic == 1000000000000000003
        assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
        # a Carmichael number, a strong pseudoprime to the bases 2, 3, 5 and 7,
        # and a product of two primes near 2**31
        for composite in (561, 3215031751, 2147483647 * 2147483629):
            with pytest.raises(ValueError, match="prime"):
                FieldSpec(composite)
        assert time.perf_counter() - start < 1.0

    def test_primality_matches_trial_division(self):
        for n in range(1, 3000):
            prime = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
            try:
                FieldSpec(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == prime, n

    def test_rejects_characteristics_beyond_64_bits(self):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            FieldSpec(2**89 - 1)


class TestBoundaryMatrices:
    def test_single_vertex_augmentation(self):
        assert _boundary_rows([()], [(0,)]) == [{0: 1}]

    def test_hollow_triangle_shape(self):
        c = SimplicialComplex(HOLLOW_TRIANGLE)
        rows = _boundary_rows(c.faces(0), c.faces(1))
        assert len(rows) == 3 and len(c.faces(1)) == 3
        for col in range(3):
            assert sum(row.get(col, 0) for row in rows) == 0

    @given(seeds)
    def test_composition_is_zero(self, seed):
        c = SimplicialComplex(helpers.random_face_family(seed))
        maps = [_boundary_rows(c.faces(k - 1), c.faces(k)) for k in range(0, c.dim + 1)]
        for k in range(1, c.dim + 1):
            lower, upper = maps[k - 1], maps[k]
            for row in lower:
                for j in range(len(c.faces(k))):
                    assert sum(v * upper[m].get(j, 0) for m, v in row.items()) == 0


class TestReducedHomology:
    def test_full_simplex_acyclic(self):
        assert reduced_homology(complex_of([(0, 1, 2, 3)])).trivial

    def test_hollow_triangle_is_circle(self):
        ranks = reduced_homology(SimplicialComplex(HOLLOW_TRIANGLE))
        assert ranks.ranks == (0, 0, 1)

    def test_two_points(self):
        ranks = reduced_homology(SimplicialComplex(TWO_POINTS))
        assert ranks.ranks == (0, 1)

    def test_empty_complex(self):
        ranks = reduced_homology(SimplicialComplex([]))
        assert ranks.ranks == (1,)

    def test_two_sphere(self):
        ranks = reduced_homology(sphere(2))
        assert ranks.ranks == (0, 0, 0, 1)

    def test_projective_plane_field_dependence(self):
        rp2 = SimplicialComplex(helpers.downward_closure(helpers.PROJECTIVE_PLANE_FACETS))
        assert reduced_homology(rp2, FieldSpec(0)).ranks == (0, 0, 0, 0)
        assert reduced_homology(rp2, FieldSpec(2)).ranks == (0, 0, 1, 1)
        assert reduced_homology(rp2, FieldSpec(3)).ranks == (0, 0, 0, 0)

    @given(seeds)
    def test_collapse_does_not_change_ranks(self, seed):
        c = SimplicialComplex(helpers.random_face_family(seed))
        for f in (FieldSpec(0), FieldSpec(2)):
            assert (
                reduced_homology(c, f, collapse=True).ranks
                == reduced_homology(c, f, collapse=False).ranks
            )

    @given(seeds)
    def test_collapse_agrees_on_interval_order_complexes(self, seed):
        # interval order complexes carry genuine homology at Betti degrees
        from monores import lcm_lattice, open_interval, order_complex

        ideal = helpers.ideal_from_seed(seed, 3, 5, 4)
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            if not any(m):
                continue
            oc = order_complex(open_interval(lattice, m))
            assert (
                reduced_homology(oc, collapse=True).ranks
                == reduced_homology(oc, collapse=False).ranks
            )

    @given(seeds)
    def test_matches_fraction_oracle(self, seed):
        faces = helpers.random_face_family(seed, nverts=5, nfacets=4)
        c = SimplicialComplex(faces)
        for characteristic in (0, 2, 3):
            expected = helpers.homology_oracle(faces, characteristic)
            got = reduced_homology(c, FieldSpec(characteristic))
            assert all(got.betti(k) == expected.get(k, 0) for k in range(-1, c.dim + 1))

    @given(seeds)
    def test_euler_characteristic(self, seed):
        faces = helpers.random_face_family(seed)
        c = SimplicialComplex(faces)
        for characteristic in (0, 2):
            ranks = reduced_homology(c, FieldSpec(characteristic))
            combinatorial = sum((-1) ** k * len(c.faces(k)) for k in range(-1, c.dim + 1))
            algebraic = sum((-1) ** k * ranks.betti(k) for k in range(-1, c.dim + 1))
            assert combinatorial == algebraic

    @given(seeds)
    def test_rank_invariance_under_relabeling(self, seed):
        faces = helpers.random_face_family(seed)
        rng = random.Random(seed + 1)
        verts = sorted({v for f in faces for v in f})
        image = list(verts)
        rng.shuffle(image)
        table = dict(zip(verts, image))
        renamed = [tuple(sorted(table[v] for v in f)) for f in faces]
        a = reduced_homology(SimplicialComplex(faces))
        b = reduced_homology(SimplicialComplex(renamed))
        assert a.ranks == b.ranks


class TestIsAcyclic:
    def test_empty_is_acyclic(self):
        assert is_acyclic(SimplicialComplex([]))

    def test_two_points_are_not(self):
        assert not is_acyclic(SimplicialComplex(TWO_POINTS))

    def test_cone_is_acyclic(self):
        base = helpers.random_face_family(4, nverts=4)
        coned = helpers.downward_closure([f + (9,) for f in base if f] + [(9,)])
        assert is_acyclic(SimplicialComplex(coned))


def masks(faces):
    return frozenset(face_mask(f) for f in faces if f)


class TestCollapse:
    def test_collapsible_to_point(self):
        core = collapsed_core(masks(helpers.downward_closure([(0, 1, 2)])))
        assert len(core) == 2 and () in core

    def test_sphere_has_no_free_faces(self):
        faces = sphere(1).face_set()
        assert collapsed_core(masks(faces)) == set(faces)

    def test_empty_face_never_collapsed(self):
        core = collapsed_core(masks({(), (0,)}))
        assert core == {(), (0,)}

    # the mask collapse must leave the same faces as the tuple oracle, not
    # only the same ranks: integral_homology's cell cap reads the core's size

    @given(seeds)
    def test_core_equals_oracle_on_random_families(self, seed):
        faces = helpers.random_face_family(seed, nverts=9, nfacets=8, max_dim=4)
        assert collapsed_core(masks(faces)) == helpers.collapse_oracle(faces)

    @given(seeds, st.integers(2, 8))
    def test_core_equals_oracle_on_interval_order_complexes(self, seed, ngens):
        # the first generators of a larger minimal draw, so 8 are reached
        ideal = minimalize(4, helpers.ideal_from_seed(seed, 4, 24, 4).generators[:ngens])
        lattice = lcm_lattice(ideal)
        for m in lattice.elements:
            if any(m):
                oc = order_complex(open_interval(lattice, m))
                assert oc.core() == helpers.collapse_oracle(oc.face_set())

    @given(seeds)
    def test_core_equals_oracle_on_clique_and_buchberger_complexes(self, seed):
        ideal = helpers.ideal_from_seed(seed, 5, 9, 5)
        cl = clique_complex(buchberger_graph(ideal), ideal)
        assert cl.core() == helpers.collapse_oracle(cl.face_set())
        bu = buchberger_complex(ideal)
        for m in lcm_lattice(ideal).elements:
            sub = subcomplex_dividing(bu, m)
            assert sub.core() == helpers.collapse_oracle(sub.face_set())

    @given(seeds, st.integers(3, 6), st.sampled_from(["arbitrary", "strongly-generic"]))
    def test_clique_coface_masks_equal_the_derived_ones(self, seed, nvars, mode):
        # the clique listing hands each clique's common neighbourhood to the
        # collapse; it must be the coface map derived from the faces, and
        # both routes must leave the oracle's core
        if mode == "arbitrary":
            spec = IdealRandomSpec(nvars, 2 * nvars + 2, 5, mode, seed)
        else:
            spec = IdealRandomSpec(nvars, nvars + 4, nvars + 7, mode, seed)
        ideal = random_ideal(spec)
        cl = clique_complex(buchberger_graph(ideal), ideal)
        faces = masks(cl.face_set())
        handed = cl._cofaces
        assert handed == _coface_masks(faces)
        core = collapsed_core(faces, cofaces=dict(handed))
        assert core == collapsed_core(faces) == helpers.collapse_oracle(cl.face_set())
        assert cl.core() == core
        assert cl._cofaces is None


class TestRankRoutines:
    @given(seeds)
    def test_dense_and_sparse_agree_with_oracle(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        dense = [
            [rng.choice([-2, -1, 0, 0, 1, 1, 3]) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        for p in (0, 2, 5):
            expected = helpers.rank_oracle(dense, p)
            assert _matrix_rank([dict(r) for r in rows], ncols, p) == expected

    def test_wide_matrix_goes_sparse(self):
        rng = random.Random(0)
        ncols = 520
        rows = [
            {c: rng.choice([-1, 1]) for c in rng.sample(range(ncols), 30)}
            for _ in range(40)
        ]
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert _matrix_rank(rows, ncols, 0) == helpers.rank_oracle(dense, 0)


class TestIntegralHomology:
    def test_hollow_triangle(self):
        result = integral_homology(SimplicialComplex(HOLLOW_TRIANGLE))
        assert result.ranks == (0, 0, 1)
        assert result.torsion_free

    def test_full_simplex(self):
        result = integral_homology(complex_of([(0, 1, 2)]))
        assert result.trivial

    def test_projective_plane_torsion(self):
        rp2 = SimplicialComplex(helpers.downward_closure(helpers.PROJECTIVE_PLANE_FACETS))
        result = integral_homology(rp2)
        assert result.ranks == (0, 0, 0, 0)
        assert result.torsion == ((), (), (2,), ())

    @given(seeds)
    def test_universal_coefficients_consistency(self, seed):
        faces = helpers.random_face_family(seed, nverts=5, nfacets=4)
        c = SimplicialComplex(faces)
        result = integral_homology(c)
        if result.torsion_free:
            for characteristic in (0, 2, 3):
                field_ranks = reduced_homology(c, FieldSpec(characteristic))
                assert field_ranks.ranks == result.ranks

    def test_cap(self):
        rp2 = SimplicialComplex(helpers.downward_closure(helpers.PROJECTIVE_PLANE_FACETS))
        with pytest.raises(CapExceededError):
            integral_homology(rp2, max_cells=3)


class TestOnIdealComplexes:
    @given(seeds)
    def test_buchberger_complex_acyclic_over_fields(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        for characteristic in (0, 2, 3):
            assert is_acyclic(bu, FieldSpec(characteristic))
