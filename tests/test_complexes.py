import random

import pytest
from hypothesis import given, strategies as st

import helpers
from monores import (
    CapExceededError,
    FieldSpec,
    SimpleGraph,
    SimplicialComplex,
    buchberger_complex,
    buchberger_graph,
    clique_complex,
    dismantle,
    f_vector,
    is_connected,
    is_planar,
    minimalize,
    random_ideal,
    IdealRandomSpec,
    scarf_complex,
    subcomplex_dividing,
    taylor_complex,
    lcm_lattice,
    lcm_of,
    open_interval,
    order_complex,
    reduced_homology,
)
from monores.complexes import LabeledComplex, graph_to_dot
from monores.homology import mask_face


def example_ideal():
    return minimalize(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 0, 1)])


def squarefree_example():
    # (xa, yb, zc, xyz) in six variables
    return minimalize(6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (1, 1, 1, 0, 0, 0)])


def facets(complex_):
    out = []
    faces = complex_.face_set()
    for f in faces:
        if not any(f != g and set(f) <= set(g) for g in faces):
            out.append(f)
    return sorted(out)


seeds = st.integers(0, 10_000)


class TestComplexInvariants:
    def test_rejects_unsorted_face(self):
        with pytest.raises(ValueError):
            SimplicialComplex([(2, 1)])

    def test_rejects_open_family(self):
        with pytest.raises(ValueError, match="downward closed"):
            SimplicialComplex([(0, 1)])

    def test_empty_face_always_present(self):
        c = SimplicialComplex([])
        assert c.dim == -1
        assert c.face_set() == {()}

    @given(seeds)
    def test_mask_store_matches_tuple_faces(self, seed):
        faces = helpers.random_face_family(seed, nverts=7, nfacets=5, max_dim=3)
        built = SimplicialComplex(faces)
        from_masks = SimplicialComplex.from_masks(sum(1 << v for v in f) for f in faces if f)
        assert from_masks == built
        assert (len(from_masks), from_masks.dim) == (len(faces), max(map(len, faces)) - 1)
        for k in range(-1, built.dim + 1):
            assert from_masks.faces(k) == built.faces(k) == tuple(
                sorted(f for f in faces if len(f) == k + 1)
            )
        assert list(from_masks.all_faces()) == list(built.all_faces())
        assert from_masks.face_set() == built.face_set() == frozenset(faces)

    def test_size_dimension_and_homology_build_no_tuples(self):
        lattice = lcm_lattice(example_ideal())
        oc = order_complex(open_interval(lattice, lattice.top))
        assert len(oc) > 1 and oc.dim > 0
        assert reduced_homology(oc).trivial
        assert oc._by_dim is None

    @given(seeds)
    def test_labels_monotone(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 5, 4)
        bu = buchberger_complex(ideal)
        for k in range(0, bu.dim + 1):
            for f in bu.faces(k):
                for p in range(len(f)):
                    from monores import divides

                    assert divides(bu.label(f[:p] + f[p + 1:]), bu.label(f))


class TestBuchbergerGraph:
    def test_example_excluded_edge(self):
        graph = buchberger_graph(example_ideal())
        # canonical order: 0=x3^2, 1=x2x4, 2=x2^2, 3=x1x3, 4=x1^2
        assert not helpers.has_edge(graph, 0, 4)
        assert len(graph.edges) == 9

    def test_squarefree_complete(self):
        ideal = squarefree_example()
        graph = buchberger_graph(ideal)
        assert len(graph.edges) == 6

    def test_single_generator(self):
        graph = buchberger_graph(minimalize(2, [(1, 1)]))
        assert graph.vertex_count == 1
        assert not graph.edges


class TestBuchbergerComplex:
    def test_example_facets(self):
        bu = buchberger_complex(example_ideal())
        assert facets(bu) == [(0, 1, 2, 3), (1, 2, 3, 4)]

    def test_example_f_vector(self):
        assert f_vector(buchberger_complex(example_ideal())) == (5, 9, 7, 2)

    def test_squarefree_full_simplex(self):
        ideal = squarefree_example()
        assert buchberger_complex(ideal) == taylor_complex(ideal)

    @given(seeds)
    def test_matches_exhaustive_oracle(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 4)
        assert buchberger_complex(ideal).face_set() == helpers.buchberger_oracle(ideal)

    def test_oracle_on_larger_instance(self):
        # deterministic scan for an instance with at least 10 generators
        index = 0
        while True:
            ideal = random_ideal(IdealRandomSpec(5, 12, 6, "arbitrary", 9000 + index))
            index += 1
            if len(ideal.generators) >= 10:
                break
        assert buchberger_complex(ideal).face_set() == helpers.buchberger_oracle(ideal)

    def test_generator_cap(self):
        ideal = helpers.ideal_from_seed(3, 4, 6, 5)
        with pytest.raises(CapExceededError):
            buchberger_complex(ideal, max_generators=len(ideal.generators) - 1)

    def test_face_cap(self):
        ideal = squarefree_example()
        with pytest.raises(CapExceededError):
            buchberger_complex(ideal, max_faces=7)


class TestScarfComplex:
    def test_squarefree_example_facets(self):
        sc = scarf_complex(squarefree_example())
        assert facets(sc) == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_single_generator(self):
        sc = scarf_complex(minimalize(2, [(1, 1)]))
        assert sc.face_set() == {(), (0,)}

    @given(seeds)
    def test_local_criterion_matches_oracle(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 4)
        assert scarf_complex(ideal).face_set() == helpers.scarf_oracle(ideal)

    def test_oracle_up_to_ten_generators(self):
        index = 0
        while True:
            ideal = random_ideal(IdealRandomSpec(5, 10, 6, "arbitrary", 17000 + index))
            index += 1
            if len(ideal.generators) >= 9:
                break
        assert scarf_complex(ideal).face_set() == helpers.scarf_oracle(ideal)

    def test_one_skeleton_strictly_inside_buchberger_graph(self):
        # every pairwise lcm of (xy, yz, xz) is xyz, so the Buchberger graph
        # is a triangle while no edge survives in the Scarf complex
        ideal = minimalize(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        graph = buchberger_graph(ideal)
        sc = scarf_complex(ideal)
        assert len(graph.edges) == 3
        assert sc.face_set() == {(), (0,), (1,), (2,)}
        assert {tuple(f) for f in sc.faces(1)} <= set(graph.edges)


class TestTaylorAndClique:
    def test_taylor_power_set(self):
        ideal = minimalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(taylor_complex(ideal)) == 8

    def test_taylor_top_label(self):
        ideal = example_ideal()
        taylor = taylor_complex(ideal)
        assert taylor.label(tuple(range(5))) == ideal.top_multidegree()

    def test_taylor_cap(self):
        with pytest.raises(CapExceededError):
            taylor_complex(example_ideal(), max_faces=16)

    def test_triangle_graph_full_simplex(self):
        ideal = minimalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        graph = SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        assert len(clique_complex(graph, ideal)) == 8

    def test_clique_cap_counts_the_empty_face(self):
        ideal = helpers.ideal_from_seed(3, 4, 8, 4)
        graph = buchberger_graph(ideal)
        cl = clique_complex(graph, ideal)
        assert clique_complex(graph, ideal, max_faces=len(cl)) == cl
        with pytest.raises(CapExceededError, match=f"^clique count exceeds cap {len(cl) - 1}$"):
            clique_complex(graph, ideal, max_faces=len(cl) - 1)

    def test_path_graph_has_no_triangle(self):
        ideal = minimalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        graph = SimpleGraph(3, frozenset({(0, 1), (1, 2)}))
        cl = clique_complex(graph, ideal)
        assert cl.dim == 1

    @pytest.mark.parametrize("nvars, ngens, maxdeg", [(3, 6, 3), (4, 8, 4), (5, 10, 5)])
    def test_built_without_validation_are_closed_and_exact(self, nvars, ngens, maxdeg):
        # both builders skip the downward-closure check; re-run it here and
        # compare with brute-force subset scans.  The Buchberger labels are
        # the builder's own, the clique labels are computed on first read;
        # both must be the lcm of the face's generators
        for seed in range(25):
            ideal = helpers.ideal_from_seed(seed, nvars, ngens, maxdeg)
            graph = buchberger_graph(ideal)
            for built, oracle in [
                (buchberger_complex(ideal), helpers.buchberger_oracle(ideal)),
                (clique_complex(graph, ideal), helpers.clique_oracle(graph)),
            ]:
                faces = built.face_set()
                assert SimplicialComplex(faces).face_set() == faces
                assert faces == oracle
                for f in faces:
                    assert built.label(f) == lcm_of([ideal.generators[v] for v in f], nvars)

    @given(seeds)
    def test_inclusion_chain(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        sc = scarf_complex(ideal).face_set()
        bu = buchberger_complex(ideal).face_set()
        cl = clique_complex(buchberger_graph(ideal), ideal).face_set()
        taylor = taylor_complex(ideal).face_set()
        assert sc <= bu <= cl <= taylor


class TestSkeletonAndSubcomplex:
    @given(seeds)
    def test_one_skeleton_is_buchberger_graph(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        edges = set(bu.faces(1))
        assert edges == set(buchberger_graph(ideal).edges)

    def test_subcomplex_top_and_zero(self):
        ideal = example_ideal()
        taylor = taylor_complex(ideal)
        assert subcomplex_dividing(taylor, ideal.top_multidegree()) == taylor
        assert subcomplex_dividing(taylor, (0, 0, 0, 0)).face_set() == {()}

    @given(seeds)
    def test_restriction_identity(self, seed):
        ideal = helpers.ideal_from_seed(seed, 4, 5, 4)
        bu = buchberger_complex(ideal)
        for m in lcm_lattice(ideal).elements:
            sub = subcomplex_dividing(bu, m)
            inner = helpers.restrict(ideal, m)
            renamed = {
                tuple(ideal.generators.index(inner.generators[v]) for v in f)
                for f in buchberger_complex(inner).face_set()
            }
            assert sub.face_set() == renamed

    @given(
        seeds,
        st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4), max_size=4),
    )
    def test_subcomplex_dividing_matches_label_filter(self, seed, extra):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 4)
        degrees = list(lcm_lattice(ideal).elements) + [tuple(m) for m in extra]
        for complex_ in (
            buchberger_complex(ideal), taylor_complex(ideal), scarf_complex(ideal)
        ):
            for m in degrees:
                assert subcomplex_dividing(complex_, m).face_set() == (
                    helpers.subcomplex_dividing_oracle(complex_, m)
                )


def closed_masks(n, edges):
    masks = [1 << v for v in range(n)]
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def nonzero_ranks(homology):
    return {k: r for k, r in enumerate(homology.ranks) if r}


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestDismantle:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cycles_keep_every_vertex(self, n):
        assert dismantle(closed_masks(n, cycle(n))) == (1 << n) - 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_complete_graph_goes_to_its_last_vertex(self, n):
        # lowest index first: each vertex is dominated by every later one
        assert dismantle(closed_masks(n, complete(n))) == 1 << (n - 1)

    def test_tree_goes_to_one_vertex(self):
        tree = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (0, 7)]
        core = dismantle(closed_masks(8, tree))
        assert core.bit_count() == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_cone_over_a_cycle_goes_to_one_vertex(self, n):
        apex = [(v, n) for v in range(n)]
        assert dismantle(closed_masks(n + 1, cycle(n) + apex)).bit_count() == 1

    def test_empty_and_edgeless_graphs(self):
        assert dismantle([]) == 0
        assert dismantle(closed_masks(3, [])) == 0b111

    @given(seeds, st.integers(1, 8), st.floats(0.2, 0.9))
    def test_core_keeps_the_clique_complex_homology(self, seed, n, density):
        rng = random.Random(seed)
        edges = [e for e in complete(n) if rng.random() < density]
        graph = SimpleGraph(n, frozenset(edges))
        masks = closed_masks(n, edges)
        core = dismantle(masks)
        assert core == dismantle(list(masks))  # deterministic, input untouched
        kept = mask_face(core)
        # no vertex of the core is dominated inside it
        for v in kept:
            assert all(masks[v] & core & ~masks[w] for w in kept if w != v)
        full = SimplicialComplex(helpers.clique_oracle(graph))
        inside = full.induced(core)
        assert inside.face_set() == {f for f in full.face_set() if set(f) <= set(kept)}
        for f in (FieldSpec(0), FieldSpec(2)):
            assert nonzero_ranks(reduced_homology(inside, f, collapse=False)) == nonzero_ranks(
                reduced_homology(full, f, collapse=False)
            )


class TestGraphPredicates:
    def test_k5_not_planar(self):
        edges = frozenset((i, j) for i in range(5) for j in range(i + 1, 5))
        assert not is_planar(SimpleGraph(5, edges))

    def test_k4_planar_connected(self):
        edges = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
        graph = SimpleGraph(4, edges)
        assert is_planar(graph)
        assert is_connected(graph)

    def test_disconnected(self):
        assert not is_connected(SimpleGraph(3, frozenset({(0, 1)})))

    def test_edge_bound_shortcut(self):
        # dense graph fails the e <= 3v - 6 bound without running the planarity test
        edges = frozenset((i, j) for i in range(7) for j in range(i + 1, 7))
        assert not is_planar(SimpleGraph(7, edges))

    def test_strongly_generic_three_variables(self):
        for seed in range(20):
            ideal = random_ideal(IdealRandomSpec(3, 5, 8, "strongly-generic", seed))
            graph = buchberger_graph(ideal)
            assert is_planar(graph)
            assert is_connected(graph)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(1, 0)}))


class TestEmission:
    def test_dot_output(self):
        ideal = example_ideal()
        dot = graph_to_dot(buchberger_graph(ideal), ["a", "b", "c", "d", "e"])
        assert dot.startswith("graph ") and dot.rstrip().endswith("}")
        assert dot.count("--") == 9

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledComplex(minimalize(2, [(1, 1)]), [(), (0,), (1,)])
