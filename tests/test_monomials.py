import random
import warnings

import pytest
from hypothesis import given, strategies as st

import helpers
from monores import (
    GenerationError,
    IdealRandomSpec,
    MonomialIdeal,
    ParseError,
    divides,
    format_ideal,
    ibar_extend,
    is_generic,
    lcm_lattice,
    lcm_of,
    minimalize,
    parse_ideal,
    properly_divides,
    random_ideal,
)
from monores.monomials import (
    DivisibilityIndex,
    DroppedGeneratorsWarning,
    _uniform_vector,
    monomial_to_text,
)

EX_GENERATORS = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 0, 1)]


def example_ideal():
    return minimalize(4, EX_GENERATORS)


vectors = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5)


def pair_of_vectors(draw_len=4):
    return st.tuples(
        st.lists(st.integers(0, 6), min_size=draw_len, max_size=draw_len),
        st.lists(st.integers(0, 6), min_size=draw_len, max_size=draw_len),
    )


class TestDivisibility:
    def test_divides_examples(self):
        assert divides((1, 0), (1, 1))
        assert not divides((2, 0), (1, 1))
        assert divides((0, 0), (3, 5))

    def test_properly_divides_examples(self):
        assert properly_divides((1, 0, 1, 0), (2, 0, 2, 0))
        assert not properly_divides((1,), (1,))
        assert not properly_divides((1, 1), (2, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            divides((1,), (1, 2))
        with pytest.raises(ValueError):
            properly_divides((1, 2, 3), (1, 2))

    @given(pair_of_vectors())
    def test_proper_implies_ordinary_and_strict(self, pair):
        a, b = map(tuple, pair)
        if properly_divides(a, b):
            assert divides(a, b) and a != b

    @given(
        st.tuples(
            st.lists(st.integers(0, 4), min_size=3, max_size=3),
            st.lists(st.integers(0, 4), min_size=3, max_size=3),
            st.lists(st.integers(0, 4), min_size=3, max_size=3),
        )
    )
    def test_proper_divisibility_transitive(self, triple):
        a, b, c = map(tuple, triple)
        if properly_divides(a, b) and properly_divides(b, c):
            assert properly_divides(a, c)


class TestDivisibilityIndex:
    @given(
        st.integers(0, 10_000),
        st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4), max_size=6),
    )
    def test_agrees_with_scans(self, seed, extra):
        ideal = helpers.ideal_from_seed(seed, 4, 6, 5)
        lattice = lcm_lattice(ideal)
        # lattice degrees, drawn degrees with zero entries and exponents up to
        # 9 above the generators' 5, one step above the top, and zero
        queries = set(lattice.elements) | {tuple(q) for q in extra}
        queries.add(tuple(e + 1 for e in ideal.top_multidegree()))
        queries.add((0, 0, 0, 0))
        gens, index = ideal.generators, ideal.divisibility
        for m in queries:
            assert index.dividing(m) == sum(
                1 << i for i, g in enumerate(gens) if divides(g, m)
            )
            assert index.strictly_dividing(m) == sum(
                1 << i for i, g in enumerate(gens) if properly_divides(g, m)
            )

    @given(st.integers(0, 10_000))
    def test_lattice_index_agrees_with_scans(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 5, 4)
        lattice = lcm_lattice(ideal)
        elements, index = lattice.elements, lattice.divisibility
        for m in elements + (tuple(e + 2 for e in ideal.top_multidegree()),):
            assert index.dividing(m) == sum(
                1 << i for i, e in enumerate(elements) if divides(e, m)
            )
            # the documented exception: the zero point, element 0, answers the
            # zero query
            expected = sum(1 << i for i, e in enumerate(elements) if properly_divides(e, m))
            assert index.strictly_dividing(m) == expected | (not any(m))

    def test_built_once_per_ideal(self):
        ideal = example_ideal()
        assert ideal.divisibility is ideal.divisibility
        assert ideal == minimalize(4, EX_GENERATORS)

    def test_no_points(self):
        index = DivisibilityIndex(2, ())
        assert index.dividing((3, 0)) == index.strictly_dividing((0, 0)) == 0


class TestLcm:
    def test_examples(self):
        assert lcm_of([(2, 0), (0, 2)]) == (2, 2)
        assert lcm_of([], nvars=3) == (0, 0, 0)
        assert lcm_of([(1, 2, 0)]) == (1, 2, 0)

    def test_empty_needs_nvars(self):
        with pytest.raises(ValueError):
            lcm_of([])


class TestMinimalize:
    def test_single_variable(self):
        assert minimalize(1, [(1,), (2,)]).generators == ((1,),)

    def test_example_unchanged(self):
        ideal = example_ideal()
        assert len(ideal.generators) == 5
        assert set(ideal.generators) == set(EX_GENERATORS)

    def test_against_oracle(self):
        for seed in range(7, 57):
            rng = random.Random(seed)
            raw = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(seed)]
            raw = [v for v in raw if any(v)]
            raw += raw[: seed // 3]
            assert list(minimalize(4, raw).generators) == helpers.minimalize_oracle(raw)

    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=2, max_size=8))
    def test_non_minimal_error_names_first_pair(self, raw):
        gens = sorted({tuple(v) for v in raw if any(v)})
        # the first pair in row-major order over all ordered pairs i != j
        first = next(
            ((g, h) for i, g in enumerate(gens) for j, h in enumerate(gens)
             if i != j and divides(g, h)),
            None,
        )
        if first is None:
            assert MonomialIdeal(3, tuple(gens)).generators == tuple(gens)
            return
        with pytest.raises(ValueError) as info:
            MonomialIdeal(3, tuple(gens))
        assert str(info.value) == f"{first[0]} divides {first[1]}: not a minimal generating set"

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            minimalize(2, [(0, 0)])
        with pytest.raises(ValueError, match="unit ideal"):
            MonomialIdeal(2, ((0, 0),))

    def test_unit_ideal_rejected_among_others(self):
        with pytest.raises(ValueError, match="unit ideal"):
            minimalize(2, [(1, 2), (0, 0), (3, 0)])

    def test_needs_a_variable(self):
        with pytest.raises(ValueError, match="at least one variable"):
            minimalize(0, [])

    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=0, max_size=12))
    def test_result_passes_constructor_validation(self, raw):
        # minimalize skips the constructor's checks; its result must pass them
        raw = [tuple(v) for v in raw if any(v)]
        ideal = minimalize(3, raw)
        assert MonomialIdeal(3, ideal.generators) == ideal
        assert list(ideal.generators) == helpers.minimalize_oracle(raw)

    def test_zero_ideal_allowed(self):
        assert MonomialIdeal(3, ()).is_zero

    def test_constructor_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, ((1,), (2,)))

    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=12))
    def test_idempotent_and_order_independent(self, raw):
        raw = [tuple(v) for v in raw if any(v)]
        if not raw:
            return
        ideal = minimalize(3, raw)
        assert minimalize(3, ideal.generators) == ideal
        assert minimalize(3, list(reversed(raw))) == ideal


class TestRestrict:
    def test_example(self):
        restricted = helpers.restrict(example_ideal(), (2, 2, 0, 0))
        assert restricted.generators == ((0, 2, 0, 0), (2, 0, 0, 0))

    def test_top_gives_ideal_back(self):
        ideal = example_ideal()
        assert helpers.restrict(ideal, ideal.top_multidegree()) == ideal

    def test_zero_degree_gives_zero_ideal(self):
        assert helpers.restrict(example_ideal(), (0, 0, 0, 0)).is_zero

    @given(st.integers(0, 10_000))
    def test_restrict_idempotent(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 5, 4)
        m = ideal.top_multidegree() if seed % 2 else tuple(e // 2 for e in ideal.top_multidegree())
        once = helpers.restrict(ideal, m)
        assert helpers.restrict(once, m) == once


class TestGenericity:
    def test_squared_maximal_ideal_is_strongly_generic(self):
        # per-variable exponents (2,1,0) and (0,1,2) are pairwise distinct
        # wherever positive, so the definition holds
        ideal = minimalize(2, [(2, 0), (1, 1), (0, 2)])
        assert helpers.is_strongly_generic(ideal)

    def test_two_generator_example(self):
        assert helpers.is_strongly_generic(minimalize(2, [(2, 1), (1, 2)]))

    def test_shared_positive_exponent(self):
        assert not helpers.is_strongly_generic(minimalize(3, [(1, 1, 0), (0, 1, 1)]))

    def test_single_generator(self):
        ideal = minimalize(2, [(3, 1)])
        assert helpers.is_strongly_generic(ideal)
        assert is_generic(ideal)

    def test_generic_counterexample(self):
        assert not is_generic(minimalize(3, [(1, 1, 0), (0, 1, 1)]))

    def test_generic_with_witness(self):
        # x^2y and xy^2 share nothing; adding xy in the middle keeps the pair
        # (x^2y, xy^2) agreeing nowhere, so genericity is vacuous
        assert is_generic(minimalize(2, [(2, 1), (1, 2)]))

    @given(st.integers(0, 10_000))
    def test_strongly_generic_implies_generic(self, seed):
        spec = IdealRandomSpec(3, 4, 7, "strongly-generic", seed)
        ideal = random_ideal(spec)
        assert helpers.is_strongly_generic(ideal)
        assert is_generic(ideal)


class TestIbarExtend:
    def test_single_variable_example(self):
        # (x) + (x^2 y) minimalizes back to (x) in two variables
        ideal = minimalize(1, [(1,)])
        assert ibar_extend(ideal, (1,), (1,)).generators == ((1, 0),)

    def test_zero_ideal(self):
        extended = ibar_extend(MonomialIdeal(2, ()), (0, 0), (1,))
        assert extended.generators == ((0, 1, 1), (1, 0, 1))

    def test_generator_count_without_pure_powers(self):
        # generic, no generator a pure power: all r + n survive
        ideal = minimalize(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        assert is_generic(ideal)
        extended = ibar_extend(ideal, ideal.top_multidegree(), (1,))
        assert len(extended.generators) == len(ideal.generators) + 3

    def test_rejects_bad_bound(self):
        ideal = minimalize(2, [(2, 0)])
        with pytest.raises(ValueError):
            ibar_extend(ideal, (1, 0), (1,))

    def test_rejects_empty_cofactor(self):
        with pytest.raises(ValueError):
            ibar_extend(minimalize(1, [(1,)]), (1,), ())

    @given(st.integers(0, 10_000))
    def test_output_minimal_and_nonzero(self, seed):
        ideal = helpers.ideal_from_seed(seed, 3, 4, 4)
        extended = ibar_extend(ideal, ideal.top_multidegree(), (1,))
        assert all(any(g) for g in extended.generators)
        assert minimalize(extended.nvars, extended.generators) == extended


class TestRandomIdeal:
    def test_deterministic(self):
        spec = IdealRandomSpec(4, 6, 5, "arbitrary", 123)
        assert random_ideal(spec) == random_ideal(spec)

    def test_strongly_generic_postcondition(self):
        spec = IdealRandomSpec(3, 5, 9, "strongly-generic", 5)
        ideal = random_ideal(spec)
        assert helpers.is_strongly_generic(ideal)
        assert len(ideal.generators) == 5

    def test_minimalize_idempotence_over_seeds(self):
        for seed in range(100):
            ideal = random_ideal(IdealRandomSpec(4, 6, 5, "arbitrary", seed))
            assert minimalize(4, ideal.generators) == ideal

    @pytest.mark.parametrize("spec", [
        (4, 8, 12, "arbitrary"), (5, 30, 6, "arbitrary"), (4, 12, 6, "arbitrary"),
        (3, 5, 1, "arbitrary"), (5, 8, 12, "strongly-generic"), (5, 6, 9, "strongly-generic"),
        (4, 6, 6, "strongly-generic"), (6, 14, 20, "strongly-generic"),
    ])
    def test_same_generators_as_frozen_copy(self, spec):
        for seed in range(50):
            full = IdealRandomSpec(*spec, seed=seed)
            assert random_ideal(full).generators == helpers.random_ideal_oracle(full)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 70), st.integers(1, 6))
    def test_uniform_vector_is_the_randint_stream(self, seed, d, nvars):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _uniform_vector(ours, nvars, d) == tuple(
            theirs.randint(0, d) for _ in range(nvars)
        )
        assert ours.getstate() == theirs.getstate()

    def test_retry_budget_exhausted(self):
        # one variable cannot carry two incomparable monomials
        with pytest.raises(GenerationError):
            random_ideal(IdealRandomSpec(1, 2, 5, "strongly-generic", 0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IdealRandomSpec(0, 1, 1)
        with pytest.raises(ValueError):
            IdealRandomSpec(2, 5, 3, "strongly-generic", 0)
        with pytest.raises(ValueError):
            IdealRandomSpec(2, 2, 2, "nonsense", 0)


class TestParsing:
    def test_text_monomial(self):
        ideal = parse_ideal("vars: 3\nx1^2*x3\n")
        assert ideal.generators == ((2, 0, 1),)

    def test_json(self):
        ideal = parse_ideal('{"variables": 4, "generators": [[2, 0, 0, 0]]}')
        assert ideal.generators == ((2, 0, 0, 0),)

    def test_round_trip_example(self):
        ideal = example_ideal()
        assert parse_ideal(format_ideal(ideal, "text")) == ideal
        assert parse_ideal(format_ideal(ideal, "json")) == ideal

    def test_comma_and_whitespace_tokens(self):
        ideal = parse_ideal("vars: 4\nx1^2, x2^2\nx3 x3\nx1*x3, x2*x4\n")
        assert ideal == minimalize(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),
                                       (1, 0, 1, 0), (0, 1, 0, 1)])

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_ideal("x1*x2\n")

    def test_bad_token_position(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("vars: 2\nx1^2*y3\n")
        assert err.value.line == 2
        assert err.value.column == 6

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_ideal("vars: 2\nx3\n")

    def test_json_bad_shape(self):
        with pytest.raises(ParseError):
            parse_ideal('{"variables": 2}')
        with pytest.raises(ParseError):
            parse_ideal('{"variables": 2, "generators": [[1]]}')

    def test_unit_ideal_via_parse(self):
        with pytest.raises(ParseError, match="unit ideal"):
            parse_ideal("vars: 2\n1\n")

    def test_dropped_generator_warning(self):
        with pytest.warns(DroppedGeneratorsWarning):
            parse_ideal("vars: 1\nx1\nx1^2\n")
        with pytest.warns(DroppedGeneratorsWarning):
            parse_ideal('{"variables": 1, "generators": [[1], [2]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_ideal("vars: 1\nx1\n")

    def test_exponent_limit(self):
        big = 2**31 - 1
        with pytest.raises(ParseError):
            parse_ideal(f'{{"variables": 1, "generators": [[{big}]]}}')
        with pytest.raises(ValueError):
            minimalize(1, [(big,)])
        minimalize(1, [(big - 1,)])

    def test_monomial_text(self):
        assert monomial_to_text((2, 0, 1)) == "x1^2*x3"
        assert monomial_to_text((0, 0)) == "1"
