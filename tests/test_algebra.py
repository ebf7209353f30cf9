import json
import pickle
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import (
    AlgebraContext,
    ContextMismatchError,
    GeneratorMorphism,
    GradingError,
    SeriesParseError,
    apply_morphism,
    apply_operator_series,
    bracket,
    decode,
    encode,
    flow,
    format_element,
    format_element_latex,
    is_primitive,
    weight_component,
)
from dgla.calculus import bch

CTX = AlgebraContext([("a", -1), ("b", -1), ("e", 0), ("f", 0), ("g", 1)], max_weight=6)


def _words_of_degree(degree, max_len=3):
    degrees = [g.degree for g in CTX.generators]
    pool = []
    stack = [((), 0)]
    while stack:
        word, total = stack.pop()
        if word and total == degree:
            pool.append(word)
        if len(word) < max_len:
            for i in range(len(CTX.generators)):
                stack.append((word + (i,), total + degrees[i]))
    return tuple(sorted(pool))


WORDS_BY_DEGREE = {d: _words_of_degree(d) for d in (-2, -1, 0, 1, 2)}
ALL_SMALL_WORDS = tuple(sorted({w for pool in WORDS_BY_DEGREE.values() for w in pool}))


def homogeneous_elements(degree):
    return st.dictionaries(
        st.sampled_from(WORDS_BY_DEGREE[degree]), st.integers(-3, 3), max_size=4
    ).map(CTX.element)


def small_elements():
    return st.dictionaries(
        st.sampled_from(ALL_SMALL_WORDS),
        st.fractions(min_value=-5, max_value=5, max_denominator=48),
        max_size=6,
    ).map(CTX.element)


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AlgebraContext([("a", -1), ("a", 0)])

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            AlgebraContext([("a", -1)], max_weight=0)

    def test_value_equality(self):
        other = AlgebraContext([(g.name, g.degree) for g in CTX.generators], 6)
        assert other == CTX
        assert AlgebraContext([("a", -1)], 6) != CTX

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: AlgebraContext([("", 0)]), ValueError, "generator name must be a nonempty string, got ''"),
            (lambda: AlgebraContext([(1, 0)]), ValueError, "generator name must be a nonempty string, got 1"),
            (lambda: AlgebraContext([("e", "0")]), ValueError, "generator degree must be an integer, got '0'"),
            (lambda: AlgebraContext([("e", True)]), ValueError, "generator degree must be an integer, got True"),
            (lambda: CTX.element({("e", "z"): 1}), KeyError, "no generator named 'z' in this context"),
            (lambda: CTX.element({(0, 5): 1}), ValueError, "generator index 5 out of range"),
            (lambda: CTX.element({(-1,): 1}), ValueError, "generator index -1 out of range"),
            (lambda: CTX.element({("e", 1.0): 1}), TypeError, "word letters must be names or indices, got 1.0"),
            (lambda: CTX.element({(True,): 1}), TypeError, "word letters must be names or indices, got True"),
        ],
    )
    def test_bad_generator_or_letter_rejected(self, build, error, message):
        with pytest.raises(error) as caught:
            build()
        assert caught.value.args[0] == message

    def test_overweight_coefficient_is_zero(self):
        assert CTX.gen("e").coefficient(("e",) * 7) == 0

    def test_repr(self):
        assert repr(CTX) == "AlgebraContext([a:-1, b:-1, e:0, f:0, g:1], max_weight=6)"

    def test_element_drops_overweight_words(self):
        el = CTX.element({("e",) * 7: 1, ("e",): 1})
        assert el == CTX.gen("e")

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            CTX.element({(): 1})

    def test_unknown_name_reported_with_the_context(self):
        for lookup in (CTX.gen, CTX.generator):
            with pytest.raises(KeyError, match="no generator named 'zz' in this context"):
                lookup("zz")

    def test_float_coefficients_rejected(self, circle):
        with pytest.raises(TypeError):
            CTX.element({("e",): 0.5})
        with pytest.raises(TypeError):
            0.5 * CTX.gen("e")
        with pytest.raises(TypeError):
            apply_operator_series([1, 0.5], CTX.gen("e"), CTX.gen("a"))
        e, a = circle.context.gen("e"), circle.context.gen("a")
        for t in (0.5, True):  # -True would pass as the integer -1
            with pytest.raises(TypeError):
                flow(circle, e, a, t)


class TestCombine:
    def test_sum_of_generators(self):
        e, f = CTX.gen("e"), CTX.gen("f")
        assert 1 * e + 1 * f == CTX.element({("e",): 1, ("f",): 1})

    def test_cancellation_gives_zero(self):
        e = CTX.gen("e")
        result = 1 * e + -1 * e
        assert result.is_zero()
        assert not list(result.terms())

    def test_half_difference(self):
        e, f = CTX.gen("e"), CTX.gen("f")
        got = Fraction(1, 2) * e + Fraction(-1, 2) * f
        assert got == CTX.element({("e",): Fraction(1, 2), ("f",): Fraction(-1, 2)})

    def test_context_mismatch(self):
        other = AlgebraContext([("e", 0)], 6)
        with pytest.raises(ContextMismatchError):
            1 * CTX.gen("e") + 1 * other.gen("e")


class TestBracket:
    def test_even_generator_self_bracket_vanishes(self):
        e = CTX.gen("e")
        assert bracket(e, e).is_zero()

    def test_odd_generator_self_bracket(self):
        a = CTX.gen("a")
        got = bracket(a, a)
        assert got == CTX.element({("a", "a"): 2})
        assert got.homogeneous_degree() == -2

    def test_odd_odd_anticommutator(self):
        a, g = CTX.gen("a"), CTX.gen("g")
        assert bracket(a, g) == CTX.element({("a", "g"): 1, ("g", "a"): 1})

    def test_mixed_degree_input_rejected(self):
        with pytest.raises(GradingError):
            bracket(CTX.gen("a") + CTX.gen("e"), CTX.gen("e"))

    def test_zero_is_homogeneous_of_every_degree(self):
        assert bracket(CTX.zero(), CTX.gen("g")).is_zero()

    @settings(deadline=None)
    @given(
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((-1, 0, 1)),
        st.data(),
    )
    def test_graded_antisymmetry(self, p, q, data):
        x = data.draw(homogeneous_elements(p))
        y = data.draw(homogeneous_elements(q))
        sign = Fraction(-1) if (p % 2 and q % 2) else Fraction(1)
        assert (bracket(x, y) + sign * bracket(y, x)).is_zero()

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((-1, 0, 1)),
        st.data(),
    )
    def test_graded_jacobi(self, p, q, r, data):
        x = data.draw(homogeneous_elements(p))
        y = data.draw(homogeneous_elements(q))
        z = data.draw(homogeneous_elements(r))
        sign = Fraction(-1) if (p % 2 and q % 2) else Fraction(1)
        lhs = bracket(x, bracket(y, z))
        rhs = bracket(bracket(x, y), z) + sign * bracket(y, bracket(x, z))
        assert lhs == rhs

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_truncation_coherence(self, data):
        x = data.draw(homogeneous_elements(0))
        y = data.draw(homogeneous_elements(-1))
        full = bracket(x, y)
        for k in range(1, 7):
            pieces = CTX.zero()
            for i in range(1, k):
                xi = weight_component(x, i)
                yj = weight_component(y, k - i)
                if xi and yj:
                    pieces = pieces + bracket(xi, yj)
            assert weight_component(full, k) == pieces


class TestWeightComponent:
    def test_bch_weight_one(self):
        e, f = CTX.gen("e"), CTX.gen("f")
        assert weight_component(bch([e, f]), 1) == e + f

    def test_bounds(self):
        with pytest.raises(ValueError):
            weight_component(CTX.gen("e"), 0)
        with pytest.raises(ValueError):
            weight_component(CTX.gen("e"), 7)


class TestMorphisms:
    def test_involution(self):
        swap = GeneratorMorphism(CTX, {"a": "b", "b": "a", "e": "f", "f": "e"})
        el = CTX.element({("e", "a"): 2, ("g",): Fraction(1, 3)})
        assert apply_morphism(swap, apply_morphism(swap, el)) == el

    def test_signs_multiply_along_words(self):
        flip = GeneratorMorphism(CTX, {"e": "-f", "f": "-e", "g": "-g"})
        word = CTX.element({("e", "f", "g"): 1})
        assert apply_morphism(flip, word) == CTX.element({("f", "e", "g"): -1})

    def test_degree_preservation_enforced(self):
        with pytest.raises(ValueError):
            GeneratorMorphism(CTX, {"e": "g"})

    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            GeneratorMorphism(CTX, {"e": "f"})

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError, match=r"mapping names unknown to the context: \['y', 'z'\]"):
            GeneratorMorphism(CTX, {"z": "e", "y": "f"})
        with pytest.raises(KeyError, match="no generator named 'z' in this context"):
            GeneratorMorphism(CTX, {"e": "-z"})

    def test_foreign_context_rejected(self):
        other = AlgebraContext([("e", 0), ("f", 0)], 6)
        swap = GeneratorMorphism(other, {"e": "f", "f": "e"})
        with pytest.raises(ContextMismatchError, match="morphism and element belong to different contexts"):
            apply_morphism(swap, CTX.gen("e"))

    def test_repr(self):
        assert repr(GeneratorMorphism(CTX, {"e": "-f", "f": "-e"})) == "<GeneratorMorphism e->-f, f->-e>"
        assert repr(GeneratorMorphism(CTX, {"a": "a"})) == "<GeneratorMorphism id>"

    def test_target_must_be_a_name(self):
        with pytest.raises(TypeError, match=r"\(1, 'f'\)"):
            GeneratorMorphism(CTX, {"e": (1, "f"), "f": "e"})

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from((-1, 0, 1)), st.sampled_from((-1, 0, 1)), st.data())
    def test_commutes_with_bracket_and_combine(self, p, q, data):
        x = data.draw(homogeneous_elements(p))
        y = data.draw(homogeneous_elements(q))
        swap = GeneratorMorphism(CTX, {"a": "b", "b": "a", "e": "f", "f": "e"})
        flip = GeneratorMorphism(CTX, {"e": "-f", "f": "-e", "g": "-g"})
        for morphism in (swap, flip):
            mx, my = apply_morphism(morphism, x), apply_morphism(morphism, y)
            assert apply_morphism(morphism, bracket(x, y)) == bracket(mx, my)
            assert apply_morphism(morphism, 3 * x + Fraction(-1, 2) * y) == 3 * mx + Fraction(-1, 2) * my


class TestPrimitivity:
    def test_generators_are_primitive(self):
        assert is_primitive(CTX.gen("e") + CTX.gen("f"), 4)

    def test_bch_output_matches_bracket_expansion(self):
        # oracle: the explicit low-order bracket formula, expanded to words
        e, f = CTX.gen("e"), CTX.gen("f")
        expansion = (
            e
            + f
            + Fraction(1, 2) * bracket(e, f)
            + Fraction(1, 12) * (bracket(e, bracket(e, f)) + bracket(f, bracket(f, e)))
            - Fraction(1, 24) * bracket(e, bracket(f, bracket(e, f)))
        )
        got = bch([e, f])
        for k in range(1, 5):
            assert weight_component(got, k) == weight_component(expansion, k)
        assert is_primitive(got, 4)

    def test_bare_word_is_not_primitive(self):
        assert not is_primitive(CTX.element({("e", "f"): 1}), 2)

    def test_guard(self):
        # every weight up to the truncation is accepted; nothing else
        assert is_primitive(CTX.gen("e"), CTX.max_weight)
        for wmax in (0, CTX.max_weight + 1, True):
            with pytest.raises(ValueError):
                is_primitive(CTX.gen("e"), wmax)


class TestCopying:
    @pytest.mark.parametrize(
        "copy_value", [deepcopy, lambda value: pickle.loads(pickle.dumps(value))], ids=["deepcopy", "pickle"]
    )
    def test_round_trip(self, copy_value):
        e, f = CTX.gen("e"), CTX.gen("f")
        mixed = CTX.element({("a",): Fraction(1, 2), ("e", "f"): 3})
        for value in (CTX, e, CTX.zero(), mixed, bch([e, f])):
            copied = copy_value(value)
            assert copied == value and copied is not value
        # the constructor keeps a carried degree and leaves an unknown one to a scan
        assert copy_value(bch([e, f]))._degree == 0
        with pytest.raises(GradingError):
            copy_value(mixed).homogeneous_degree()


class TestSerialization:
    def test_encode_shape(self):
        el = CTX.element({("e",): Fraction(1, 2), ("f",): Fraction(-1, 2)})
        payload = json.loads(encode(el, label="half-difference"))
        assert payload["order"] == 6
        assert payload["series"]["label"] == "half-difference"
        assert payload["series"]["terms"] == [
            {"coeff": "1/2", "word": ["e"]},
            {"coeff": "-1/2", "word": ["f"]},
        ]

    def test_integer_coefficients_written_over_one(self):
        payload = json.loads(encode(2 * CTX.gen("e")))
        assert payload["series"]["terms"][0]["coeff"] == "2/1"

    def test_canonical_term_order(self):
        el = CTX.element({("f", "e"): 1, ("e",): 1, ("e", "f"): 1})
        words = [t["word"] for t in json.loads(encode(el))["series"]["terms"]]
        assert words == [["e"], ["e", "f"], ["f", "e"]]

    def test_non_canonical_rational_rejected(self):
        el = CTX.gen("e")
        text = encode(el).replace("1/1", "2/2")
        with pytest.raises(SeriesParseError) as info:
            decode(text)
        assert "lowest terms" in str(info.value)
        assert "coeff" in str(info.value.position)

    def test_malformed_json_reports_offset(self):
        with pytest.raises(SeriesParseError) as info:
            decode("{not json")
        assert isinstance(info.value.position, int)

    def test_deep_nesting_rejected(self):
        with pytest.raises(SeriesParseError):
            decode("[" * 100000)

    def test_out_of_order_terms_rejected(self):
        el = CTX.gen("e") + CTX.gen("f")
        payload = json.loads(encode(el))
        payload["series"]["terms"].reverse()
        with pytest.raises(SeriesParseError):
            decode(json.dumps(payload))

    def test_unknown_generator_rejected(self):
        payload = json.loads(encode(CTX.gen("e")))
        payload["series"]["terms"][0]["word"] = ["z"]
        with pytest.raises(SeriesParseError):
            decode(json.dumps(payload))

    def test_zero_round_trips(self):
        assert decode(encode(CTX.zero())) == CTX.zero()

    @settings(deadline=None)
    @given(small_elements())
    def test_round_trip(self, el):
        assert decode(encode(el)) == el


class TestDisplay:
    def test_format_element(self):
        el = CTX.element({("e",): 1, ("e", "f"): Fraction(-1, 2)})
        assert format_element(el) == "e - 1/2 e f"

    def test_format_zero(self):
        assert format_element(CTX.zero()) == "0"

    def test_latex_integer_and_fraction_coefficients(self):
        el = 2 * CTX.gen("e") + Fraction(3, 2) * CTX.gen("a")
        assert format_element_latex(el) == r"\tfrac{3}{2} \, a + 2 \, e"

    def test_repr_truncates_long_elements(self):
        short = CTX.element({("e",): 1, ("e", "f"): Fraction(-1, 2)})
        assert repr(short) == "<AlgebraElement e - 1/2 e f>"
        long = bch([CTX.gen("e"), CTX.gen("f")])
        text = format_element(long)
        assert len(text) > 120
        assert repr(long) == f"<AlgebraElement {text[:117]}...>"


class TestInContext:
    def test_transfer_preserves_terms(self):
        small = AlgebraContext([("a", -1), ("b", -1), ("e", 0), ("f", 0)], 6)
        el = small.element({("e", "a"): Fraction(2, 3)})
        moved = el.in_context(CTX)
        assert moved.coefficient(("e", "a")) == Fraction(2, 3)
        assert moved.in_context(small) == el

    def test_degree_clash_rejected(self):
        other = AlgebraContext([("e", 1)], 6)
        with pytest.raises(ContextMismatchError):
            CTX.gen("e").in_context(other)

    def test_missing_generator_rejected(self):
        other = AlgebraContext([("e", 0)], 6)
        with pytest.raises(ContextMismatchError):
            CTX.gen("f").in_context(other)

    def test_missing_generator_only_in_dropped_words(self):
        # f occurs only at weight 3, above the target's order 2
        lower = AlgebraContext([("e", 0), ("a", -1)], 2)
        el = CTX.element({("e", "a"): Fraction(1, 2), ("e", "f", "a"): 3})
        assert el.in_context(lower) == lower.element({("e", "a"): Fraction(1, 2)})

    def test_missing_generator_in_a_kept_word_rejected(self):
        lower = AlgebraContext([("e", 0), ("a", -1)], 3)
        el = CTX.element({("e", "a"): Fraction(1, 2), ("e", "f", "a"): 3})
        with pytest.raises(ContextMismatchError, match=r"lacks generators \['f'\]"):
            el.in_context(lower)
