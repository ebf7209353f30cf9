"""The integer product, bracket, Leibniz and series kernels against the
per-term ``Fraction`` oracles, on elements whose coefficients mix
denominators across weights, at truncation orders 3 to 6; and the
reduced stored form of the result of every operation."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import (
    AlgebraContext,
    OperatorSeries,
    apply_morphism,
    apply_operator_series,
    bracket,
    build_named_model,
    exp_assoc,
    extend_differential,
    flow,
    log_assoc,
    rotation_morphism,
    weight_component,
)
from oracles import (
    iterative_flow,
    naive_bracket,
    naive_leibniz,
    naive_operator_series,
    naive_product,
)

ORDERS = (3, 4, 5, 6)
BIGON_LETTERS = [("a", -1), ("b", -1), ("e", 0), ("f", 0), ("g", 1)]
CONTEXTS = {order: AlgebraContext(BIGON_LETTERS, max_weight=order) for order in ORDERS}
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 25, 27, 35)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


def assert_canonical(x):
    """No stored zero, no overweight word, every coefficient a Fraction
    in lowest terms with a positive denominator, and ``x`` equal to the
    element rebuilt from its terms: the stored form is the unique one."""
    for word, c in x.terms():
        assert type(c) is Fraction
        assert c != 0
        assert c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
        assert 1 <= len(word) <= x.context.max_weight
    assert x == x.context.element(dict(x.terms()))


@st.composite
def graded_elements(draw, context, degree, weights=None, fractional=None):
    """A degree-``degree`` element; each weight draws its own denominator,
    and each term scales it by a small factor.  With ``fractional=k``
    only the weight-``k`` coefficients may have denominators."""
    degrees = [g.degree for g in context.generators]
    last_letters = {d: [i for i, g in enumerate(degrees) if g == d] for d in set(degrees)}
    per_weight = {
        k: draw(st.sampled_from(DENOMINATORS)) if fractional in (None, k) else 1
        for k in range(1, context.max_weight + 1)
    }
    factors = st.sampled_from((1, 2, 3))
    choices = st.sampled_from(weights) if weights else st.integers(1, context.max_weight)
    terms = {}
    for _ in range(draw(st.integers(0, 7))):
        k = draw(choices)
        head = draw(st.lists(st.integers(0, len(degrees) - 1), min_size=k - 1, max_size=k - 1))
        needed = degree - sum(degrees[i] for i in head)
        if needed not in last_letters:
            continue
        word = tuple(head) + (draw(st.sampled_from(last_letters[needed])),)
        numerator = draw(st.integers(-12, 12))
        factor = draw(factors) if fractional in (None, k) else 1
        terms[word] = Fraction(numerator, per_weight[k] * factor)
    return context.element(terms)


@st.composite
def series_coefficients(draw, top):
    return {
        k: Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))
        for k in range(draw(st.integers(0, top)) + 1)
    }


class TestProductAndBracket:
    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.integers(-1, 1), st.integers(-1, 1), st.data())
    def test_against_oracle(self, order, p, q, data):
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, p))
        y = data.draw(graded_elements(ctx, q))
        for got, expected in ((x * y, naive_product(x, y)), (bracket(x, y), naive_bracket(x, y))):
            assert got == expected
            assert_canonical(got)

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.data())
    def test_weights_at_and_past_the_truncation(self, order, data):
        # weights i and order - i meet the truncation exactly; i and
        # order - i + 1 exceed it by one and must vanish
        ctx = CONTEXTS[order]
        i = data.draw(st.integers(1, order - 1))
        x = data.draw(graded_elements(ctx, 0, weights=[i]))
        y = data.draw(graded_elements(ctx, 0, weights=[order - i, order - i + 1]))
        product = x * y
        assert product == naive_product(x, y)
        assert product.weights() in ((), (order,))
        assert bracket(x, y) == naive_bracket(x, y)

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.integers(-1, 1), st.data())
    def test_zero_operands(self, order, p, data):
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, p))
        zero = ctx.zero()
        for result in (x * zero, zero * x, bracket(x, zero), bracket(zero, x)):
            assert result.is_zero()

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.data())
    def test_cancelling_sums(self, order, data):
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, 0))
        scale = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
        # x (c x) - (c x) x cancels word by word inside one kernel call
        assert bracket(x, scale * x).is_zero()
        assert naive_bracket(x, scale * x).is_zero()


class TestLeibniz:
    @KERNEL_SETTINGS
    @given(
        st.sampled_from(("circle2", "disc1", "bigon-a", "bigon-sym")),
        st.sampled_from(ORDERS),
        st.integers(-1, 1),
        st.data(),
    )
    def test_against_oracle(self, name, order, degree, data):
        model = build_named_model(name, order)
        x = data.draw(graded_elements(model.context, degree))
        got = extend_differential(model, x)
        assert got == naive_leibniz(model, x)
        assert_canonical(got)
        # D^2 = 0: the second application cancels to zero
        assert extend_differential(model, got).is_zero()


class TestOperatorSeries:
    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.integers(-1, 1), st.data())
    def test_against_oracle(self, order, degree, data):
        ctx = CONTEXTS[order]
        direction = data.draw(graded_elements(ctx, 0))
        target = data.draw(graded_elements(ctx, degree))
        coeffs = data.draw(series_coefficients(order))
        got = apply_operator_series(OperatorSeries(coeffs), direction, target)
        assert got == naive_operator_series(coeffs, direction, target)
        assert_canonical(got)

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.data())
    def test_self_direction_cancels(self, order, data):
        # ad_x(x) = 0, so only the constant term survives
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, 0))
        coeffs = data.draw(series_coefficients(order))
        assert apply_operator_series(OperatorSeries(coeffs), x, x) == coeffs[0] * x

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.data())
    def test_log_of_exp_cancels_to_the_input(self, order, data):
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, 0))
        z = exp_assoc(x)
        assert_canonical(z)
        assert log_assoc(z) == x


class TestFlow:
    @KERNEL_SETTINGS
    @given(
        st.sampled_from(("circle2", "bigon-sym")),
        st.sampled_from(ORDERS),
        st.sampled_from((-1, 0)),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.data(),
    )
    def test_against_oracle(self, name, order, degree, t, data):
        model = build_named_model(name, order)
        direction = data.draw(graded_elements(model.context, 0))
        start = data.draw(graded_elements(model.context, degree))
        got = flow(model, direction, start, t)
        assert got == iterative_flow(model, direction, start, t)
        assert_canonical(got)



class TestCanonicalForm:
    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.integers(-1, 1), st.data())
    def test_every_operation_stores_the_reduced_form(self, order, degree, data):
        ctx = CONTEXTS[order]
        fractional = data.draw(st.one_of(st.none(), st.integers(1, order)))
        x = data.draw(graded_elements(ctx, degree, fractional=fractional))
        y = data.draw(graded_elements(ctx, degree, fractional=fractional))
        direction = data.draw(graded_elements(ctx, 0, fractional=fractional))
        scalar = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
        coeffs = data.draw(series_coefficients(order))
        model = build_named_model("bigon-a", order)
        results = [
            x + y,
            x - y,
            x - x,
            -x,
            scalar * x,
            x * 0,
            x * y,
            bracket(x, y),
            bracket(direction, x),
            apply_morphism(rotation_morphism(ctx), x),
            x.in_context(AlgebraContext(BIGON_LETTERS, max_weight=order - 1)),
            exp_assoc(direction),
            log_assoc(x),
            extend_differential(model, x),
            apply_operator_series(OperatorSeries(coeffs), direction, x),
        ]
        results += [weight_component(x, k) for k in range(1, order + 1)]
        for result in results:
            assert_canonical(result)

    @KERNEL_SETTINGS
    @given(st.sampled_from(ORDERS), st.integers(-1, 1), st.data())
    def test_truncation_reduces_the_denominator(self, order, degree, data):
        # every denominator sits on the heaviest words, which the lower
        # order drops: what is left has integer coefficients
        ctx = CONTEXTS[order]
        x = data.draw(graded_elements(ctx, degree, fractional=order))
        lower = x.in_context(AlgebraContext(BIGON_LETTERS, max_weight=order - 1))
        assert all(c.denominator == 1 for _, c in lower.terms())
        assert_canonical(lower)
        assert_canonical(weight_component(x, order))
