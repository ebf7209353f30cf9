"""The integer product, bracket, Leibniz and series kernels against the
per-term ``Fraction`` oracles, on elements whose coefficients mix
denominators across weights, at truncation orders 3 to 6 (and 8) and in
contexts of 1 to 17 generators (1 to 5 bits per letter of a packed
word); the Lie-membership test against the unshuffle oracle; the JSON
writer against ``json.dumps`` of per-term dicts; the relabelling and
word-text kernels and the degree scan, which read a chunk of letters per
lookup, against per-term oracles at every weight; and the reduced stored
form, and the carried degree, of the result of every operation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import (
    AlgebraContext,
    AlgebraElement,
    GeneratorMorphism,
    GradingError,
    apply_morphism,
    apply_operator_series,
    bch,
    bracket,
    build_named_model,
    decode,
    decode_model,
    encode,
    encode_model,
    exp_assoc,
    extend_differential,
    flow,
    is_primitive,
    log_assoc,
    weight_component,
)
from dgla.algebra import (
    _ad,
    _add_products,
    _ending_in,
    _horner,
    _odd_derivation,
    _right_normed,
    _terms_to_json,
    _terms_using,
)
from dgla.calculus import _edge_series
from dgla.models import MODEL_NAMES
from oracles import (
    dumps_encode,
    dumps_encode_model,
    dumps_terms,
    friedrichs_primitive,
    iterative_flow,
    naive_bch,
    naive_bracket,
    naive_exp,
    naive_in_context,
    naive_leibniz,
    naive_log,
    naive_morphism,
    naive_operator_series,
    naive_power_series,
    naive_product,
)

ORDERS = (3, 4, 5, 6)
# a context takes the first n letters; the counts give 1, 1, 2, 2, 3, 3,
# 4 and 5 bits per letter (the bit length of the largest index, at least
# 1).  The relabelling and word-text tables read c letters per lookup, the
# most with n**c <= 4096 and at most the order: 5, 4, 3 and 2 for 5, 8, 9
# and 17 letters, the order for fewer.
# Past the ninth letter no degree is -1, 0 or 1, so that powers of a drawn
# element stay small.
LETTERS = [("e", 0), ("a", -1), ("g", 1), ("f", 0), ("b", -1), ("h", 0), ("c", -1), ("k", 2), ("m", 0)]
LETTERS += [("n", 2), ("p", -2), ("r", 3), ("s", -3), ("t", 2), ("u", -2), ("w", 4), ("y", -4)]
LETTER_COUNTS = (1, 2, 3, 4, 5, 8, 9, 17)
CONTEXTS = {
    (n, order): AlgebraContext(LETTERS[:n], max_weight=order)
    for n in LETTER_COUNTS
    for order in ORDERS
}
# words of two or more whole chunks after the leading letters
CONTEXTS.update({(n, 8): AlgebraContext(LETTERS[:n], max_weight=8) for n in (9, 17)})
contexts = st.sampled_from(sorted(CONTEXTS)).map(CONTEXTS.__getitem__)
# the same contexts with names that JSON escapes or that are not ASCII
ESCAPED_NAMES = ("é", 'a"b', "x\\y", "∂", "\t", "h", "c", "k", "m", "n", "ρ", "r", "/", "t", "ü", "\u2028", "y")
ESCAPED_CONTEXTS = {
    (n, order): AlgebraContext([(name, d) for name, (_, d) in zip(ESCAPED_NAMES, LETTERS[:n])], order)
    for n, order in CONTEXTS
}
named_contexts = st.sampled_from(sorted(CONTEXTS)).flatmap(
    lambda key: st.sampled_from((CONTEXTS[key], ESCAPED_CONTEXTS[key]))
)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 25, 27, 35)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


def assert_canonical(x):
    """No stored zero, no overweight word, every coefficient a Fraction
    in lowest terms with a positive denominator, terms in canonical
    order, and ``x`` equal to the element rebuilt from its terms and to
    its decoded encoding: the stored form is the unique one."""
    terms = list(x.terms())
    for word, c in terms:
        assert type(c) is Fraction
        assert c != 0
        assert c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
        assert 1 <= len(word) <= x.context.max_weight
        assert all(0 <= letter < len(x.context.generators) for letter in word)
    words = [word for word, _ in terms]
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert x == x.context.element(dict(terms))
    assert decode(encode(x)) == x
    if x._degree is not None:  # a carried degree is the one a scan of a fresh copy finds
        assert x._degree == AlgebraElement(x.context, x._buckets, x._den).homogeneous_degree()


def snapshot(x):
    """Copies of the stored denominator and buckets of ``x``."""
    return x._den, [dict(bucket) for bucket in x._buckets]


def signed_shuffle(context):
    """A morphism mapping: reverse the generators of each degree,
    negating every other one."""
    by_degree = {}
    for g in context.generators:
        by_degree.setdefault(g.degree, []).append(g.name)
    mapping = {}
    for names in by_degree.values():
        for i, name in enumerate(names):
            mapping[name] = ("-" if i % 2 else "") + names[-1 - i]
    return mapping


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
def lie_candidates(draw, context):
    """A sum of one to three pieces, each a nested bracket of generators,
    a bare word, or the square of such a bracket (a Lie element exactly
    when the bracket is odd: ``y y = 1/2 [y, y]``), scaled by a rational.
    The pieces may differ in degree and parity."""
    gens = [context.gen(name) for name in context.names]

    def nested(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(gens))
        return bracket(nested(depth - 1), nested(depth - 1))

    total = context.zero()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("bracket", "bracket", "word", "square")))
        if kind == "bracket":
            piece = nested(4)
        elif kind == "word":
            letters = st.sampled_from(context.names)
            word = draw(st.lists(letters, min_size=1, max_size=context.max_weight))
            piece = context.element({tuple(word): 1})
        else:
            piece = nested(2)
            piece = piece * piece
        numerator = draw(st.integers(-6, 6).filter(bool))
        total = total + Fraction(numerator, draw(st.sampled_from(DENOMINATORS))) * piece
    return total


@st.composite
def series_coefficients(draw, top):
    return [
        Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))
        for _ in range(draw(st.integers(0, top)) + 1)
    ]


class TestProductAndBracket:
    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.integers(-1, 1), st.data())
    def test_against_oracle(self, ctx, p, q, data):
        x = data.draw(graded_elements(ctx, p))
        y = data.draw(graded_elements(ctx, q))
        for got, expected in ((x * y, naive_product(x, y)), (bracket(x, y), naive_bracket(x, y))):
            assert got == expected
            assert_canonical(got)

    @KERNEL_SETTINGS
    @given(contexts, st.data())
    def test_weights_at_and_past_the_truncation(self, ctx, data):
        # weights i and order - i meet the truncation exactly; i and
        # order - i + 1 exceed it by one and must vanish
        order = ctx.max_weight
        i = data.draw(st.integers(1, order - 1))
        x = data.draw(graded_elements(ctx, 0, weights=[i]))
        y = data.draw(graded_elements(ctx, 0, weights=[order - i, order - i + 1]))
        product = x * y
        assert product == naive_product(x, y)
        assert product.weights() in ((), (order,))
        assert bracket(x, y) == naive_bracket(x, y)

    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.data())
    def test_zero_operands(self, ctx, p, data):
        x = data.draw(graded_elements(ctx, p))
        zero = ctx.zero()
        for result in (x * zero, zero * x, bracket(x, zero), bracket(zero, x)):
            assert result.is_zero()

    @KERNEL_SETTINGS
    @given(contexts, st.data())
    def test_cancelling_sums(self, ctx, data):
        x = data.draw(graded_elements(ctx, 0))
        scale = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
        # x (c x) - (c x) x cancels word by word inside one kernel call
        assert bracket(x, scale * x).is_zero()
        assert naive_bracket(x, scale * x).is_zero()


class TestLieMembership:
    @settings(max_examples=150, deadline=None)
    @given(contexts, st.data())
    def test_against_the_unshuffle_oracle(self, ctx, data):
        x = data.draw(lie_candidates(ctx))
        for wmax in range(1, min(ctx.max_weight, 5) + 1):
            assert is_primitive(x, wmax) == friedrichs_primitive(x, wmax)


class TestJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(named_contexts, st.sampled_from(("series", 'Dg "∂"\\\t')), st.data())
    def test_encode_against_the_dumps_oracle(self, ctx, label, data):
        # each weight draws its own denominator; the sum of two degrees
        # is not homogeneous, and the zero element writes an empty list
        x = data.draw(graded_elements(ctx, 0)) + data.draw(graded_elements(ctx, -1))
        for element in (x, ctx.zero()):
            assert encode(element, label=label) == dumps_encode(element, label)
            assert _terms_to_json(element) == dumps_terms(element)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_every_model_against_the_dumps_oracle(self, order):
        for name in MODEL_NAMES:
            model = build_named_model(name, order)
            text = encode_model(model, name)
            assert text == dumps_encode_model(model, name)
            assert decode_model(text) == (name, model)
            for dg in model.differential.values():
                assert decode(encode(dg)) == dg


class TestLeibniz:
    @KERNEL_SETTINGS
    @given(
        st.sampled_from(("point", "interval", "circle2", "disc1", "bigon-a", "bigon-sym")),
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

    @settings(max_examples=6, deadline=None)
    @given(st.integers(-1, 1), st.data())
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_words_ending_in_a_letter_set(self, name, order, degree, data):
        # asked for the words that end in the vertices (or in any drawn
        # letter set), the kernel writes those of the full Leibniz rule, at
        # every truncation; the degrees -1, 0 and 1 put odd letters (the
        # vertices and g) before the last letter, where their signs count
        model = build_named_model(name, order)
        ctx = model.context
        vertices = {g.index for g in ctx.generators if g.degree == -1}
        drawn = data.draw(st.sets(st.sampled_from(range(len(ctx.generators)))))
        x = data.draw(graded_elements(ctx, degree))
        for ending in (vertices, drawn):
            for top in range(1, order + 1):
                got = _odd_derivation(x, model.differential, top, ending)
                assert got == _ending_in(_odd_derivation(x, model.differential, top), ending)
            assert_canonical(got)


class TestOperatorSeries:
    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.data())
    def test_against_oracle(self, ctx, degree, data):
        direction = data.draw(graded_elements(ctx, 0))
        target = data.draw(graded_elements(ctx, degree))
        coeffs = data.draw(series_coefficients(ctx.max_weight))
        got = apply_operator_series(coeffs, direction, target)
        assert got == naive_operator_series(coeffs, direction, target)
        assert_canonical(got)

    @KERNEL_SETTINGS
    @given(contexts, st.data())
    def test_self_direction_cancels(self, ctx, data):
        # ad_x(x) = 0, so only the constant term survives
        x = data.draw(graded_elements(ctx, 0))
        coeffs = data.draw(series_coefficients(ctx.max_weight))
        assert apply_operator_series(coeffs, x, x) == coeffs[0] * x

    @KERNEL_SETTINGS
    @given(contexts, st.data())
    def test_log_of_exp_cancels_to_the_input(self, ctx, data):
        x = data.draw(graded_elements(ctx, 0))
        z = exp_assoc(x)
        assert_canonical(z)
        assert log_assoc(z) == x


class TestFlow:
    @KERNEL_SETTINGS
    @given(
        st.sampled_from(("circle2", "bigon-sym")),
        st.sampled_from(ORDERS),
        st.sampled_from((-2, -1, 0, 1)),
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


class TestHorner:
    """The Horner kernel behind every truncated series: each result
    against the power-by-power oracles at every supported order, the
    coefficients it may skip, and the weight each inner sum is cut to."""

    @pytest.mark.parametrize("order", range(1, 11))
    def test_against_the_power_oracles(self, order):
        circle = build_named_model("circle2", order)
        ctx = circle.context
        e, f, a = ctx.gen("e"), ctx.gen("f"), ctx.gen("a")
        x = Fraction(2, 3) * e - Fraction(1, 5) * bracket(e, f)
        half = Fraction(1, 2)
        # T/(1 - e^T) has a zero at every odd power from 3 on
        edge = _edge_series(1, order)
        for got, expected in (
            (exp_assoc(x), naive_exp(x)),
            (log_assoc(x), naive_log(x)),
            (bch([x, f]), naive_bch([x, f])),
            (apply_operator_series(edge, x, a), naive_operator_series(edge, x, a)),
            (flow(circle, x, a, half), iterative_flow(circle, x, a, half)),
        ):
            assert got == expected
            assert_canonical(got)

    def test_several_tables(self):
        # one pass per table, each from its own last nonzero coefficient
        ctx = AlgebraContext([("e", 0), ("f", 0)], 7)
        z = ctx.gen("e") + Fraction(3, 4) * ctx.gen("f") * ctx.gen("e")
        tables = [
            [Fraction(c, 3) for c in table] for table in ([0, 0, 0], [1, 0, 2, 0, 0], [0, 5, 0, 0, 0, 0, 1, 4, 4])
        ]
        for table in tables:
            assert _horner(z, z, table, _add_products) == naive_power_series(table, z)

    @pytest.mark.parametrize("lowest", (2, 3, 5))
    def test_start_above_weight_one(self, lowest, monkeypatch):
        # S^k(start) has weight at least lowest + k, so the sum takes only
        # order - lowest steps however long the table is
        ctx = AlgebraContext([("e", 0), ("f", 0)], 7)
        e, f = ctx.gen("e"), ctx.gen("f")
        start = f
        for _ in range(lowest - 1):
            start = bracket(e, start)
        start = start + Fraction(1, 3) * bracket(f, start)
        direction = e - Fraction(1, 2) * bracket(e, f)
        table = [Fraction(1, k + 1) for k in range(12)]
        calls = []
        monkeypatch.setattr("dgla.calculus._ad", lambda *args: calls.append(args) or _ad(*args))
        got = apply_operator_series(table, direction, start)
        assert len(calls) == 7 - lowest
        assert got == naive_operator_series(table, direction, start)
        assert_canonical(got)

    def test_multiplier_of_nonzero_degree(self):
        # the powers of a degree-2 element have degrees 2, 4, 6, ...: the
        # sum carries no degree; a degree-0 multiplier keeps start's
        ctx = AlgebraContext([("k", 2), ("e", 0)], 6)
        k, e = ctx.gen("k"), ctx.gen("e")
        z = k + Fraction(1, 2) * bracket(e, k)
        for got, expected in ((log_assoc(z), naive_log(z)), (exp_assoc(z), naive_exp(z))):
            assert got._degree is None
            assert got == expected
            assert_canonical(got)
        with pytest.raises(GradingError):
            log_assoc(z).homogeneous_degree()
        assert log_assoc(e + Fraction(1, 2) * e * e)._degree == 0

    def test_inner_sums_stop_at_their_weight(self, monkeypatch):
        # the step into the sum at depth j writes through weight order - j,
        # from an inner sum no heavier than order - j - 1
        ctx = AlgebraContext([("e", 0), ("f", 0), ("a", -1)], 8)
        e, f, a = ctx.gen("e"), ctx.gen("f"), ctx.gen("a")
        steps = []

        def recorded(out, left, right, bits, scale):
            heaviest = max(k for buckets in (left, right) for k, bucket in enumerate(buckets) if bucket)
            steps.append((len(out) - 1, heaviest))
            _add_products(out, left, right, bits, scale)

        monkeypatch.setattr("dgla.algebra._add_products", recorded)
        monkeypatch.setattr("dgla.calculus._add_products", recorded)  # the step of exp, log and BCH
        exp_assoc(e + f)  # eight coefficients, start of weight 1
        assert [top for top, _ in steps] == [2, 3, 4, 5, 6, 7, 8]
        assert all(heaviest <= top - 1 for top, heaviest in steps)
        steps.clear()
        apply_operator_series([1] * 9, e + f, a)  # ad: two products per step
        assert [top for top, _ in steps] == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]
        assert all(heaviest <= top - 1 for top, heaviest in steps)


class TestChunkKernels:
    """The relabelling, word-text and degree-scan kernels read a word as
    its leading 1 to c letters and then whole chunks of c; words of every
    weight through every letter, and drawn elements, against the per-term
    oracles."""

    @staticmethod
    def every_weight(ctx):
        # per weight, a word from each letter running up through the letters
        # and one running down, with coefficients that do not repeat
        n, terms = len(ctx.generators), {}
        for k in range(1, ctx.max_weight + 1):
            for first in range(n):
                terms[tuple((first + i) % n for i in range(k))] = Fraction(first + 1, k)
                terms[tuple((first - i) % n for i in range(k))] = Fraction(-k, first + 2)
        return ctx.element(terms)

    @staticmethod
    def assert_relabels(x):
        ctx, order = x.context, x.context.max_weight
        shuffle = signed_shuffle(ctx)
        assert apply_morphism(GeneratorMorphism(ctx, shuffle), x) == naive_morphism(shuffle, x)
        letters = LETTERS[: len(ctx.generators)]
        # five bits a letter, the order kept; reversed, a weight lower (the
        # top words dropped); and the same letters two weights higher
        targets = (
            AlgebraContext(LETTERS, order),
            AlgebraContext(LETTERS[::-1], order - 1),
            AlgebraContext(letters, order + 2),
        )
        for target in targets:
            moved = x.in_context(target)
            assert moved == naive_in_context(x, target)
            assert moved.in_context(ctx) == naive_in_context(moved, ctx)

    @pytest.mark.parametrize("key", sorted(CONTEXTS))
    def test_every_weight_against_the_oracles(self, key):
        self.assert_relabels(self.every_weight(CONTEXTS[key]))
        for ctx in (CONTEXTS[key], ESCAPED_CONTEXTS[key]):
            x = self.every_weight(ctx)
            assert _terms_to_json(x) == dumps_terms(x)
            assert encode(x) == dumps_encode(x)

    @pytest.mark.parametrize("key", sorted(CONTEXTS))
    def test_degree_scan_at_every_weight(self, key):
        # every weight through the order, so words that end exactly at a
        # chunk boundary (weights c, 2c, ...) and one letter past it: each
        # word alone has the sum of its letters' degrees, and the element of
        # all of them has mixed degrees unless the sums agree
        ctx = CONTEXTS[key]
        x = self.every_weight(ctx)
        degrees = set()
        for word, coeff in x.terms():
            degree = sum(ctx.generators[i].degree for i in word)
            assert ctx.element({word: coeff}).homogeneous_degree() == degree
            degrees.add(degree)
        if len(degrees) == 1:
            assert x.homogeneous_degree() == degree
        else:
            with pytest.raises(GradingError) as caught:
                x.homogeneous_degree()
            assert str(caught.value) == f"element has mixed degrees {sorted(degrees)}"

    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.data())
    def test_drawn_elements_against_the_oracles(self, ctx, degree, data):
        x = data.draw(graded_elements(ctx, degree))
        self.assert_relabels(x)
        assert _terms_to_json(x) == dumps_terms(x)


class TestCanonicalForm:
    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.data())
    def test_every_operation_stores_the_reduced_form(self, ctx, degree, data):
        order = ctx.max_weight
        fractional = data.draw(st.one_of(st.none(), st.integers(1, order)))
        x = data.draw(graded_elements(ctx, degree, fractional=fractional))
        y = data.draw(graded_elements(ctx, degree, fractional=fractional))
        direction = data.draw(graded_elements(ctx, 0, fractional=fractional))
        scalar = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
        coeffs = data.draw(series_coefficients(order))
        operands = [x, y, direction]
        before = [snapshot(z) for z in operands]
        lower = AlgebraContext(LETTERS[: len(ctx.generators)], max_weight=order - 1)
        shuffle = signed_shuffle(ctx)
        shuffled = apply_morphism(GeneratorMorphism(ctx, shuffle), x)
        assert shuffled == naive_morphism(shuffle, x)
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
            shuffled,
            x.in_context(lower),
            exp_assoc(direction),
            log_assoc(x),
            apply_operator_series(coeffs, direction, x),
        ]
        results += [weight_component(x, k) for k in range(1, order + 1)]
        # the internal filters, derivation and bracketing carry degrees too
        odd = {g.index for g in ctx.generators if g.parity}
        results += [_ending_in(x, odd), _terms_using(x, odd), _right_normed(x)]
        if len(ctx.generators) <= 5:  # letters of the bigon models
            model = build_named_model("bigon-a", order)
            moved = x.in_context(model.context)
            vertices = {g.index for g in model.context.generators if g.degree == -1}
            operands += [moved, *model.differential.values()]
            before += [snapshot(z) for z in operands[3:]]
            results.append(extend_differential(model, moved))
            results.append(_odd_derivation(moved, model.differential, order, vertices))
        # into all nine letters (4 bits per letter), in the same order and
        # reversed, and back into the narrower context
        for wide in (AlgebraContext(LETTERS, order), AlgebraContext(LETTERS[::-1], order)):
            moved = x.in_context(wide)
            assert moved == naive_in_context(x, wide)
            assert moved.in_context(ctx) == x
            results.append(moved)
        for result in results:
            assert_canonical(result)
        # sums share buckets and products write into buckets in place:
        # no operation changed an operand's stored words
        assert [snapshot(z) for z in operands] == before

    def test_sums_of_disjoint_weights_and_zero(self):
        # the bucket only one operand has is rescaled to the lcm (and
        # negated for a difference), not shared; a zero summand keeps the
        # other's degree, and x - x is zero with no degree
        ctx = CONTEXTS[(3, 4)]
        e, a = ctx.gen("e"), ctx.gen("a")
        x = Fraction(1, 2) * e
        y = Fraction(1, 3) * bracket(e, a)
        for total, sign in ((x + y, 1), (x - y, -1), (y + x, 1)):
            third = sign * Fraction(1, 3)
            assert dict(total.terms()) == {(0,): Fraction(1, 2), (0, 1): third, (1, 0): -third}
            assert_canonical(total)
        assert (x + y)._degree is None and (y + y)._degree == -1
        for total in (x + ctx.zero(), ctx.zero() + x, x - ctx.zero()):
            assert total == x and total._degree == 0
        assert (ctx.zero() - y) == -y and (ctx.zero() - y)._degree == -1
        difference = y - y
        assert difference.is_zero() and difference._degree is None
        assert difference == ctx.zero()

    def test_a_sum_of_two_degrees_carries_none(self):
        # each summand carries its degree, the sum none: a scan finds both
        ctx = CONTEXTS[(3, 4)]
        e, a = ctx.gen("e"), ctx.gen("a")
        mixed = e + a
        assert (e.homogeneous_degree(), a.homogeneous_degree()) == (0, -1)
        assert mixed._degree is None
        with pytest.raises(GradingError):
            mixed.homogeneous_degree()
        with pytest.raises(GradingError):
            bracket(mixed, e)

    @KERNEL_SETTINGS
    @given(contexts, st.integers(-1, 1), st.data())
    def test_truncation_reduces_the_denominator(self, ctx, degree, data):
        # every denominator sits on the heaviest words, which the lower
        # order drops: what is left has integer coefficients
        order = ctx.max_weight
        x = data.draw(graded_elements(ctx, degree, fractional=order))
        lower = x.in_context(AlgebraContext(LETTERS[: len(ctx.generators)], max_weight=order - 1))
        assert all(c.denominator == 1 for _, c in lower.terms())
        assert_canonical(lower)
        assert_canonical(weight_component(x, order))
