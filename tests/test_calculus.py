import random
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import bernoulli_recurrence, iterative_flow, naive_operator_series

from dgla import (
    AlgebraContext,
    ContextMismatchError,
    FlatnessError,
    GradingError,
    ModelError,
    apply_operator_series,
    bch,
    bernoulli,
    bracket,
    build_named_model,
    edge_differential,
    edge_differential_bernoulli,
    exp_assoc,
    extend_differential,
    flow,
    is_primitive,
    log_assoc,
    maurer_cartan_defect,
    twisted_differential,
    weight_component,
)
from dgla.algebra import _ad, _ending_in, _horner, _right_normed
from dgla.calculus import _edge_series, _exponential, _integrator, _vertex_flows

XY = AlgebraContext([("x", 0), ("y", 0)], max_weight=6)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0

    def test_against_recurrence_oracle(self):
        for n in range(21):
            assert bernoulli(n) == bernoulli_recurrence(n), n

    def test_odd_indices_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 20, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestExpLog:
    def test_exp_of_zero(self):
        assert exp_assoc(XY.zero()).is_zero()

    def test_log_inverts_exp(self):
        x = XY.gen("x")
        assert log_assoc(exp_assoc(x)) == x
        combo = 2 * x - 3 * XY.gen("y")
        assert log_assoc(exp_assoc(combo)) == combo

    def test_exp_then_log_of_mixed_weights(self):
        z = XY.gen("x") + Fraction(1, 2) * XY.element({("x", "y"): 1})
        assert log_assoc(exp_assoc(z)) == z

    def test_square_term(self):
        x, y = XY.gen("x"), XY.gen("y")
        half = Fraction(1, 2)
        expected = XY.element(
            {("x", "x"): half, ("x", "y"): half, ("y", "x"): half, ("y", "y"): half}
        )
        assert weight_component(exp_assoc(x + y), 2) == expected

    def test_odd_degree_rejected(self):
        ctx = AlgebraContext([("a", -1)], 6)
        with pytest.raises(GradingError):
            exp_assoc(ctx.gen("a"))


class TestBch:
    def test_low_order_expansion(self):
        x, y = XY.gen("x"), XY.gen("y")
        expected = (
            x
            + y
            + Fraction(1, 2) * bracket(x, y)
            + Fraction(1, 12) * (bracket(x, bracket(x, y)) + bracket(y, bracket(y, x)))
            - Fraction(1, 24) * bracket(x, bracket(y, bracket(x, y)))
        )
        got = bch([x, y])
        for k in range(1, 5):
            assert weight_component(got, k) == weight_component(expected, k)

    def test_commuting_arguments_add(self):
        x = XY.gen("x")
        assert bch([x, x]) == 2 * x
        assert bch([x, Fraction(1, 3) * x]) == Fraction(4, 3) * x

    def test_inverse(self):
        x = XY.gen("x") + XY.gen("y")
        assert bch([x, -x]).is_zero()

    def test_conjugation(self):
        x, y = XY.gen("x"), XY.gen("y")
        expected = apply_operator_series(_exponential(1, 5), x, y)
        assert bch([x, y, -x]) == expected

    def test_empty_list(self):
        with pytest.raises(ValueError):
            bch([])

    def test_single_argument(self):
        combo = 3 * XY.gen("x") - XY.gen("y")
        assert bch([combo]) == combo

    def test_degree_rejected(self):
        ctx = AlgebraContext([("a", -1), ("e", 0)], 6)
        with pytest.raises(GradingError):
            bch([ctx.gen("a")])

    def test_outputs_are_primitive(self):
        rng = random.Random(7)
        x, y = XY.gen("x"), XY.gen("y")
        for _ in range(25):
            u = rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
            w = rng.randint(-3, 3) * x + rng.randint(-2, 2) * bracket(x, y)
            assert is_primitive(bch([u, w]), 4)

    def test_equivariance_under_inner_automorphism(self):
        rng = random.Random(11)
        x, y = XY.gen("x"), XY.gen("y")
        exp_ad = _exponential(1, 5)
        for _ in range(20):
            u = rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
            w = rng.randint(-2, 2) * x + rng.randint(-2, 2) * bracket(x, y)
            direction = x if rng.randint(0, 1) else y
            moved = [apply_operator_series(exp_ad, direction, z) for z in (u, w)]
            assert bch(moved) == apply_operator_series(exp_ad, direction, bch([u, w]))


class TestOperatorSeries:
    def test_single_ad(self):
        ctx = AlgebraContext([("a", -1), ("e", 0)], 6)
        assert apply_operator_series([0, 1], ctx.gen("e"), ctx.gen("a")) == bracket(ctx.gen("e"), ctx.gen("a"))

    def test_edge_source_series_low_orders(self):
        # oracle route: T/(1 - e^{sT}) = -sum s^{k+1} B_k T^k / k!, checked
        # termwise for the source (s = 1) and the target (s = -1) series
        ctx = AlgebraContext([("a", -1), ("e", 0)], 6)
        e, a = ctx.gen("e"), ctx.gen("a")
        for sign in (1, -1):
            got = apply_operator_series(_edge_series(sign, 5), e, a)
            expected = ctx.zero()
            current = a
            factorial = 1
            for k in range(6):
                if k:
                    factorial *= k
                    current = bracket(e, current)
                expected = expected - Fraction(sign ** (k + 1) * bernoulli_recurrence(k), factorial) * current
            assert got == expected
            assert weight_component(got, 1) == -sign * a
            assert weight_component(got, 2) == Fraction(1, 2) * bracket(e, a)

    def test_exponential_of_negative(self):
        ctx = AlgebraContext([("e", 0), ("f", 0)], 4)
        e, f = ctx.gen("e"), ctx.gen("f")
        got = apply_operator_series(_exponential(-1, 3), e, f)
        expected = (
            f
            - bracket(e, f)
            + Fraction(1, 2) * bracket(e, bracket(e, f))
            - Fraction(1, 6) * bracket(e, bracket(e, bracket(e, f)))
        )
        assert got == expected

    def test_odd_direction_rejected(self):
        ctx = AlgebraContext([("a", -1), ("g", 1)], 6)
        with pytest.raises(GradingError):
            apply_operator_series([0, 1], ctx.gen("g"), ctx.gen("a"))

    def test_context_mismatch_rejected(self):
        # the error every other operation on elements of two contexts raises
        one = AlgebraContext([("a", -1), ("e", 0)], 4)
        other = AlgebraContext([("a", -1), ("e", 0)], 5)
        with pytest.raises(ContextMismatchError, match="must share a context"):
            apply_operator_series([0, 1], one.gen("e"), other.gen("a"))

    @pytest.mark.parametrize(
        "tables, steps",
        [
            ([[0, 0, 0]], 0),
            ([[1]], 0),
            ([[1, 2, 0, 0]], 1),
            ([[0, 0, 3, 0, 0], [1, 0]], 2),
            ([_integrator(0, 6)], 0),
            ([_edge_series(1, 3)], 2),  # B_3 = 0: T/(1 - e^T) ends in a zero
        ],
    )
    def test_walk_stops_at_the_last_nonzero_coefficient(self, tables, steps):
        # one Horner pass per table, each from its last nonzero coefficient
        x, y = XY.gen("x"), XY.gen("y")
        calls = []

        def step(out, inner, by, bits, scale):
            calls.append(inner)
            _ad(out, inner, by, bits, scale)

        sums = [_horner(y, x, [Fraction(c) for c in table], step) for table in tables]
        assert len(calls) == steps
        assert sums == [naive_operator_series(table, x, y) for table in tables]

    def test_flow_at_time_zero_takes_no_step(self, circle, monkeypatch):
        calls = []
        monkeypatch.setattr("dgla.calculus.bracket", lambda u, w: calls.append(u) or bracket(u, w))
        monkeypatch.setattr("dgla.calculus._ad", lambda *args: calls.append(args) or _ad(*args))
        ctx = circle.context
        direction = ctx.gen("e") + bracket(ctx.gen("e"), ctx.gen("f"))
        assert flow(circle, direction, ctx.gen("a"), 0) == ctx.gen("a")
        assert len(calls) == 1  # the source term [start, direction], and no Horner step

    def test_mapping_rejected(self):
        # coefficients are indexed by position; a power -> coefficient
        # mapping would be read as its keys
        ctx = AlgebraContext([("a", -1), ("e", 0)], 6)
        with pytest.raises(TypeError):
            apply_operator_series({1: 1}, ctx.gen("e"), ctx.gen("a"))


class TestEdgeDifferential:
    def test_weight_one_is_geometric_boundary(self):
        ctx = AlgebraContext([("a", -1), ("b", -1), ("e", 0)], 6)
        de = edge_differential(ctx, "e", "a", "b")
        assert weight_component(de, 1) == ctx.gen("b") - ctx.gen("a")

    def test_weight_two(self):
        ctx = AlgebraContext([("a", -1), ("b", -1), ("e", 0)], 6)
        de = edge_differential(ctx, "e", "a", "b")
        expected = Fraction(1, 2) * bracket(ctx.gen("e"), ctx.gen("a") + ctx.gen("b"))
        assert weight_component(de, 2) == expected

    @pytest.mark.parametrize("order", range(1, 11))
    def test_two_closed_forms_agree(self, order):
        ctx = AlgebraContext([("a", -1), ("b", -1), ("e", 0)], order)
        assert edge_differential(ctx, "e", "a", "b") == edge_differential_bernoulli(
            ctx, "e", "a", "b"
        )

    def test_loop_collapses_to_single_bracket(self):
        ctx = AlgebraContext([("a", -1), ("e", 0)], 8)
        de = edge_differential(ctx, "e", "a", "a")
        assert de == bracket(ctx.gen("e"), ctx.gen("a"))

    def test_degree_mismatch_rejected(self):
        ctx = AlgebraContext([("a", -1), ("b", -1), ("e", 0), ("g", 1)], 6)
        with pytest.raises(GradingError):
            edge_differential(ctx, "g", "a", "b")
        with pytest.raises(GradingError):
            edge_differential(ctx, "e", "a", "e")


class TestDerivationExtension:
    def test_vertex_differential_squares_to_zero(self, circle):
        da = circle.differential["a"]
        assert extend_differential(circle, da).is_zero()

    def test_leibniz_on_a_bracket(self, circle):
        e, f = circle.context.gen("e"), circle.context.gen("f")
        de, df = circle.differential["e"], circle.differential["f"]
        assert extend_differential(circle, bracket(e, f)) == bracket(de, f) + bracket(e, df)

    def test_missing_assignment_raises(self, circle):
        # a model with no differential for e cannot be made, so no
        # derivation ever meets one
        with pytest.raises(ModelError) as caught:
            replace(circle, differential={"a": circle.differential["a"]})
        assert str(caught.value) == "differential must map exactly the declared generators (at differential)"

    def test_mixed_degree_rejected(self, circle):
        ctx = circle.context
        with pytest.raises(GradingError):
            extend_differential(circle, ctx.gen("a") + ctx.gen("e"))

    def test_foreign_element_rejected(self, circle):
        foreign = AlgebraContext([("a", -1)], 6).gen("a")
        with pytest.raises(ModelError, match="element does not belong to the model's context"):
            extend_differential(circle, foreign)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, a, e: apply_operator_series([0, 1], a, e), "operator direction must have degree 0, got -1"),
        (lambda m, a, e: flow(m, a, e), "flow direction must have degree 0, got -1"),
        (lambda m, a, e: bch([e, a]), "bch arguments must have degree 0, got -1"),
        (lambda m, a, e: maurer_cartan_defect(m, e), "a candidate point must have degree -1, got 0"),
    ],
)
def test_argument_degree_messages(circle, call, message):
    with pytest.raises(GradingError) as caught:
        call(circle, circle.context.gen("a"), circle.context.gen("e"))
    assert str(caught.value) == message


class TestMaurerCartan:
    def test_vertices_are_points(self, circle):
        assert maurer_cartan_defect(circle, circle.context.gen("a")).is_zero()
        assert maurer_cartan_defect(circle, circle.context.gen("b")).is_zero()

    def test_sum_of_points_is_not_a_point(self, circle):
        ctx = circle.context
        p = ctx.gen("a") + ctx.gen("b")
        defect = maurer_cartan_defect(circle, p)
        assert defect == bracket(ctx.gen("a"), ctx.gen("b"))

    def test_degree_enforced(self, circle):
        with pytest.raises(GradingError):
            maurer_cartan_defect(circle, circle.context.gen("e"))


class TestTwistedDifferential:
    def test_disc_loop_direction_is_closed(self, disc):
        ctx = disc.context
        a = ctx.gen("a")
        assert twisted_differential(disc, a, ctx.gen("e")).is_zero()
        assert twisted_differential(disc, a, ctx.gen("g")) == ctx.gen("e")

    def test_circle_loop_kernel(self, circle):
        ctx = circle.context
        loop = bch([ctx.gen("e"), ctx.gen("f")])
        assert twisted_differential(circle, ctx.gen("a"), loop).is_zero()

    def test_non_point_rejected(self, circle):
        ctx = circle.context
        with pytest.raises(FlatnessError):
            twisted_differential(circle, ctx.gen("a") + ctx.gen("b"), ctx.gen("e"))


class TestFlow:
    def test_unit_flows_between_vertices(self, circle):
        ctx = circle.context
        a, b = ctx.gen("a"), ctx.gen("b")
        assert flow(circle, ctx.gen("e"), a, 1) == b
        assert flow(circle, ctx.gen("f"), b, 1) == a

    def test_zero_direction_is_identity(self, circle):
        a = circle.context.gen("a")
        assert flow(circle, circle.context.zero(), a, 1) == a

    def test_loop_fixes_basepoint(self, circle):
        ctx = circle.context
        loop = bch([ctx.gen("e"), ctx.gen("f")])
        assert flow(circle, loop, ctx.gen("a"), 1) == ctx.gen("a")

    def test_composition_matches_combined_direction(self, circle):
        ctx = circle.context
        a = ctx.gen("a")
        e, f = ctx.gen("e"), ctx.gen("f")
        assert flow(circle, f, flow(circle, e, a, 1), 1) == flow(circle, bch([e, f]), a, 1)

    def test_time_scaling(self, circle):
        ctx = circle.context
        e, f = ctx.gen("e"), ctx.gen("f")
        direction = e - 2 * f
        t = Fraction(1, 3)
        for start in (ctx.gen("a"), ctx.gen("e")):
            assert flow(circle, direction, start, t) == flow(
                circle, t * direction, start, 1
            )

    def test_degree_zero_direction_enforced(self, circle):
        with pytest.raises(GradingError):
            flow(circle, circle.context.gen("a"), circle.context.gen("b"), 1)

    @pytest.mark.parametrize("t", [1, Fraction(1, 2), Fraction(-2, 3)])
    def test_against_iterative_ode_oracle(self, circle, t):
        ctx = circle.context
        e, f = ctx.gen("e"), ctx.gen("f")
        directions = [e, e + 2 * f, Fraction(1, 2) * bracket(e, f) + f]
        starts = [ctx.gen("a"), ctx.gen("b"), ctx.gen("e"), ctx.zero()]
        for direction in directions:
            for start in starts:
                assert flow(circle, direction, start, t) == iterative_flow(
                    circle, direction, start, t
                )

    def test_degree_minus_two_start_has_no_source(self, circle):
        # D(direction) has degree -1, so it enters only degree -1 flows
        ctx = circle.context
        a, e = ctx.gen("a"), ctx.gen("e")
        start = bracket(a, a)
        got = flow(circle, e, start, 1)
        assert got == iterative_flow(circle, e, start, 1)
        assert got.homogeneous_degree() == -2

    def test_oracle_in_degree_one(self):
        sym = build_named_model("bigon-sym", 5)
        ctx = sym.context
        direction = ctx.gen("e") - ctx.gen("f")
        g = ctx.gen("g")
        assert flow(sym, direction, g, Fraction(1, 2)) == iterative_flow(
            sym, direction, g, Fraction(1, 2)
        )


def _random_lie(rng, e, f, weights):
    # per weight in ``weights``, a nonzero multiple of a right-normed
    # bracket [x1, [x2, ... [e, f]]] of that weight (of e or f at weight 1)
    total = e.context.zero()
    for weight in weights:
        term = rng.choice([e, f]) if weight == 1 else bracket(e, f)
        for _ in range(weight - 2):
            term = bracket(rng.choice([e, f]), term)
        total = total + rng.choice([-3, -2, -1, 1, 2, 3]) * term
    return total


class TestVertexModuleFlow:
    # the vertex-module route (coordinates flowed by left multiplication,
    # then bracketed back) against the tensor route of flow
    TIMES = (0, Fraction(1, 2), 1, Fraction(-1, 3), 2)

    def _check(self, model, directions):
        ctx = model.context
        vertices = {g.index for g in ctx.generators if g.degree == -1}
        for direction in directions:
            for start in (ctx.gen("a"), ctx.gen("b")):
                coordinates = _vertex_flows(model, direction, start, self.TIMES)
                for t, got in zip(self.TIMES, coordinates):
                    expected = flow(model, direction, start, t)
                    assert _right_normed(got) == expected, (direction, start, t)
                    assert got == _ending_in(expected, vertices)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_circle_directions(self, order):
        model = build_named_model("circle2", order)
        ctx = model.context
        e, f = ctx.gen("e"), ctx.gen("f")
        rng = random.Random(order)
        directions = [
            ctx.zero(),
            _random_lie(rng, e, f, [1, 1, 2, 3]),
            _random_lie(rng, e, f, [2, 3, 4]),  # brackets only
            _random_lie(rng, e, f, range(1, order + 1)),
        ]
        self._check(model, directions)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_interval_directions(self, order):
        model = build_named_model("interval", order)
        e = model.context.gen("e")
        rng = random.Random(order)
        # L(e) is spanned by e: every bracket of e with itself vanishes
        directions = [model.context.zero(), rng.randint(1, 3) * e, -rng.randint(1, 3) * e, bracket(e, e)]
        self._check(model, directions)
