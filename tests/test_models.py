import json
import pickle
from collections import Counter
from collections.abc import Hashable
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgla.models
from dgla import (
    GeneratorMorphism,
    ModelCheck,
    ModelError,
    OneComplex,
    SeriesParseError,
    VerificationReport,
    apply_morphism,
    bch,
    bracket,
    build_named_model,
    build_one_complex,
    check_equivariance,
    compare_reference_second_order,
    compute_symmetric_data,
    decode,
    decode_model,
    encode,
    encode_model,
    extend_differential,
    flow,
    is_primitive,
    maurer_cartan_defect,
    symmetry_morphism,
    twisted_differential,
    verify_model,
    weight_component,
)
from dgla.algebra import AlgebraContext
from dgla.calculus import _vertex_flows
from dgla.models import MODEL_NAMES, CellModel


class TestOneComplex:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            OneComplex(("a", "a"))
        with pytest.raises(ValueError):
            OneComplex(("a",), (("a", "a", "a"),))

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            OneComplex(("a",), (("e", "a", "b"),))


class TestBuilders:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_all_models_verify(self, name):
        report = verify_model(build_named_model(name, 6), subject=name)
        assert report.overall, [c.name for c in report.failures()]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_all_models_verify_at_low_order(self, name):
        assert verify_model(build_named_model(name, 4)).overall

    def test_tables_are_read_only(self):
        # the cached instance is shared, so no caller may edit it under
        # its stored checks
        model = build_named_model("circle2", 4)
        for table in (model.boundary0, model.differential, model.closure):
            with pytest.raises(TypeError):
                table["e"] = table["f"]
        assert build_named_model("circle2", 4) is model and verify_model(model).overall
        # and it advertises no hash it cannot compute
        with pytest.raises(TypeError):
            hash(model)
        assert not isinstance(model, Hashable)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown model 'torus'"):
            build_named_model("torus")

    def test_build_then_verify_computes_d_squared_once(self, monkeypatch):
        calls = []
        original = dgla.models.extend_differential

        def counting(model, x):
            calls.append(x)
            return original(model, x)

        build_named_model.cache_clear()
        build_one_complex.cache_clear()
        monkeypatch.setattr(dgla.models, "extend_differential", counting)
        model = build_named_model("circle2", 6)
        assert verify_model(model, subject="circle2").overall
        assert len(calls) == len(model.context.generators)  # one square per generator
        # bigon-sym inherits the squares of its skeleton, the circle2
        # instance above, and decides the square of its 2-cell through its
        # basepoint and holonomy, so neither building nor verifying it runs
        # a full Leibniz pass; a decoded or replaced copy, passing or not,
        # squares every generator once, the 2-cell included
        calls.clear()
        sym = build_named_model("bigon-sym", 6)
        assert verify_model(sym).overall
        assert calls == []
        e, f = sym.context.gen("e"), sym.context.gen("f")
        broken = replace(sym, differential={**sym.differential, "g": sym.differential["g"] + bracket(e, f)})
        _, decoded = decode_model(encode_model(sym, "bigon-sym"))
        for copy, passes in ((decoded, True), (broken, False)):
            calls.clear()
            assert verify_model(copy).overall is passes
            assert calls == [copy.differential[name] for name in copy.context.names]

    def test_cell_model_inherits_its_skeleton_checks(self, monkeypatch):
        # building bigon-sym after circle2 (and its symmetric data) derives
        # no edge series, squares and flattens no generator of the skeleton,
        # and brackets nothing while the 2-cell's checks run
        build_named_model.cache_clear()
        build_one_complex.cache_clear()
        build_named_model("circle2", 6)
        compute_symmetric_data(6)
        calls = []

        def counted(name, original):
            def call(*args):
                calls.append(name)
                return original(*args)

            return call

        for module, name in (
            (dgla.models, "edge_differential"),
            (dgla.models, "extend_differential"),
            (dgla.calculus, "extend_differential"),  # the flatness defect's
            (dgla.models, "_right_normed"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        sym = build_named_model("bigon-sym", 6)
        assert calls == []
        assert verify_model(sym).overall

    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_built_report_equals_the_full_route(self, name, order):
        # the builder's inherited checks and 2-cell route change no name,
        # verdict or witness: a decoded and a replaced copy, which run every
        # check and take the full Leibniz square of every generator, report
        # the same
        model = build_named_model(name, order)
        _, decoded = decode_model(encode_model(model, name))
        for copy in (decoded, replace(model)):
            assert "_checks" not in vars(copy)
            assert verify_model(copy).checks == verify_model(model).checks

    @pytest.mark.parametrize(
        "copy_model", [deepcopy, lambda model: pickle.loads(pickle.dumps(model))], ids=["deepcopy", "pickle"]
    )
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_a_copy_is_rebuilt_by_the_constructor(self, name, copy_model):
        # equal tables, read-only again, and checks computed afresh that
        # report what the built model's report
        model = build_named_model(name, 6)
        copied = copy_model(model)
        assert copied is not model and copied.context == model.context
        for field in ("boundary0", "differential", "closure"):
            table = getattr(copied, field)
            assert isinstance(table, MappingProxyType) and table == getattr(model, field)
        assert "_checks" not in vars(copied)
        assert verify_model(copied).to_json_dict() == verify_model(model).to_json_dict()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_lower_orders_are_truncations(self, name):
        # each model at orders 1-8 is the order-9 model moved down to its
        # order: boundaries and differentials by in_context, the same closure
        top = build_named_model(name, 9)
        for order in range(1, 9):
            model = build_named_model(name, order)
            assert model.context.names == top.context.names
            for field in ("boundary0", "differential"):
                truncated = {g: y.in_context(model.context) for g, y in getattr(top, field).items()}
                assert truncated == dict(getattr(model, field)), (order, field)
            assert model.closure == top.closure

    def test_builder_rejects_a_model_failing_its_checks(self, monkeypatch):
        original = dgla.models.edge_differential

        def stray_term(context, edge, source, target):
            extra = bracket(context.gen(edge), context.gen(source))
            return original(context, edge, source, target) + extra

        monkeypatch.setattr(dgla.models, "edge_differential", stray_term)
        build_one_complex.cache_clear()  # the interval at order 4 may be built already
        with pytest.raises(RuntimeError, match=r"d_squared_zero\[e\]"):
            build_one_complex(OneComplex(("a", "b"), (("e", "a", "b"),)), 4)

    def test_point_model(self):
        model = build_named_model("point", 6)
        a = model.context.gen("a")
        assert model.differential["a"] == Fraction(-1, 2) * bracket(a, a)

    def test_interval_edge_weight_two(self):
        model = build_named_model("interval", 6)
        ctx = model.context
        expected = Fraction(1, 2) * bracket(ctx.gen("e"), ctx.gen("a") + ctx.gen("b"))
        assert weight_component(model.differential["e"], 2) == expected

    def test_circle_flows(self, circle):
        ctx = circle.context
        assert flow(circle, ctx.gen("e"), ctx.gen("a"), 1) == ctx.gen("b")
        assert flow(circle, ctx.gen("f"), ctx.gen("b"), 1) == ctx.gen("a")

    def test_disc_differentials_as_stated(self, disc):
        ctx = disc.context
        a, e, g = ctx.gen("a"), ctx.gen("e"), ctx.gen("g")
        assert disc.differential["e"] == bracket(e, a)
        assert disc.differential["g"] == e - bracket(a, g)
        assert disc.boundary0["g"] == e

    def test_disc_twisted_differential(self, disc):
        ctx = disc.context
        assert twisted_differential(disc, ctx.gen("a"), ctx.gen("g")) == ctx.gen("e")

    def test_disc_reflection_equivariance(self, disc):
        assert check_equivariance(disc, symmetry_morphism("disc1", disc.context, "iota")).overall

    def test_based_bigon_two_cell(self, bigon_a):
        ctx = bigon_a.context
        expected = bch([ctx.gen("e"), ctx.gen("f")]) - bracket(ctx.gen("a"), ctx.gen("g"))
        assert bigon_a.differential["g"] == expected


class TestBasedBigonSymmetry:
    def test_reflection_passes(self, bigon_a):
        assert check_equivariance(bigon_a, symmetry_morphism("bigon-a", bigon_a.context, "iota")).overall

    def test_rotation_fails(self, bigon_a):
        report = check_equivariance(bigon_a, symmetry_morphism("bigon-a", bigon_a.context, "sigma"))
        assert not report.overall
        failed = {c.name for c in report.failures()}
        assert failed == {"commutes_with_differential[g]"}

    def test_rotation_carries_model_a_to_model_b(self, bigon_a, bigon_b):
        rotate = symmetry_morphism("bigon-a", bigon_a.context, "sigma")
        for g in bigon_a.context.generators:
            image_of_diff = apply_morphism(rotate, bigon_a.differential[g.name])
            diff_of_image = extend_differential(
                bigon_b, apply_morphism(rotate, bigon_a.context.gen(g.name))
            )
            assert image_of_diff == diff_of_image, g.name

    def test_rotation_witness_is_the_leibniz_difference(self):
        # D of a generator's image is read from the morphism's signed table;
        # the report must be the one the subtraction route gives, with the
        # Leibniz rule applied to each image
        model = build_named_model("bigon-a", 5)
        rotate = symmetry_morphism("bigon-a", model.context, "sigma")
        checks = []
        for g in model.context.generators:
            image = extend_differential(model, apply_morphism(rotate, model.context.gen(g.name)))
            difference = apply_morphism(rotate, model.differential[g.name]) - image
            checks.append(ModelCheck(f"commutes_with_differential[{g.name}]", not difference, difference or None))
        expected = VerificationReport("bigon-a:sigma", 5, tuple(checks))
        report = check_equivariance(model, rotate, subject="bigon-a:sigma")
        assert not report.overall
        assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())

    @pytest.mark.parametrize("missing", ["b", "g"])
    def test_missing_assignment_raises_model_error(self, missing):
        # b is the image of a under the rotation, g its own image: the
        # model is refused when it is made, before any check reads it
        model = build_named_model("bigon-a", 4)
        partial = {g: d for g, d in model.differential.items() if g != missing}
        for make in (
            lambda: replace(model, differential=partial),
            lambda: CellModel(model.context, model.boundary0, partial, model.closure),
        ):
            with pytest.raises(ModelError) as caught:
                make()
            assert caught.value.position == "differential"
            assert str(caught.value) == "differential must map exactly the declared generators (at differential)"


class TestSymmetricData:
    def test_midpoint_direction_symmetry(self, circle, symdata):
        # the reflection fixes v, the rotation negates it
        rotate, reflect = (symmetry_morphism("circle2", circle.context, w) for w in ("sigma", "iota"))
        assert apply_morphism(reflect, symdata.v) == symdata.v
        assert apply_morphism(rotate, symdata.v) == -symdata.v

    def test_midpoint_symmetry(self, circle, symdata):
        rotate, reflect = (symmetry_morphism("circle2", circle.context, w) for w in ("sigma", "iota"))
        assert apply_morphism(rotate, symdata.x) == symdata.x
        assert apply_morphism(reflect, symdata.x) == symdata.x

    def test_midpoint_is_a_point(self, circle, symdata):
        assert maurer_cartan_defect(circle, symdata.x).is_zero()

    def test_kernel_element_symmetry(self, circle, symdata):
        rotate, reflect = (symmetry_morphism("circle2", circle.context, w) for w in ("sigma", "iota"))
        assert apply_morphism(rotate, symdata.q) == symdata.q
        assert apply_morphism(reflect, symdata.q) == -symdata.q

    @pytest.mark.parametrize("order", range(1, 11))
    def test_parity(self, order):
        # sigma(v) = -v, iota(v) = v, sigma(q) = q, iota(q) = -q: the
        # dihedral identities that leave v and q only odd weights
        data = compute_symmetric_data(order)
        rotate, reflect = (symmetry_morphism("circle2", data.v.context, w) for w in ("sigma", "iota"))
        assert apply_morphism(rotate, data.v) == -data.v
        assert apply_morphism(reflect, data.v) == data.v
        assert apply_morphism(rotate, data.q) == data.q
        assert apply_morphism(reflect, data.q) == -data.q

    def test_kernel_element_is_closed(self, circle, symdata):
        assert twisted_differential(circle, symdata.x, symdata.q).is_zero()

    def test_kernel_element_boundary_part(self, circle, symdata):
        ctx = circle.context
        assert weight_component(symdata.q, 1) == ctx.gen("e") + ctx.gen("f")

    def test_unit_flow_reaches_far_vertex(self, circle, symdata):
        assert flow(circle, symdata.v, circle.context.gen("a"), 1) == circle.context.gen("b")

    def test_conjugation_identity(self, circle, symdata):
        ctx = circle.context
        e, f, v = ctx.gen("e"), ctx.gen("f"), symdata.v
        assert bch([v, f, e, -v]) == bch([e, f])

    @pytest.mark.parametrize("order", range(1, 11))
    def test_kernel_element_bch_form(self, order):
        # q is computed as a flow of bch(e, f); the 4-argument bch of the
        # conjugation e^{-v/2} e^e e^f e^{v/2} is the independent route
        data = compute_symmetric_data(order)
        ctx = data.q.context
        half_v = Fraction(1, 2) * data.v
        assert data.q == bch([-half_v, ctx.gen("e"), ctx.gen("f"), half_v])

    @pytest.mark.parametrize("order", range(1, 11))
    def test_direction_bch_form(self, order):
        # v comes from the same series in the powers of e^e e^f - 1 as the loop;
        # the nested bch is the independent route
        data = compute_symmetric_data(order)
        e, f = data.v.context.gen("e"), data.v.context.gen("f")
        assert data.v == bch([Fraction(-1, 2) * bch([e, f]), e])

    def test_unit_time_check_rejects_a_missed_vertex(self, monkeypatch):
        # the one runtime cross-check: the unit-time coordinates must be b's
        def perturbed(model, direction, start, times):
            midpoint, unit_time = _vertex_flows(model, direction, start, times)
            return [midpoint, unit_time + model.context.gen("a")]

        monkeypatch.setattr(dgla.models, "_vertex_flows", perturbed)
        with pytest.raises(RuntimeError, match="misses the far vertex"):
            compute_symmetric_data.__wrapped__(3)

    @pytest.mark.parametrize("order", range(1, 12))
    def test_words_per_weight(self, order):
        # a dropped or cancelled term changes these counts even where every
        # check of the report still passes
        def counts(x):
            found = Counter(len(word) for word, _ in x.terms())
            return [found[k] for k in range(1, order + 1)]

        data = compute_symmetric_data(order)
        weights = range(1, order + 1)
        odd = [2 if k == 1 else 2**k - 2 if k % 2 else 0 for k in weights]
        assert counts(data.v) == counts(data.q) == odd
        assert counts(data.x) == [2 if k == 1 else 0 if k % 2 else k * 2**k for k in weights]
        vertices = {data.x.context.generator(name).index for name in "ab"}
        assert all(sum(letter in vertices for letter in word) == 1 for word, _ in data.x.terms())
        dg = build_named_model("bigon-sym", order).differential["g"]
        law = {1: 2, 2: 4, 3: 22, 5: 158, 7: 894, 9: 4606, 11: 22526}
        assert counts(dg) == [law.get(k, 0) for k in weights]

    def test_even_weights_vanish(self, symdata):
        for k in (2, 4, 6):
            assert weight_component(symdata.v, k).is_zero()
            assert weight_component(symdata.q, k).is_zero()

    def test_flow_family_membership(self, circle):
        ctx = circle.context
        a, b, e, f = (ctx.gen(n) for n in "abef")
        loop = bch([e, f])
        assert flow(circle, e, a, 1) == b  # family member at parameter 0
        for t in (Fraction(-1), Fraction(-1, 2)):
            h = bch([t * loop, e])
            assert flow(circle, h, a, 1) == b, t
        assert bch([Fraction(-1) * loop, e]) == -f


class TestDirectionDifferentialExpansion:
    # fixture policy: the stated weight-4 coefficients are confirmed by
    # computation; any regression below is a genuine engine change
    def test_low_order_expansion(self, circle, symdata):
        ctx = circle.context
        a, b, e, f = (ctx.gen(n) for n in "abef")
        dv = extend_differential(circle, symdata.v)
        difference = e - f
        assert weight_component(dv, 1) == b - a
        assert weight_component(dv, 2) == Fraction(1, 4) * bracket(difference, a + b)
        assert weight_component(dv, 3) == Fraction(1, 48) * bracket(
            difference, bracket(difference, b - a)
        )
        expected_w4 = Fraction(1, 96) * bracket(bracket(e + f, bracket(e, f)), a + b)
        assert weight_component(dv, 4) == expected_w4

    def test_direction_differential_is_chain_compatible(self, circle, symdata):
        dv = extend_differential(circle, symdata.v)
        assert extend_differential(circle, dv).is_zero()
        rotate = symmetry_morphism("circle2", circle.context, "sigma")
        assert apply_morphism(rotate, dv) == -dv


class TestSymmetricBigon:
    def test_two_cell_differential_shape(self, bigon_sym, symdata):
        ctx = bigon_sym.context
        q = symdata.q.in_context(ctx)
        x = symdata.x.in_context(ctx)
        assert bigon_sym.differential["g"] == q - bracket(x, ctx.gen("g"))

    def test_differential_squares_to_zero_on_two_cell(self, bigon_sym):
        square = extend_differential(bigon_sym, bigon_sym.differential["g"])
        assert square.is_zero()

    def test_full_dihedral_equivariance(self, bigon_sym):
        ctx = bigon_sym.context
        rotate = symmetry_morphism("bigon-sym", ctx, "sigma")
        reflect = symmetry_morphism("bigon-sym", ctx, "iota")
        assert check_equivariance(bigon_sym, rotate).overall
        assert check_equivariance(bigon_sym, reflect).overall
        # rotation after reflection: swap the vertices, negate both edges and the 2-cell
        half_turn = GeneratorMorphism(ctx, {"a": "b", "b": "a", "e": "-e", "f": "-f", "g": "-g"})
        word = ctx.element({("a", "e", "f", "g"): 1})
        assert apply_morphism(half_turn, word) == apply_morphism(rotate, apply_morphism(reflect, word))
        assert check_equivariance(bigon_sym, half_turn).overall

    def test_based_and_symmetric_models_share_low_orders(self, bigon_a, bigon_sym):
        ctx = bigon_sym.context
        for k in (1, 2):
            ours = weight_component(bigon_sym.differential["g"], k)
            based = weight_component(bigon_a.differential["g"], k).in_context(ctx)
            if k == 1:
                assert ours == based == ctx.gen("e") + ctx.gen("f")
            else:
                assert ours == Fraction(-1, 2) * bracket(ctx.gen("a") + ctx.gen("b"), ctx.gen("g"))

    def test_distinct_from_reference_second_order(self):
        assert compare_reference_second_order(6)
        with pytest.raises(ValueError):
            compare_reference_second_order(3)


class TestSubdivisionInstance:
    def test_subdividing_the_disc_loop_gives_the_based_bigon(self, disc, bigon_a):
        # the map a -> a, e -> bch(e, f), g -> g intertwines the differentials
        ctx = bigon_a.context
        images = {
            "a": ctx.gen("a"),
            "e": bch([ctx.gen("e"), ctx.gen("f")]),
            "g": ctx.gen("g"),
        }

        def substitute(element):
            total = ctx.zero()
            for word, coeff in element.terms():
                product = None
                for name in element.context.word_names(word):
                    product = images[name] if product is None else product * images[name]
                total = total + coeff * product
            return total

        for name in ("a", "e", "g"):
            lhs = substitute(disc.differential[name])
            rhs = extend_differential(bigon_a, substitute(disc.context.gen(name)))
            assert lhs == rhs, name


class TestLieCertificate:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_every_differential_is_a_lie_element(self, order):
        data = compute_symmetric_data(order)
        series = {"v": data.v, "x": data.x, "q": data.q}
        for name in MODEL_NAMES:
            for g, dg in build_named_model(name, order).differential.items():
                series[f"{name}.D{g}"] = dg
        failed = [label for label, s in series.items() if not is_primitive(s, order)]
        assert not failed

    def test_a_bare_word_breaks_the_certificate(self, bigon_sym):
        context = bigon_sym.context
        broken = bigon_sym.differential["g"] + context.element({("e", "f"): 1})
        assert is_primitive(broken, 1)
        assert not is_primitive(broken, 2)
        assert not is_primitive(broken, context.max_weight)


def _attached(model, name):
    # the basepoint and holonomy the builder made the 2-cell of a catalogued
    # model from, moved into the model's context
    skeleton = build_one_complex(dgla.models._CATALOGUE[name].skeleton, model.order)
    return tuple(y.in_context(model.context) for y in dgla.models._CATALOGUE[name].cell(skeleton.context))


class TestCellSquare:
    @pytest.mark.parametrize("order", range(1, 11))
    @pytest.mark.parametrize("name", ["disc1", "bigon-a", "bigon-b", "bigon-sym"])
    def test_verdict_agrees_with_the_leibniz_square(self, name, order):
        model = build_named_model(name, order)
        full = extend_differential(model, model.differential["g"]).is_zero()
        passed = {c.name: c.passed for c in verify_model(model).checks}["d_squared_zero[g]"]
        assert dgla.models._cell_square_vanishes(model, _attached(model, name)) is full
        assert passed is full

    @pytest.mark.parametrize(
        "perturbation",
        ["holonomy-weight-2", "holonomy-weight-N", "basepoint", "bare-basepoint", "non-lie", "off-shape"],
    )
    def test_perturbed_cell_fails_with_the_full_square(self, bigon_sym, symdata, perturbation):
        ctx = bigon_sym.context
        a, e, f, g = (ctx.gen(n) for n in "aefg")
        top = f
        for _ in range(ctx.max_weight - 1):
            top = bracket(e, top)  # ad_e^(N-1) f, a Lie term of weight N
        term = {
            "holonomy-weight-2": bracket(e, f),
            "holonomy-weight-N": top,
            "basepoint": bracket(bracket(e, a), g),
            # no holonomy: D_p(0) = 0, so only the flatness half can fail
            "bare-basepoint": bracket(bracket(e, a), g) - symdata.q.in_context(ctx),
            "non-lie": e * f,  # fails the Lie guard
            "off-shape": bracket(bracket(g, a), e),  # no builder's shape: only the full square sees it
        }[perturbation]
        mutated = replace(
            bigon_sym, differential={**bigon_sym.differential, "g": bigon_sym.differential["g"] + term}
        )
        failed = {c.name: c for c in verify_model(mutated).failures()}
        square = extend_differential(mutated, mutated.differential["g"])
        assert square and failed["d_squared_zero[g]"].witness == square
        # the basepoint and holonomy a builder would attach to the mutated
        # cell, where they keep its contract (no letter g): the route that
        # reads them refuses too
        p, h = _attached(bigon_sym, "bigon-sym")
        attached = {
            "holonomy-weight-2": (p, h + term),
            "holonomy-weight-N": (p, h + term),
            "basepoint": (p - bracket(e, a), h),
            "bare-basepoint": (p - bracket(e, a), ctx.zero()),
            "non-lie": (p, h + term),
        }.get(perturbation)
        if attached is not None:
            assert mutated.differential["g"] == attached[1] - bracket(attached[0], g)
            assert not dgla.models._cell_square_vanishes(mutated, attached)

    @pytest.mark.parametrize("order", range(2, 11))
    @pytest.mark.parametrize("name", ["bigon-a", "bigon-sym"])
    def test_a_non_lie_holonomy_is_refused_by_its_guard_alone(self, monkeypatch, name, order):
        # t = e^(N-1) (e + f) is of weight N and not a Lie element, and its
        # right quotients by e and f agree, so both vertex-ending halves of
        # the route vanish while the full square does not: only the Lie
        # guard on h stands between the route and a wrong verdict
        model = build_named_model(name, order)
        e, f = model.context.gen("e"), model.context.gen("f")
        t = e + f
        for _ in range(order - 1):
            t = e * t
        p, h = _attached(model, name)
        mutated = replace(model, differential={**model.differential, "g": model.differential["g"] + t})
        assert mutated.differential["g"] == h + t - bracket(p, model.context.gen("g"))
        assert not dgla.models._cell_square_vanishes(mutated, (p, h + t))
        failed = {c.name: c for c in verify_model(mutated).failures()}
        square = extend_differential(mutated, mutated.differential["g"])
        assert square and failed["d_squared_zero[g]"].witness == square
        monkeypatch.setattr(dgla.models, "is_primitive", lambda y, order: True)
        assert dgla.models._cell_square_vanishes(mutated, (p, h + t))

    @pytest.mark.parametrize(
        "vertices, cell", [((), True), (("a",), True), ((), False)], ids=["cell", "cell-and-vertex", "no-cell"]
    )
    def test_edge_image_of_degree_zero_is_refused(self, vertices, cell):
        # An edge image of degree 0, not -1, is refused however the rest
        # would check: De = [f, k] under Dg = e would give D(Dg) = [f, k],
        # which has no vertex-ending word for the 2-cell route to see, and
        # De = f with no 2-cell squares to zero and would verify.
        letters = [(v, -1) for v in vertices] + [("e", 0), ("f", 0)] + ([("k", 0), ("g", 1)] if cell else [])
        ctx = AlgebraContext(letters, 4)
        differential = {name: ctx.zero() for name in ctx.names}
        differential.update({v: Fraction(-1, 2) * bracket(ctx.gen(v), ctx.gen(v)) for v in vertices})
        differential["e"] = bracket(ctx.gen("f"), ctx.gen("k")) if cell else ctx.gen("f")
        if cell:
            differential["g"] = ctx.gen("e")
        boundary0 = {name: weight_component(d, 1) for name, d in differential.items()}
        closure = {name: frozenset(ctx.names) for name in ctx.names}
        with pytest.raises(ModelError) as caught:
            CellModel(ctx, boundary0, differential, closure)
        assert str(caught.value) == "De must have degree -1, got 0 (at differential.e)"

    def test_second_cell_takes_the_full_square(self, monkeypatch):
        # g and h are both attached along the disc's loop, a model no
        # builder makes: neither cell takes the 2-cell route, and the full
        # Leibniz square of each is zero
        ctx = AlgebraContext([("a", -1), ("e", 0), ("g", 1), ("h", 1)], 4)
        a, e = ctx.gen("a"), ctx.gen("e")
        differential = {"a": Fraction(-1, 2) * bracket(a, a), "e": bracket(e, a)}
        differential.update(g=e - bracket(a, ctx.gen("g")), h=e - bracket(a, ctx.gen("h")))
        model = CellModel(
            ctx,
            {name: weight_component(d, 1) for name, d in differential.items()},
            differential,
            {name: frozenset(differential) for name in differential},
        )
        monkeypatch.setattr(dgla.models, "_cell_square_vanishes", None)
        assert verify_model(model).overall


class TestVerificationFailures:
    def test_broken_square_is_caught_with_witness(self, bigon_sym):
        ctx = bigon_sym.context
        e, f = ctx.gen("e"), ctx.gen("f")
        mutated = replace(
            bigon_sym,
            differential={**bigon_sym.differential, "g": bigon_sym.differential["g"] + bracket(e, f)},
        )
        report = verify_model(mutated)
        failed = {c.name: c for c in report.failures()}
        assert "d_squared_zero[g]" in failed
        # expected witness, computed explicitly: the perturbed square is
        # D([e, f]) plus the perturbation substituted for the letter g
        # inside -[x, g], which contributes +[x, [e, f]] after the
        # Koszul sign of the odd prefix x
        de = bigon_sym.differential["e"]
        df = bigon_sym.differential["f"]
        x = compute_symmetric_data(6).x.in_context(ctx)
        expected = bracket(de, f) + bracket(e, df) + bracket(x, bracket(e, f))
        assert failed["d_squared_zero[g]"].witness == expected

    @pytest.mark.parametrize(
        "generator, letter, degrees", [("g", "a", "[-1, 0]"), ("e", "e", "[-1, 0]"), ("a", "e", "[-2, 0]")]
    )
    def test_mixed_degree_differential_raises(self, generator, letter, degrees):
        # refused when the model is made, as a ModelError at the entry
        model = build_named_model("bigon-sym", 5)
        mixed = model.differential[generator] + model.context.gen(letter)
        with pytest.raises(ModelError) as caught:
            replace(model, differential={**model.differential, generator: mixed})
        assert caught.value.position == f"differential.{generator}"
        assert str(caught.value) == f"element has mixed degrees {degrees} (at differential.{generator})"

    @pytest.mark.parametrize(
        "field, entry, message",
        [
            ("boundary0", "order-5", "element does not belong to the model's context"),
            ("differential", "order-5", "element does not belong to the model's context"),
            ("closure", "undeclared", "closure must be a frozenset of declared generators"),
            ("closure", "mutable", "closure must be a frozenset of declared generators"),
        ],
        ids=["boundary0-order-5", "differential-order-5", "closure-undeclared", "closure-mutable"],
    )
    def test_ill_formed_entry_raises(self, field, entry, message):
        # the constructor and dataclasses.replace refuse the entry at fault:
        # an element of the order-5 model, which would encode and then fail
        # to decode, a closure naming zz, which the envelope would drop, or
        # a mutable set
        model = build_named_model("circle2", 4)
        value = {
            "order-5": getattr(build_named_model("circle2", 5), field)["e"],
            "undeclared": model.closure["e"] | {"zz"},
            "mutable": set(model.closure["e"]),
        }[entry]
        tables = {"boundary0": model.boundary0, "differential": model.differential, "closure": model.closure}
        tables[field] = {**tables[field], "e": value}
        for make in (lambda: replace(model, **{field: tables[field]}), lambda: CellModel(model.context, **tables)):
            with pytest.raises(ModelError) as caught:
                make()
            assert str(caught.value) == f"{message} (at {field}.e)"

    def test_missing_boundary_is_caught(self, bigon_sym):
        ctx = bigon_sym.context
        dropped = bigon_sym.differential["g"] - (ctx.gen("e") + ctx.gen("f"))
        mutated = replace(bigon_sym, differential={**bigon_sym.differential, "g": dropped})
        report = verify_model(mutated)
        assert not report.overall
        assert any(c.name == "boundary_matches_weight1[g]" for c in report.failures())

    def test_locality_violation_is_caught(self, circle):
        ctx = circle.context
        stray = bracket(ctx.gen("f"), circle.differential["e"])
        mutated = replace(
            circle, differential={**circle.differential, "e": circle.differential["e"] + stray}
        )
        report = verify_model(mutated)
        assert any(c.name == "locality[e]" for c in report.failures())

    def test_report_json_shape(self, bigon_sym):
        payload = verify_model(bigon_sym, subject="bigon-sym").to_json_dict()
        assert payload["overall"] is True
        assert payload["subject"] == "bigon-sym"
        assert all(check["witness"] is None for check in payload["checks"])


class TestSymmetryLookup:
    def test_known_morphisms(self, circle, disc, bigon_sym):
        rotation = {"a": "b", "b": "a", "e": "f", "f": "e"}
        expected = [
            ("circle2", circle.context, "sigma", rotation),
            ("circle2", circle.context, "iota", {"e": "-f", "f": "-e"}),
            ("bigon-sym", bigon_sym.context, "sigma", rotation),
            ("bigon-sym", bigon_sym.context, "iota", {"e": "-f", "f": "-e", "g": "-g"}),
            ("disc1", disc.context, "iota", {"e": "-e", "g": "-g"}),
        ]
        for name, ctx, which, mapping in expected:
            assert symmetry_morphism(name, ctx, which) == GeneratorMorphism(ctx, mapping), (name, which)

    def test_unknown_morphisms(self, disc):
        with pytest.raises(KeyError):
            symmetry_morphism("disc1", disc.context, "sigma")
        with pytest.raises(KeyError):
            symmetry_morphism("point", disc.context, "iota")


class TestModelEnvelope:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_round_trip(self, name):
        model = build_named_model(name, 5)
        decoded_name, decoded = decode_model(encode_model(model, name))
        assert decoded_name == name
        assert decoded.context == model.context
        assert decoded.order == model.order
        assert dict(decoded.boundary0) == dict(model.boundary0)
        assert dict(decoded.differential) == dict(model.differential)
        assert dict(decoded.closure) == dict(model.closure)
        report = verify_model(decoded, subject=name)
        assert report.overall
        assert json.dumps(report.to_json_dict()) == json.dumps(verify_model(model, subject=name).to_json_dict())

    def test_envelope_fields(self, bigon_sym):
        payload = json.loads(encode_model(bigon_sym, "bigon-sym"))
        assert payload["model"] == "bigon-sym"
        assert payload["order"] == 6
        assert [g["name"] for g in payload["generators"]] == ["a", "b", "e", "f", "g"]
        assert payload["closure"]["g"] == ["a", "b", "e", "f", "g"]
        assert payload["boundary0"]["a"] == []

    def test_bad_coefficient_reports_path(self, circle):
        payload = json.loads(encode_model(circle, "circle2"))
        payload["differential"]["a"][0]["coeff"] = "2/4"
        with pytest.raises(SeriesParseError) as info:
            decode_model(json.dumps(payload))
        assert "differential.a" in str(info.value.position)

    def test_missing_table_rejected(self, circle):
        payload = json.loads(encode_model(circle, "circle2"))
        del payload["closure"]["e"]
        with pytest.raises(SeriesParseError):
            decode_model(json.dumps(payload))

    def test_decode_model_syntax_error(self):
        with pytest.raises(SeriesParseError):
            decode_model("{")

    def test_decode_model_deep_nesting_rejected(self):
        with pytest.raises(SeriesParseError):
            decode_model("[" * 100000)

    def test_envelope_is_valid_json(self, circle):
        json.loads(encode_model(circle, "circle2"))


def _json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(max_size=8)
        | st.sampled_from(["1/2", "-3/1", "0/1", "2/4", "1/-2", "a", "e", "g", "x"])
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def _mutated_payloads(draw):
    # a valid series or model payload with one subtree replaced, so that
    # validation deep inside the schema is reached
    circle = build_named_model("circle2", 3)
    ctx = circle.context
    bases = [
        json.loads(encode(bch([ctx.gen("e"), Fraction(1, 3) * ctx.gen("f")]), label="s")),
        json.loads(encode_model(circle, "circle2")),
    ]
    base = draw(st.sampled_from(bases))
    path = draw(st.sampled_from(list(_paths(base))))
    return json.dumps(_replaced(base, path, draw(_json_values())))


class TestDecoderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet='{}[]",:0123456789-/. aegnt'),
            _json_values().map(json.dumps),
            _mutated_payloads(),
        )
    )
    def test_only_series_parse_error_escapes(self, text):
        for decoder in (decode, decode_model):
            try:
                decoder(text)
            except SeriesParseError:
                pass

    # a context holds one bucket per weight: a short payload must not
    # declare millions of them
    _GENERATORS = {"generators": [{"name": "a", "degree": -1}]}

    def test_series_order_past_the_bound_rejected(self):
        series = {**self._GENERATORS, "series": {"label": "s", "terms": []}}
        for order in (65, 10_000_000):
            with pytest.raises(SeriesParseError) as caught:
                decode(json.dumps({**series, "order": order}))
            assert caught.value.position == "order"
        assert decode(json.dumps({**series, "order": 64})).context.max_weight == 64

    def test_model_order_past_the_bound_rejected(self):
        tables = {field: {"a": []} for field in ("boundary0", "differential")}
        envelope = {"model": "m", **self._GENERATORS, **tables, "closure": {"a": ["a"]}}
        for order in (65, 10_000_000):
            with pytest.raises(SeriesParseError) as caught:
                decode_model(json.dumps({**envelope, "order": order}))
            assert caught.value.position == "order"
        assert decode_model(json.dumps({**envelope, "order": 64}))[1].order == 64

    def test_overlong_numbers_rejected(self):
        # longer than the interpreter's limit on int <-> str conversion
        for decoder in (decode, decode_model):
            with pytest.raises(SeriesParseError):
                decoder("1" * 5000)
        payload = json.loads(encode(build_named_model("circle2", 3).differential["a"]))
        payload["series"]["terms"][0]["coeff"] = "1/" + "3" * 5000
        with pytest.raises(SeriesParseError):
            decode(json.dumps(payload))


# One valid series at order 3, and per case a defect put into it, with
# the message and position the decoder reports.
_HEADER = {
    "order": 3,
    "generators": [{"name": "a", "degree": -1}, {"name": "b", "degree": -1}, {"name": "e", "degree": 0}],
}
_TERMS = [
    {"coeff": "1/1", "word": ["b"]},
    {"coeff": "-1/2", "word": ["e", "a"]},
    {"coeff": "1/3", "word": ["e", "e", "b"]},
]
_DIGITS = "1" * 4301  # past the interpreter's limit on int <-> str conversion


def _series(i, term):
    terms = [*_TERMS[:i], term, *_TERMS[i + 1 :]]
    return json.dumps({**_HEADER, "series": {"label": "s", "terms": terms}})


def _envelope_letter(letters):
    payload = json.loads(encode_model(build_named_model("disc1", 3), "disc1"))
    payload["differential"]["g"][2]["word"] = letters
    return json.dumps(payload)


def _envelope(field, key, value):
    payload = json.loads(encode_model(build_named_model("disc1", 3), "disc1"))
    payload[field][key] = value
    return json.dumps(payload)


def _digit_limit_message():
    with pytest.raises(ValueError) as caught:
        int(_DIGITS)
    return str(caught.value)


_REJECTIONS = {  # case: (text, message, position)
    "term-not-an-object": (
        lambda: _series(1, ["e", "a"]),
        "term must be an object",
        "series.terms[1]",
    ),
    "extra-field": (
        lambda: _series(1, {**_TERMS[1], "weight": 2}),
        "unknown term fields ['weight']",
        "series.terms[1]",
    ),
    "reducible": (
        lambda: _series(0, {"coeff": "2/4", "word": ["b"]}),
        "coefficient '2/4' is not in lowest terms",
        "series.terms[0].coeff",
    ),
    "zero": (
        lambda: _series(0, {"coeff": "0/1", "word": ["b"]}),
        "zero coefficients are never stored",
        "series.terms[0].coeff",
    ),
    "negative-denominator": (
        lambda: _series(0, {"coeff": "1/-2", "word": ["b"]}),
        "coefficient '1/-2' is not of the form p/q with q > 0",
        "series.terms[0].coeff",
    ),
    "trailing-newline": (
        lambda: _series(0, {"coeff": "1/1\n", "word": ["b"]}),
        "coefficient '1/1\\n' is not of the form p/q with q > 0",
        "series.terms[0].coeff",
    ),
    "numerator-past-the-digit-limit": (
        lambda: _series(0, {"coeff": _DIGITS + "/1", "word": ["b"]}),
        _digit_limit_message,
        "series.terms[0].coeff",
    ),
    "word-not-a-list": (
        lambda: _series(1, {"coeff": "-1/2", "word": "ea"}),
        "word must be a nonempty list",
        "series.terms[1].word",
    ),
    "empty-word": (
        lambda: _series(1, {"coeff": "-1/2", "word": []}),
        "word must be a nonempty list",
        "series.terms[1].word",
    ),
    "non-string-letter": (
        lambda: _series(1, {"coeff": "-1/2", "word": ["e", 1]}),
        "word letters must be generator names",
        "series.terms[1].word[1]",
    ),
    "unknown-letter": (
        lambda: _series(2, {"coeff": "1/3", "word": ["e", "e", "z"]}),
        "unknown generator 'z'",
        "series.terms[2].word[2]",
    ),
    "overweight-word": (
        lambda: _series(2, {"coeff": "1/3", "word": ["e", "e", "b", "a"]}),
        "word of weight 4 exceeds order 3",
        "series.terms[2].word",
    ),
    "out-of-order": (
        lambda: json.dumps({**_HEADER, "series": {"label": "s", "terms": [_TERMS[1], _TERMS[0], _TERMS[2]]}}),
        "terms are not in canonical order",
        "series.terms[1]",
    ),
    "duplicate-word": (
        lambda: _series(2, {"coeff": "1/3", "word": ["e", "a"]}),
        "terms are not in canonical order",
        "series.terms[2]",
    ),
    "generator-extra-field": (
        lambda: json.dumps({
            **_HEADER,
            "generators": [*_HEADER["generators"][:2], {"name": "e", "degree": 0, "parity": 0}],
            "series": {"label": "s", "terms": _TERMS},
        }),
        "unknown generator fields ['parity']",
        "generators[2]",
    ),
    "series-extra-field": (
        lambda: json.dumps({**_HEADER, "series": {"label": "s", "terms": _TERMS, "order": 3}}),
        "unknown series fields ['order']",
        "series",
    ),
    "payload-extra-field": (
        lambda: json.dumps({**_HEADER, "series": {"label": "s", "terms": _TERMS}, "junk": 1}),
        "unknown payload fields ['junk']",
        "$",
    ),
    "payload-model-field": (
        lambda: json.dumps({"model": "m", **_HEADER, "series": {"label": "s", "terms": _TERMS}}),
        "unknown payload fields ['model']",
        "$",
    ),
    "envelope-extra-field": (
        lambda: json.dumps({**json.loads(encode_model(build_named_model("disc1", 3), "disc1")), "junk": 1}),
        "unknown envelope fields ['junk']",
        "$",
    ),
    "envelope-generator-extra-field": (
        lambda: _envelope("generators", 1, {"name": "e", "degree": 0, "closure": ["a", "e"]}),
        "unknown generator fields ['closure']",
        "generators[1]",
    ),
    "envelope-closure-repeated": (
        lambda: _envelope("closure", "a", ["a", "a"]),
        "closure entries must list declared generator names once, in generator order",
        "closure.a",
    ),
    "envelope-closure-out-of-order": (
        lambda: _envelope("closure", "e", ["e", "a"]),
        "closure entries must list declared generator names once, in generator order",
        "closure.e",
    ),
    "envelope-closure-unknown-name": (
        lambda: _envelope("closure", "e", ["a", "z"]),
        "closure entries must list declared generator names once, in generator order",
        "closure.e",
    ),
    "envelope-boundary0-keys": (
        lambda: _envelope("boundary0", "z", []),
        "boundary0 must map exactly the declared generators",
        "boundary0",
    ),
    "envelope-differential-g": (
        lambda: _envelope_letter(["g", "x"]),
        "unknown generator 'x'",
        "differential.g[2].word[1]",
    ),
    # a well-formed envelope of an ill-formed model: the constructor's refusal
    "envelope-differential-wrong-degree": (
        lambda: _envelope("differential", "e", [{"coeff": "1/1", "word": ["e"]}]),
        "De must have degree -1, got 0",
        "differential.e",
    ),
    "envelope-differential-mixed-degree": (
        lambda: _envelope("differential", "e", [{"coeff": "1/1", "word": [x]} for x in "ae"]),
        "element has mixed degrees [-1, 0]",
        "differential.e",
    ),
    # where a term has two defects, the check that comes first reports
    "fields-before-coefficient": (
        lambda: _series(1, {"coeff": "2/4", "word": ["e", "a"], "w": 1}),
        "unknown term fields ['w']",
        "series.terms[1]",
    ),
    "coefficient-before-word": (
        lambda: _series(1, {"coeff": "2/4", "word": []}),
        "coefficient '2/4' is not in lowest terms",
        "series.terms[1].coeff",
    ),
    "unknown-letter-before-non-string": (
        lambda: _series(1, {"coeff": "-1/2", "word": ["z", 1]}),
        "unknown generator 'z'",
        "series.terms[1].word[0]",
    ),
    "non-string-before-unknown-letter": (
        lambda: _series(1, {"coeff": "-1/2", "word": [None, "z"]}),
        "word letters must be generator names",
        "series.terms[1].word[0]",
    ),
    "letters-before-weight": (
        lambda: _series(2, {"coeff": "1/3", "word": ["e", "e", "b", "z"]}),
        "unknown generator 'z'",
        "series.terms[2].word[3]",
    ),
    "letters-before-order": (
        lambda: _series(2, {"coeff": "1/3", "word": ["b", "z"]}),
        "unknown generator 'z'",
        "series.terms[2].word[1]",
    ),
}


class TestDecoderRejections:
    @pytest.mark.parametrize("case", sorted(_REJECTIONS))
    def test_message_and_position(self, case):
        make_text, message, position = _REJECTIONS[case]
        message = message() if callable(message) else message
        decoder = decode_model if case.startswith("envelope") else decode
        with pytest.raises(SeriesParseError) as caught:
            decoder(make_text())
        assert caught.value.position == position
        assert str(caught.value) == f"{message} (at {position})"


class TestGenericOneComplex:
    def test_theta_graph_model_verifies(self):
        theta = OneComplex(
            ("a", "b"),
            (("e", "a", "b"), ("f", "b", "a"), ("h", "a", "b")),
        )
        model = build_one_complex(theta, 5)
        assert verify_model(model).overall

    def test_equal_complexes_share_one_model(self):
        # the builder is memoized per complex and order; lists are kept as tuples
        listed = OneComplex(["a", "b"], [["e", "a", "b"]])
        interval = OneComplex(("a", "b"), (("e", "a", "b"),))
        assert listed == interval
        assert build_one_complex(listed, 4) is build_one_complex(interval, 4)

    def test_wedge_of_loops_verifies(self):
        wedge = OneComplex(("a",), (("e", "a", "a"), ("f", "a", "a")))
        model = build_one_complex(wedge, 5)
        assert verify_model(model).overall
        ctx = model.context
        assert model.differential["e"] == bracket(ctx.gen("e"), ctx.gen("a"))
