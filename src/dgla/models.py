"""Cell-complex models: builders, symmetry morphisms, and verification.

A :class:`CellModel` assigns every generator a geometric boundary (the
bracket-free part of its differential) and a full differential series,
all at a fixed truncation order.  Every model is built one cell at a
time by one builder: vertices get the flatness differential
``-1/2 [a, a]``, edges the Bernoulli edge series, and an optional
2-cell ``g``, attached along the loop through every edge, gets
``Dg = (holonomy of its boundary loop) - [basepoint, g]``.
:func:`build_one_complex` covers arbitrary 1-complexes; the catalogue
behind :func:`build_named_model` adds the point, the interval, the
two-vertex circle, the disc with a single vertex, the two bigon models
based at a vertex, and the dihedrally symmetric bigon.  The symmetric
bigon's basepoint ``x`` and holonomy ``q`` (:func:`compute_symmetric_data`)
are those of the bigon based at ``a``, both flowed by the midpoint
direction ``v`` for time 1/2.  Each catalogued symmetry is a generator
map, resolved by :func:`symmetry_morphism`.

Every builder verifies the model it returns and raises
:class:`RuntimeError` naming the failed checks.  The checks run once
per model instance; :func:`verify_model` returns that stored result
instead of recomputing it.  A model with a 2-cell is built on the
verified model of its 1-skeleton: it inherits the skeleton's checks and
computes only the 2-cell's, deciding its square from the basepoint and
holonomy the builder attached.  Decoded models and copies (by
:func:`dataclasses.replace`, :func:`copy.deepcopy` or :mod:`pickle`) run
every check, and take the full Leibniz square of every generator.
:func:`build_one_complex`, :func:`build_named_model` and
:func:`compute_symmetric_data` are memoized; models are immutable, so
the cached instances are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .algebra import (
    DEFAULT_ORDER,
    AlgebraContext,
    AlgebraElement,
    Generator,
    GeneratorMorphism,
    GradingError,
    SeriesParseError,
    _context_from_json,
    _context_json,
    _dump_json,
    _element_from_json_terms,
    _ending_in,
    _expect_fields,
    _load_json,
    _odd_derivation,
    _product,
    _right_normed,
    _terms_to_json,
    _terms_using,
    apply_morphism,
    bracket,
    is_primitive,
    weight_component,
)
from .calculus import (
    ModelError,
    _binomial,
    _logarithm,
    _power_series,
    _require_degree,
    _vertex_flows,
    bch,
    edge_differential,
    exp_assoc,
    extend_differential,
    flow,
    log_assoc,
    maurer_cartan_defect,
)

__all__ = [
    "CellModel",
    "MODEL_NAMES",
    "ModelCheck",
    "OneComplex",
    "SymmetricBigonData",
    "VerificationReport",
    "build_named_model",
    "build_one_complex",
    "check_equivariance",
    "compare_reference_second_order",
    "compute_symmetric_data",
    "decode_model",
    "encode_model",
    "symmetry_morphism",
    "verify_model",
]


@dataclass(frozen=True)
class OneComplex:
    """A finite graph: named vertices and directed, named edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...] = ()  # (name, source, target)

    def __post_init__(self) -> None:
        # kept as tuples, so that a complex is hashable: build_one_complex is memoized
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(edge) for edge in self.edges))
        names = list(self.vertices) + [e[0] for e in self.edges]
        if len(set(names)) != len(names):
            raise ValueError("vertex and edge names must be unique")
        vertex_set = set(self.vertices)
        for name, source, target in self.edges:
            if source not in vertex_set or target not in vertex_set:
                raise ValueError(f"edge {name!r} has an undeclared endpoint")


@dataclass(frozen=True)
class CellModel:
    """Generators with boundary data and a differential, at a fixed order.

    ``boundary0`` maps each generator to the bracket-free part of its
    differential; ``closure`` lists, for each generator, the generators
    of the cells its differential is allowed to touch (the locality
    constraint).  ``order`` is the truncation order of ``context``.
    Making one, by :func:`dataclasses.replace` too, raises
    :class:`~dgla.calculus.ModelError` unless each table maps exactly the
    generators into ``context`` and each ``Dg`` is zero or homogeneous of
    degree ``|g| - 1``.  The tables are kept as read-only copies.  A
    model is not hashable: its elements compare by value only.
    :func:`copy.deepcopy` and :mod:`pickle` rebuild a model through this
    constructor, so a copy, like a decoded model, computes its checks
    afresh and takes the full Leibniz square of every generator.
    """

    __hash__ = None  # type: ignore[assignment]

    context: AlgebraContext
    boundary0: Mapping[str, AlgebraElement]
    differential: Mapping[str, AlgebraElement]
    closure: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        context, declared = self.context, set(self.context.names)
        for field in ("boundary0", "differential", "closure"):
            table = getattr(self, field)
            if not isinstance(table, Mapping) or table.keys() != declared:
                raise ModelError(f"{field} must map exactly the declared generators", field)
            object.__setattr__(self, field, MappingProxyType({name: table[name] for name in context.names}))
        for g in context.generators:
            for field, x in (("boundary0", self.boundary0[g.name]), ("differential", self.differential[g.name])):
                if not isinstance(x, AlgebraElement) or x.context != context:
                    raise ModelError("element does not belong to the model's context", f"{field}.{g.name}")
            try:
                _require_degree(self.differential[g.name], g.degree - 1, f"D{g.name}")
            except GradingError as exc:
                raise ModelError(str(exc), f"differential.{g.name}") from None
            if not isinstance(self.closure[g.name], frozenset) or not self.closure[g.name] <= declared:
                raise ModelError("closure must be a frozenset of declared generators", f"closure.{g.name}")

    def __reduce__(self) -> tuple:  # copies go through the constructor, from plain dicts
        return CellModel, (self.context, dict(self.boundary0), dict(self.differential), dict(self.closure))

    @property
    def order(self) -> int:
        return self.context.max_weight

    @cached_property
    def _checks(self) -> tuple[ModelCheck, ...]:
        # computed once per instance, unless a builder stored it (_build);
        # a dataclasses.replace copy starts afresh
        return _model_checks(self)


@dataclass(frozen=True)
class SymmetricBigonData:
    """The midpoint construction: direction ``v``, point ``x``, kernel element ``q``."""

    v: AlgebraElement
    x: AlgebraElement
    q: AlgebraElement


@dataclass(frozen=True)
class ModelCheck:
    name: str
    passed: bool
    witness: AlgebraElement | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a model verification or equivariance run.

    ``overall`` is the conjunction of the individual checks; failing
    checks carry the offending nonzero element as a witness.
    """

    subject: str
    order: int
    checks: tuple[ModelCheck, ...]

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[ModelCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "order": self.order,
            "overall": self.overall,
            "checks": [
                {
                    "name": check.name,
                    "pass": check.passed,
                    "witness": None if check.witness is None else _terms_to_json(check.witness),
                }
                for check in self.checks
            ],
        }


# -- complexes and builders ----------------------------------------------


def _verified(model: CellModel) -> CellModel:
    failed = [check.name for check in model._checks if not check.passed]
    if failed:
        raise RuntimeError(f"model fails its checks: {', '.join(failed)}")
    return model


# A 2-cell's data: its basepoint and the holonomy of its boundary loop,
# built in the context of the skeleton it is attached to, so neither has
# the letter g.  The basepoint is a generator or a _right_normed output,
# so it is the right-normed bracketing of its words that end in a vertex.
# These are what the 2-cell route (_cell_square_vanishes) needs of the
# pair, so only a builder, which holds it, can take that route.
_CellPair = tuple[AlgebraElement, AlgebraElement]
_CellData = Callable[[AlgebraContext], _CellPair]


@lru_cache(maxsize=None)
def build_one_complex(complex_: OneComplex, order: int = DEFAULT_ORDER) -> CellModel:
    """The model of a 1-complex: flat vertices, Bernoulli edge series.

    Memoized per complex and order: the returned model is shared, with
    every caller and with each cell model built on it as its skeleton.
    """
    entries = [(v, -1) for v in complex_.vertices]
    entries += [(name, 0) for name, _, _ in complex_.edges]
    context = AlgebraContext(entries, max_weight=order)
    boundary0: dict[str, AlgebraElement] = {}
    differential: dict[str, AlgebraElement] = {}
    closure: dict[str, frozenset[str]] = {}
    for v in complex_.vertices:
        boundary0[v] = context.zero()
        differential[v] = Fraction(-1, 2) * bracket(context.gen(v), context.gen(v))
        closure[v] = frozenset({v})
    for name, source, target in complex_.edges:
        boundary0[name] = context.gen(target) - context.gen(source)
        differential[name] = edge_differential(context, name, source, target)
        closure[name] = frozenset({name, source, target})
    return _verified(CellModel(context, boundary0, differential, closure))


def _build(complex_: OneComplex, order: int, cell: _CellData | None) -> CellModel:
    # The skeleton's model, or with ``cell`` a 2-cell g attached to it along
    # the loop through every edge: its boundary is the sum of the edges,
    # its closure is every generator, and Dg = holonomy - [basepoint, g].
    # No differential of the skeleton has the letter g, so each of its
    # checks reads the same in the larger model: they are inherited, and
    # only g's are computed.
    skeleton = build_one_complex(complex_, order)
    if cell is None:
        return skeleton
    entries = [(g.name, g.degree) for g in skeleton.context.generators]
    context = AlgebraContext([*entries, ("g", 1)], max_weight=order)
    basepoint, holonomy = (y.in_context(context) for y in cell(skeleton.context))
    boundary0 = {name: y.in_context(context) for name, y in skeleton.boundary0.items()}
    differential = {name: y.in_context(context) for name, y in skeleton.differential.items()}
    closure = dict(skeleton.closure)
    boundary0["g"] = context.element({(name,): 1 for name, _, _ in complex_.edges})
    differential["g"] = holonomy - bracket(basepoint, context.gen("g"))
    closure["g"] = frozenset(context.names)
    model = CellModel(context, boundary0, differential, closure)
    own = _model_checks(model, (basepoint, holonomy))
    # the report order of _model_checks: family by family, g last in each
    checks = sorted(
        skeleton._checks + own, key=lambda check: _FAMILIES.index(check.name.partition("[")[0])
    )
    object.__setattr__(model, "_checks", tuple(checks))  # the cached_property's value
    return _verified(model)


@lru_cache(maxsize=None)
def compute_symmetric_data(order: int = DEFAULT_ORDER) -> SymmetricBigonData:
    """Construct the symmetric midpoint data over the two-vertex circle.

    ``v`` interpolates the two edge directions symmetrically:
    ``v = bch(-1/2 bch(e, f), e)``, so flowing by ``v`` for unit time
    carries one vertex to the other.  The loop ``bch(e, f)`` and
    ``exp(-1/2 bch(e, f))`` are two series in the powers of
    ``exp(e) exp(f) - 1``, its logarithm and its inverse square root,
    each one Horner pass, so only ``v`` takes a logarithm of its own.
    ``x`` and ``q`` are the basepoint ``a`` and the holonomy
    ``bch(e, f)`` of ``bigon-a``, both flowed by ``v`` for time 1/2.
    The midpoint ``x`` is flowed in vertex-module
    coordinates (words ending in a vertex, each step a left
    multiplication by ``v``) and bracketed back; the degree-0 holonomy
    flows to ``q = exp(-1/2 ad_v) bch(e, f)``, which spans the kernel of
    the differential twisted by ``x``, with weight-1 part ``e + f``.
    One internal cross-check guards the construction, and it is the
    only :class:`RuntimeError` raised here: the coordinates of the
    unit-time flow of ``a`` by ``v``, from the same route as ``x``, must
    be those of ``b`` on the nose.  Results live in the circle context
    and are cached per order.
    """
    circle = build_named_model("circle2", order)
    context = circle.context
    a, b = context.gen("a"), context.gen("b")
    half = Fraction(1, 2)
    exp_e, exp_f = exp_assoc(context.gen("e")), exp_assoc(context.gen("f"))
    # Two series in the powers of z = e^e e^f - 1 (the unit implicit) give
    # the loop log(1 + z) = bch(e, f) and w = (1 + z)^(-1/2) - 1, which is
    # e^(-loop/2) - 1, so that v = log((1 + w) e^e) = bch(-1/2 loop, e).
    z = exp_e + exp_f + exp_e * exp_f
    loop, w = _power_series(z, [_logarithm(order), _binomial(-half, order)])
    v = log_assoc(w + exp_e + w * exp_e)
    midpoint, unit_time = _vertex_flows(circle, v, a, (half, 1))
    if unit_time != b:
        raise RuntimeError("unit-time flow by the midpoint direction misses the far vertex")
    q = flow(circle, v, loop, half)
    return SymmetricBigonData(v=v, x=_right_normed(midpoint), q=q)


# -- the catalogue -------------------------------------------------------------


def _based_at(vertex: str, *loop: str) -> _CellData:
    """Basepoint ``vertex``; holonomy ``bch`` of the loop's edges read from it."""

    def cell(context: AlgebraContext) -> _CellPair:
        return context.gen(vertex), bch([context.gen(edge) for edge in loop])

    return cell


def _midpoint(context: AlgebraContext) -> _CellPair:
    # the symmetric choice: basepoint x, holonomy q (compute_symmetric_data),
    # both in the circle's context; [x, g] stops at the order, so the top
    # weight of x, most of its words, is dropped before x is moved into
    # the model's context
    order = context.max_weight
    data = compute_symmetric_data(order)
    return data.x - weight_component(data.x, order), data.q


class _Entry(NamedTuple):
    skeleton: OneComplex
    cell: _CellData | None
    symmetries: Mapping[str, Mapping[str, str]]  # name -> generator map


# a circle subdivided into two vertices and two edges
_CIRCLE = OneComplex(("a", "b"), (("e", "a", "b"), ("f", "b", "a")))

# sigma swaps the vertices and the edges and fixes the 2-cell; iota
# reverses both edges into each other and flips the 2-cell
_ROTATION = {"a": "b", "b": "a", "e": "f", "f": "e"}
_REFLECTION = {"e": "-f", "f": "-e"}
_CIRCLE_SYMMETRIES = {"sigma": _ROTATION, "iota": _REFLECTION}
_BIGON_SYMMETRIES = {"sigma": _ROTATION, "iota": {**_REFLECTION, "g": "-g"}}

# The disc's loop edge gets De = [e, a], since T/(1 - e^T) + T/(1 - e^-T) = T.
# Both based bigons are invariant under the reflection but not under the
# rotation, which carries one to the other; the symmetric bigon has both.
_CATALOGUE = {
    "point": _Entry(OneComplex(("a",)), None, {}),
    "interval": _Entry(OneComplex(("a", "b"), (("e", "a", "b"),)), None, {}),
    "circle2": _Entry(_CIRCLE, None, _CIRCLE_SYMMETRIES),
    "disc1": _Entry(
        OneComplex(("a",), (("e", "a", "a"),)),
        _based_at("a", "e"),
        {"iota": {"e": "-e", "g": "-g"}},  # reverse the loop edge and the 2-cell
    ),
    "bigon-a": _Entry(_CIRCLE, _based_at("a", "e", "f"), _BIGON_SYMMETRIES),
    "bigon-b": _Entry(_CIRCLE, _based_at("b", "f", "e"), _BIGON_SYMMETRIES),
    "bigon-sym": _Entry(_CIRCLE, _midpoint, _BIGON_SYMMETRIES),
}

MODEL_NAMES = tuple(_CATALOGUE)


@lru_cache(maxsize=None)
def build_named_model(name: str, order: int = DEFAULT_ORDER) -> CellModel:
    """Build one of the catalogued models by name (cached, shareable)."""
    entry = _CATALOGUE.get(name)
    if entry is None:
        raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return _build(entry.skeleton, order, entry.cell)


def symmetry_morphism(model_name: str, context: AlgebraContext, which: str) -> GeneratorMorphism:
    """Resolve ``sigma``/``iota`` to the generator map a named model
    supports, as a morphism of ``context``."""
    entry = _CATALOGUE.get(model_name)
    if entry is None or which not in entry.symmetries:
        raise KeyError(f"model {model_name!r} has no morphism {which!r}")
    return GeneratorMorphism(context, entry.symmetries[which])


# -- verification ------------------------------------------------------------


def verify_model(model: CellModel, subject: str = "model") -> VerificationReport:
    """Report the outcome of each defining check of a cell model.

    Checks, per generator where applicable: the differential squares to
    zero at the model's order; vertices satisfy the flatness equation;
    the weight-1 part of each differential equals the stored geometric
    boundary; each differential only involves generators in the closure
    of its cell.  Failures carry the offending element as a witness.
    The checks run once per model instance, so a model a builder returns
    (and so has verified) is reported without recomputing them.

    The square of a built 2-cell ``g`` with ``Dg = h - [p, g]``
    (basepoint ``p``, holonomy ``h``, both handed over by the builder) is
    decided without expanding ``D(Dg)``, from the words that end in a
    vertex of ``D_p(h)`` and ``MC(p)``, when it passes a Lie-membership
    guard; :func:`_model_checks` gives the argument.  Otherwise, when
    that route cannot prove the square zero, and for every generator of
    a decoded or replaced copy, the full Leibniz ``D(Dg)`` gives the
    verdict and the witness.
    """
    return VerificationReport(subject, model.order, model._checks)


# the check families of a report, in report order
_FAMILIES = ("d_squared_zero", "vertex_flatness", "boundary_matches_weight1", "locality")


def _model_checks(model: CellModel, attached: _CellPair | None = None) -> tuple[ModelCheck, ...]:
    """Every check of :func:`verify_model`, in report order: of every
    generator, or with ``attached``, the basepoint and holonomy a builder
    made ``Dg`` from, of its 2-cell ``g`` only.

    ``d_squared_zero`` of a generator is ``D(D(g))`` by the Leibniz rule
    (:func:`extend_differential`), except that the square of a builder's
    2-cell is first decided through its basepoint ``p`` and holonomy
    ``h``.  Its differential is ``Dg = h - [p, g]``.  Since ``D[p, g] =
    [Dp, g] - [p, Dg]`` and ``[p, [p, g]] = 1/2 [[p, p], g]`` for odd
    ``p``, the tensor algebra gives, with no Lie hypothesis,
    ``D(Dg) = D_p(h) - [MC(p), g]``, where ``D_p(h) = Dh + [p, h]`` and
    ``MC(p) = Dp + 1/2 [p, p]``.

    The builder's contract (see ``_CellData``): every other generator is
    a vertex (degree -1) or an edge (degree 0) of the skeleton, whose
    differentials, like ``p`` and ``h``, have no letter ``g``, and ``p``
    is the right-normed bracketing of its words that end in a vertex (a
    Lie element by construction).  Then the first summand has no ``g``
    and every word of the second exactly one, so ``D(Dg)`` vanishes
    through weight ``N`` exactly when ``D_p(h)`` does through ``N`` and
    ``MC(p)`` through ``N - 1``.  Every differential has degree one less
    than its generator's, so ``D_p(h)`` and ``MC(p)`` are homogeneous of
    degree -1 and -2, which the projection below needs: an edge image of
    degree 0 would put vertex-free words into ``D_p(h)``, which no
    vertex-ending word sees.

    The guard: ``h`` and the other differentials pass
    :func:`~dgla.algebra.is_primitive` through ``N``.  Then ``D_p(h)``
    and ``MC(p)`` are Lie elements of degree -1 and -2 in the vertices
    and edges, and such an element is zero exactly when its words that
    end in a vertex vanish.  Having nonzero degree, it lies in the ideal
    generated by the vertices, which by Lazard elimination is the free
    Lie algebra on the ad-words ``ad_{y1}...ad_{yk}(s)`` (edges ``y``, a
    vertex ``s``); so it lies in the subalgebra ``T+(M)`` those words
    generate.  By Poincare-Birkhoff-Witt, multiplication ``T(M) (x)
    T(edges) -> T`` is bijective, so ``T+(M)`` meets the words that end
    in an edge only in 0 (Reutenauer, *Free Lie Algebras*, 1993).  The
    vertex-ending parts come from the Leibniz kernel asked for those words
    alone (``algebra._odd_derivation`` with the vertex set): ``end(MC p) =
    end(Dp) + p end(p)`` and, as ``h`` is a series in the edges,
    ``end(D_p h) = end(Dh) - h end(p)``.

    When the guard fails or either part is nonzero, the full ``D(Dg)``
    decides the check and is its witness, so every failure's witness is
    the full square.  A model no builder hands a pair with, decoded or
    replaced, takes the full square of every generator: its 2-cell may
    have any shape, and the Leibniz rule needs none.
    """
    context = model.context
    generators = (context.generator("g"),) if attached else context.generators
    checks = [_verdict(f"d_squared_zero[{g.name}]", _square(model, g, attached)) for g in generators]
    for g in generators:
        if g.degree == -1:
            defect = maurer_cartan_defect(model, context.gen(g.name))
            checks.append(_verdict(f"vertex_flatness[{g.name}]", defect))
    for g in generators:
        difference = weight_component(model.differential[g.name], 1) - model.boundary0[g.name]
        checks.append(_verdict(f"boundary_matches_weight1[{g.name}]", difference))
    for g in generators:
        outside = {h.index for h in context.generators if h.name not in model.closure[g.name]}
        witness = _terms_using(model.differential[g.name], outside)
        checks.append(_verdict(f"locality[{g.name}]", witness))
    return tuple(checks)


def _verdict(name: str, witness: AlgebraElement | None) -> ModelCheck:
    return ModelCheck(name, not witness, witness or None)  # passes on a zero or None witness


def _square(model: CellModel, g: Generator, attached: _CellPair | None) -> AlgebraElement | None:
    if attached and _cell_square_vanishes(model, attached):
        return None  # the 2-cell route proved D(Dg) zero
    return extend_differential(model, model.differential[g.name])  # the full Leibniz D(Dg)


def _cell_square_vanishes(model: CellModel, attached: _CellPair) -> bool:
    # True when the split D(Dg) = D_p(h) - [MC(p), g] proves the square of
    # the builder's 2-cell g zero (see _model_checks); False when it cannot
    p, h = attached
    order = model.order
    others = [g for g in model.context.generators if g.name != "g"]
    images = [model.differential[g.name] for g in others]
    if not all(is_primitive(y, order) for y in (h, *images)):
        return False
    vertices = {g.index for g in others if g.degree == -1}
    ending = _ending_in(p, vertices)
    flatness = _odd_derivation(p, model.differential, order - 1, vertices) + _product(p, ending, order - 1)
    closure = _odd_derivation(h, model.differential, order, vertices) - h * ending
    return not flatness and not closure


def check_equivariance(
    model: CellModel, morphism: GeneratorMorphism, subject: str = "model"
) -> VerificationReport:
    """Check that the morphism commutes with the model's differential.

    The morphism sends each generator ``h`` to ``+-h'``, so ``D`` of the
    image is ``+-D(h')``, read from its signed table with no derivation.
    A failure's witness is the difference of the two sides, formed only
    when they differ.
    """
    checks: list[ModelCheck] = []
    generators = model.context.generators
    for g in generators:
        lhs = apply_morphism(morphism, model.differential[g.name])
        sign, index = morphism._table[g.index]
        rhs = model.differential[generators[index].name]
        if sign < 0:
            rhs = -rhs
        witness = None if lhs == rhs else lhs - rhs
        checks.append(_verdict(f"commutes_with_differential[{g.name}]", witness))
    return VerificationReport(subject, model.order, tuple(checks))


def compare_reference_second_order(order: int = DEFAULT_ORDER) -> bool:
    """Whether our symmetric 2-cell differential departs from the earlier
    published one at three letters.

    Builds the previously published weight-3 term
    ``1/24 ((F - E) G + G (F - E))(b - a)`` with ``E, F, G`` the
    adjoint actions of the edges and the 2-cell, and returns True when
    it differs from the symmetric model's weight-3 component.
    """
    if order < 4:
        raise ValueError(f"comparison needs order >= 4, got {order}")
    model = build_named_model("bigon-sym", order)
    context = model.context
    difference = context.gen("f") - context.gen("e")
    g = context.gen("g")
    span = context.gen("b") - context.gen("a")
    reference = Fraction(1, 24) * (
        bracket(difference, bracket(g, span)) + bracket(g, bracket(difference, span))
    )
    ours = weight_component(model.differential["g"], 3)
    return ours != reference


# -- model serialization ------------------------------------------------------


_ENVELOPE_FIELDS = frozenset(("model", "order", "generators", "boundary0", "closure", "differential"))


def encode_model(model: CellModel, name: str) -> str:
    """The envelope's text, as :func:`~dgla.algebra.encode` writes a series:
    ``json.dumps`` with an indent, the terms read from the stored numerators."""
    gens = model.context.generators
    return _dump_json({
        "model": name,
        **_context_json(model.context),
        "boundary0": {g.name: model.boundary0[g.name] for g in gens},
        "closure": {g.name: [h.name for h in gens if h.name in model.closure[g.name]] for g in gens},
        "differential": {g.name: model.differential[g.name] for g in gens},
    })


def decode_model(text: str) -> tuple[str, CellModel]:
    """Rebuild a model from its envelope text; strict validation throughout."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise SeriesParseError("model envelope must be a JSON object", position="$")
    _expect_fields(data, _ENVELOPE_FIELDS, "envelope", "$")
    name = data.get("model")
    if not isinstance(name, str) or not name:
        raise SeriesParseError("model name must be a nonempty string", position="model")
    context = _context_from_json(data)
    # each table's entries are parsed in place; a table that is not an
    # object maps no generator, which CellModel rejects
    tables = {field: data.get(field) for field in ("boundary0", "differential", "closure")}
    tables = {field: table if isinstance(table, dict) else {} for field, table in tables.items()}
    for field in ("boundary0", "differential"):
        for gname, terms in tables[field].items():
            tables[field][gname] = _element_from_json_terms(context, terms, f"{field}.{gname}")
    for gname, members in tables["closure"].items():
        # the canonical list: declared names, each once, in generator order
        if not isinstance(members, list) or members != [h for h in context.names if h in members]:
            raise SeriesParseError(
                "closure entries must list declared generator names once, in generator order",
                position=f"closure.{gname}",
            )
        tables["closure"][gname] = frozenset(members)
    try:
        return name, CellModel(context, **tables)
    except ModelError as exc:
        raise SeriesParseError(exc.message, exc.position) from None
