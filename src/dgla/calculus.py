"""Analytic layer over the truncated tensor algebra.

Everything here is exact: scalar power series are lists of rationals,
operator series are the same lists indexed by the power of ``ad`` of a
chosen degree-0 direction, and the exponential/logarithm pair lives in
the unit-augmented tensor algebra with the unit tracked implicitly (an
element ``z`` stands for ``1 + z``).  Every series is summed by Horner's
rule in :func:`dgla.algebra._horner`, each inner sum cut to the weight it
can still reach; a step multiplies by ``z`` on the right (exp, log,
BCH), by a direction on the left (the vertex-module flow below) or
brackets with it.  A flow is one Horner pass of ``(1 - e^{-t ad})/ad``
over ``D(direction) + [start, direction]``.
On a 1-complex a vertex flowed by a direction in the Lie algebra of the
edges can be flowed in vertex-module coordinates instead: a degree -1
Lie element is ``sum c_{w,p} ad_{w1}...ad_{wk}(p)`` over the vertices
``p``, ``c_{w,p}`` is the coefficient of its word ``w p``, and there
``ad_direction`` is left multiplication by ``direction``, so each step
is one product rather than a bracket.  The symmetric midpoint is
computed that way; :func:`flow` keeps the tensor route and is the
independent one.  The coordinates of a differential ``D(y)``, its
words that end in a vertex, come from the Leibniz kernel that extends
every differential, asked for those words alone; the midpoint flow and
the 2-cell's ``D^2 = 0`` check in :mod:`dgla.models` both read them
that way.  The multi-argument Baker-Campbell-Hausdorff element is
computed as the logarithm of a product of exponentials, so its output
is a Lie element weight by weight whenever the inputs are;
:func:`dgla.algebra.is_primitive` certifies that independently at
every weight, by the Dynkin-Specht-Wever bracketing.

Every scalar series but the logarithm's is read off the coefficients
of ``e^{sT}`` before ``T`` is specialized to ``ad`` of anything: the
exponential's table, ``(e^T - 1)/T`` and the flow integrator
``(1 - e^{-tT})/T`` are slices of it, and ``T/(e^T - 1)`` and
``T/(1 - e^{+-T})`` are reciprocals of such slices.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Sequence

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    GradingError,
    _ad,
    _add_products,
    _as_fraction,
    _ending_in,
    _horner,
    _odd_derivation,
    _times_left,
    bracket,
)

if TYPE_CHECKING:  # pragma: no cover
    from .models import CellModel

__all__ = [
    "FlatnessError",
    "ModelError",
    "apply_operator_series",
    "bch",
    "bernoulli",
    "edge_differential",
    "edge_differential_bernoulli",
    "exp_assoc",
    "extend_differential",
    "flow",
    "log_assoc",
    "maurer_cartan_defect",
    "twisted_differential",
]


class ModelError(ValueError):
    """An ill-formed model, or an element from another context."""

    def __init__(self, message: str, position: str | None = None) -> None:
        super().__init__(message if position is None else f"{message} (at {position})")
        self.message, self.position = message, position


class FlatnessError(ValueError):
    """A purported point fails the flatness (Maurer-Cartan) equation."""


def _require_degree(x: AlgebraElement, degree: int, what: str) -> None:
    # the one degree check on calculus arguments: x is zero or homogeneous of degree
    found = x.homogeneous_degree()
    if found not in (degree, None):
        raise GradingError(f"{what} must have degree {degree}, got {found}")


# -- scalar power series ------------------------------------------------


def _exponential(scale: int | Fraction, order: int) -> list[Fraction]:
    # e^{scale T} through T^order: every exponential series is read off it
    s = _as_fraction(scale)
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * s / k)
    return out


def _reciprocal(series: Sequence[Fraction], order: int) -> list[Fraction]:
    # 1/series through T^order; series is given through T^order and has
    # a nonzero constant term
    out = [1 / series[0]]
    for k in range(1, order + 1):
        out.append(-sum(out[j] * series[k - j] for j in range(k)) / series[0])
    return out


def _bernoulli_series(order: int) -> list[Fraction]:
    # T/(e^T - 1) = 1 / ((e^T - 1)/T) through T^order; its k-th
    # coefficient is B_k/k!
    return _reciprocal(_exponential(1, order + 1)[1:], order)


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, from the expansion of x/(e^x - 1)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"Bernoulli index must be a nonnegative integer, got {n!r}")
    return _bernoulli_series(n)[n] * factorial(n)


# -- operator series ------------------------------------------------------


def _edge_series(sign: int, order: int) -> list[Fraction]:
    # T/(1 - e^{sign T}) through T^order: sign 1 weights an edge's source
    # vertex, sign -1 its target.  The reciprocal of (1 - e^{sign T})/T,
    # not the Bernoulli series, so it stays an independent route from
    # the explicit Bernoulli-sum form.
    return _reciprocal([-c for c in _exponential(sign, order + 1)[1:]], order)


def _integrator(t: int | Fraction, order: int) -> list[Fraction]:
    # (1 - e^{-tT})/T through T^(order - 1), the series every flow sums;
    # t is made exact before it is negated (-True is -1)
    return [-c for c in _exponential(-_as_fraction(t), order)[1:]]


def apply_operator_series(
    coeffs: Sequence[int | Fraction], direction: AlgebraElement, target: AlgebraElement
) -> AlgebraElement:
    """Evaluate ``sum_k coeffs[k] ad_direction^k`` on ``target``.

    ``coeffs`` lists exact rationals indexed by the power of ``ad``.
    The direction must be graded-homogeneous of degree 0 and the target
    graded-homogeneous.  The series is summed by Horner's rule, each
    inner sum cut to the weight it can still reach.
    """
    if not isinstance(coeffs, Sequence):
        raise TypeError("operator series coefficients must be a sequence indexed by power")
    table = [_as_fraction(c) for c in coeffs]
    if direction.context != target.context:
        raise ContextMismatchError("direction and target must share a context")
    _require_degree(direction, 0, "operator direction")
    target.homogeneous_degree()  # raises on mixed input
    return _horner(target, direction, table, _ad)


# -- exponentials, logarithms, BCH ---------------------------------------


def _logarithm(order: int) -> list[Fraction]:
    # log(1 + T) through T^order, from the coefficient of T
    return [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]


def exp_assoc(x: AlgebraElement) -> AlgebraElement:
    """The truncated exponential ``sum_{k>=1} x^k / k!``, unit dropped.

    The returned element stands for ``exp(x) - 1``; the implicit unit
    makes products of exponentials expressible inside the truncated
    algebra.  Only graded-homogeneous elements of even degree are
    accepted: exponentials of odd elements are undefined here.
    """
    degree = x.homogeneous_degree()
    if degree is not None and degree % 2:
        raise GradingError(f"exponential of an odd element (degree {degree}) is undefined")
    return _horner(x, x, _exponential(1, x.context.max_weight)[1:], _add_products)


def log_assoc(z: AlgebraElement) -> AlgebraElement:
    """The truncated logarithm of ``1 + z``; inverse of :func:`exp_assoc`."""
    return _horner(z, z, _logarithm(z.context.max_weight), _add_products)


def bch(xs: Sequence[AlgebraElement]) -> AlgebraElement:
    """The multi-argument Baker-Campbell-Hausdorff element.

    Computes ``log`` of the product of the exponentials of the inputs,
    truncated at the context's max weight, so that
    ``exp(bch([x1, ..., xn])) = exp(x1) ... exp(xn)`` holds through that
    weight.  Inputs must be graded-homogeneous of degree 0, and there
    must be at least one.
    """
    if not xs:
        raise ValueError("bch needs at least one argument")
    product: AlgebraElement | None = None
    for x in xs:
        _require_degree(x, 0, "bch arguments")
        factor = exp_assoc(x)
        # (1 + product)(1 + factor) with the unit kept implicit
        product = factor if product is None else product + factor + product * factor
    assert product is not None
    return log_assoc(product)


# -- differentials and flows ----------------------------------------------


def _edge_generators(context: AlgebraContext, *names: str) -> list[AlgebraElement]:
    # the edge and its source and target, as elements, after the degree check
    degrees = [context.generator(name).degree for name in names]
    if degrees != [0, -1, -1]:
        raise GradingError(
            "edge differential needs a degree-0 edge and degree -1 endpoints"
        )
    return [context.gen(name) for name in names]


def edge_differential(
    context: AlgebraContext,
    edge: str,
    source: str,
    target: str,
) -> AlgebraElement:
    """The unique differential of an edge generator, as an operator series.

    Evaluates ``T/(1 - e^T)`` on the source vertex and ``T/(1 - e^{-T})``
    on the target vertex, both at ``T = ad_edge``, truncated at the
    context's max weight.  The weight-1 part is ``target - source``.
    """
    e, a, b = _edge_generators(context, edge, source, target)
    order = context.max_weight - 1
    left = apply_operator_series(_edge_series(1, order), e, a)
    right = apply_operator_series(_edge_series(-1, order), e, b)
    return left + right


def edge_differential_bernoulli(
    context: AlgebraContext,
    edge: str,
    source: str,
    target: str,
) -> AlgebraElement:
    """The same edge differential via the explicit Bernoulli sum.

    Computes ``ad_e(b) + sum_i B_i/i! ad_e^i (b - a)``; kept alongside
    the operator-series form so the two independent routes can be
    compared exactly at every order.
    """
    e, a, b = _edge_generators(context, edge, source, target)
    series = _bernoulli_series(context.max_weight - 1)
    return bracket(e, b) + apply_operator_series(series, e, b - a)


def extend_differential(model: "CellModel", x: AlgebraElement) -> AlgebraElement:
    """Apply a model's differential to any element by the Leibniz rule.

    The differential assignment on generators extends uniquely to an
    odd derivation of the tensor algebra:
    ``D(uv) = (Du) v + (-1)^{|u|} u (Dv)``.  On (images of) Lie
    elements this restricts to the graded Lie derivation
    ``D[x, y] = [Dx, y] + (-1)^{|x|} [x, Dy]``.
    """
    if x.context != model.context:
        raise ModelError("element does not belong to the model's context")
    x.homogeneous_degree()  # raises on mixed input
    return _odd_derivation(x, model.differential, model.context.max_weight)


def maurer_cartan_defect(model: "CellModel", p: AlgebraElement) -> AlgebraElement:
    """``D p + (1/2)[p, p]``; zero exactly when ``p`` is a point."""
    _require_degree(p, -1, "a candidate point")
    return extend_differential(model, p) + Fraction(1, 2) * bracket(p, p)


def twisted_differential(model: "CellModel", p: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """The differential twisted by a point: ``D x + [p, x]``.

    ``p`` must satisfy the flatness equation exactly at the model's
    order, which is checked on every call.
    """
    defect = maurer_cartan_defect(model, p)
    if defect:
        raise FlatnessError(f"twisting requires a flat point; defect has weights {defect.weights()}")
    return extend_differential(model, x) + bracket(p, x)


def flow(
    model: "CellModel",
    direction: AlgebraElement,
    start: AlgebraElement,
    t: int | Fraction = 1,
) -> AlgebraElement:
    """Evolve ``start`` along the grading-preserving flow by ``direction``.

    In degree -1 the evolution is ``dx/dt = D(direction) - ad(direction) x``,
    with closed-form solution
    ``exp(-t ad) start + ((1 - exp(-t ad))/ad) D(direction)``; in every
    other degree the source term is absent and the solution is
    ``exp(-t ad) start``.  Since ``exp(-tT) = 1 - T (1 - exp(-tT))/T``,
    both are evaluated as ``start`` plus one Horner pass of
    ``(1 - e^{-t ad})/ad`` over ``D(direction) + [start, direction]``,
    the first summand only in degree -1.  Flowing by ``direction`` for
    time ``t`` equals flowing by ``t * direction`` for unit time.  The
    zero element is flowed as a degree -1 initial condition (its orbit
    sweeps the component of 0).
    """
    table = _integrator(t, model.context.max_weight)
    _require_degree(direction, 0, "flow direction")
    degree = start.homogeneous_degree()
    source = bracket(start, direction)
    if degree in (-1, None):
        source = source + extend_differential(model, direction)
    return start + apply_operator_series(table, direction, source)


def _vertex_flows(
    model: "CellModel",
    direction: AlgebraElement,
    start: AlgebraElement,
    times: Sequence[int | Fraction],
) -> list[AlgebraElement]:
    # The vertex-module coordinates of flow(model, direction, start, t)
    # for each t, from one Horner pass per t whose step is left
    # multiplication by direction.
    # The model is a 1-complex, the direction lies in the Lie algebra of
    # the edges and the start is a degree -1 Lie element.  Coordinates
    # are the words that end in a vertex (algebra._right_normed maps
    # them back), and those of D(direction) come from the Leibniz kernel,
    # which writes only those words.
    context = model.context
    vertices = {g.index for g in context.generators if g.degree == -1}
    initial = _ending_in(start, vertices)
    source = _odd_derivation(direction, model.differential, context.max_weight, vertices) - direction * initial
    tables = [_integrator(t, context.max_weight) for t in times]
    pushed = [_horner(source, direction, table, _times_left) for table in tables]
    return [initial + p for p in pushed]
