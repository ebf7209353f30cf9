"""Independent test oracles, built from first principles only.

These deliberately avoid the code paths they are used to check: the
Bernoulli oracle uses the binomial recurrence instead of series
division; the product, bracket and Leibniz oracles multiply one pair
of terms at a time in ``Fraction`` arithmetic, reading elements only
through ``terms()`` and rebuilding them through ``AlgebraContext.element``;
the flow oracle integrates the defining ODE weight by weight with
exact polynomial coefficients, using those kernels, instead of
evaluating the closed-form operator series; the exponential, logarithm
and BCH oracles sum the powers one naive product at a time, where the
library evaluates each series by Horner's rule; and the Lie-membership
oracle enumerates unshuffles (Friedrichs) where the library brackets
words (Dynkin-Specht-Wever); the JSON oracles build one dict per term
from ``terms()`` and hand the payload to ``json.dumps``, where the
library writes the text straight from its stored numerators.
"""

import json
from fractions import Fraction
from math import comb, factorial

from dgla import weight_component


def naive_product(x, y):
    """The concatenation product, one term pair at a time, pairing each
    word only with the words short enough to stay under the truncation
    order."""
    ctx = x.context
    by_length = {}
    for v, cv in y.terms():
        by_length.setdefault(len(v), []).append((v, cv))
    out = {}
    for u, cu in x.terms():
        for length in range(1, ctx.max_weight - len(u) + 1):
            for v, cv in by_length.get(length, ()):
                out[u + v] = out.get(u + v, Fraction(0)) + cu * cv
    return ctx.element(out)


def naive_bracket(x, y):
    """The graded commutator ``x y - (-1)^{|x||y|} y x``."""
    p, q = x.homogeneous_degree(), y.homogeneous_degree()
    if p is None or q is None:
        return x.context.zero()
    sign = -1 if p * q % 2 else 1
    return naive_product(x, y) - sign * naive_product(y, x)


def naive_leibniz(model, x):
    """The model's differential extended to ``x`` as an odd derivation:
    each letter of each word is replaced in turn by its differential,
    with the sign ``(-1)`` to the number of odd letters before it."""
    ctx = model.context
    out = {}
    for word, c in x.terms():
        sign = 1
        for position, letter in enumerate(word):
            generator = ctx.generators[letter]
            for u, cu in model.differential[generator.name].terms():
                if len(word) - 1 + len(u) <= ctx.max_weight:
                    w = word[:position] + u + word[position + 1 :]
                    out[w] = out.get(w, Fraction(0)) + sign * c * cu
            if generator.degree % 2:
                sign = -sign
    return ctx.element(out)


def naive_in_context(x, context):
    """``x`` re-expressed in ``context`` by generator names, one term at a
    time, dropping the words heavier than its truncation order."""
    names = x.context.word_names
    return context.element({names(w): c for w, c in x.terms() if len(w) <= context.max_weight})


def naive_morphism(mapping, x):
    """``x`` with each letter renamed by ``mapping`` (a name to a name or
    to ``-name``; absent names fixed), one term at a time, the signs
    multiplied."""
    ctx = x.context
    out = {}
    for word, c in x.terms():
        letters = []
        for name in ctx.word_names(word):
            target = mapping.get(name, name)
            if target.startswith("-"):
                c, target = -c, target[1:]
            letters.append(target)
        out[tuple(letters)] = c
    return ctx.element(out)


def naive_operator_series(coeffs, direction, target):
    """``sum_k coeffs[k] ad_direction^k (target)`` for a list ``coeffs``."""
    total = target.context.zero()
    power = target
    for k, c in enumerate(coeffs):
        if k:
            power = naive_bracket(direction, power)
        total = total + Fraction(c) * power
    return total


def naive_power_series(coeffs, z):
    """``sum_k coeffs[k] z^(k + 1)``, each power one naive product more
    than the last."""
    total = z.context.zero()
    power = z
    for k, c in enumerate(coeffs):
        if k:
            power = naive_product(power, z)
        total = total + Fraction(c) * power
    return total


def naive_exp(x):
    """``exp(x) - 1`` through the truncation order, power by power."""
    order = x.context.max_weight
    return naive_power_series([Fraction(1, factorial(k)) for k in range(1, order + 1)], x)


def naive_log(z):
    """``log(1 + z)`` through the truncation order, power by power."""
    order = z.context.max_weight
    return naive_power_series([Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)], z)


def naive_bch(xs):
    """``log(exp(x1) ... exp(xn))``, the exponentials multiplied with the
    unit kept implicit: ``(1 + a)(1 + b) - 1 = a + b + ab``."""
    product = xs[0].context.zero()
    for x in xs:
        factor = naive_exp(x)
        product = product + factor + naive_product(product, factor)
    return naive_log(product)


def friedrichs_primitive(x, wmax):
    """Whether ``x`` is a Lie element through weight ``wmax``, by the
    Friedrichs criterion: its reduced unshuffle coproduct vanishes.

    Each word of weight 2 to ``wmax`` splits over every nonempty proper
    subset of its letter positions into (chosen letters, the others),
    with the Koszul sign of moving each chosen odd letter left past the
    odd letters not chosen before it.  The cost is ``2^k`` per word.
    """
    parities = [g.degree % 2 for g in x.context.generators]
    reduced = {}
    for word, c in x.terms():
        k = len(word)
        if not 2 <= k <= wmax:
            continue  # weight-1 words are Lie
        for mask in range(1, 2**k - 1):
            chosen = [bool(mask >> i & 1) for i in range(k)]
            left = tuple(letter for letter, pick in zip(word, chosen) if pick)
            right = tuple(letter for letter, pick in zip(word, chosen) if not pick)
            crossings = sum(
                parities[word[i]] * parities[word[j]]
                for i in range(k)
                if chosen[i]
                for j in range(i)
                if not chosen[j]
            )
            key = (left, right)
            reduced[key] = reduced.get(key, Fraction(0)) + (-1) ** crossings * c
    return not any(reduced.values())


def dumps_terms(x):
    """The canonical term list, one dict per term of ``terms()``."""
    names = x.context.word_names
    return [{"coeff": f"{c.numerator}/{c.denominator}", "word": list(names(word))} for word, c in x.terms()]


def _dumps_header(context):
    gens = [{"name": g.name, "degree": g.degree} for g in context.generators]
    return {"order": context.max_weight, "generators": gens}


def dumps_encode(x, label="series"):
    """The canonical series text, by ``json.dumps`` with an indent."""
    payload = {**_dumps_header(x.context), "series": {"label": label, "terms": dumps_terms(x)}}
    return json.dumps(payload, indent=2, ensure_ascii=False)


def dumps_model_dict(model, name):
    """The model envelope: header, boundaries, closures in generator
    order, differentials."""
    context = model.context
    return {
        "model": name,
        **_dumps_header(context),
        "boundary0": {g.name: dumps_terms(model.boundary0[g.name]) for g in context.generators},
        "closure": {
            g.name: sorted(model.closure[g.name], key=lambda n: context.generator(n).index)
            for g in context.generators
        },
        "differential": {g.name: dumps_terms(model.differential[g.name]) for g in context.generators},
    }


def dumps_encode_model(model, name):
    """The canonical envelope text, by ``json.dumps`` with an indent."""
    return json.dumps(dumps_model_dict(model, name), indent=2, ensure_ascii=False)


def bernoulli_recurrence(n: int) -> Fraction:
    """B_n from the recurrence sum_{k<n} C(n+1, k) B_k = -(n+1) B_n."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, k) * values[k] for k in range(m))
        values.append(Fraction(-acc, m + 1))
    return values[n]


def iterative_flow(model, direction, start, t):
    """Solve the flow ODE degree by degree in the weight filtration.

    In degree -1 the equation is dx/dt = D(direction) - ad(direction) x,
    in degrees >= 0 the source term is absent.  The weight-k component
    of the solution only involves lower-weight components on the right
    hand side, so each x_k(t) is an exact polynomial in t obtained by
    integrating a polynomial built from already-solved weights.
    """
    ctx = model.context
    order = ctx.max_weight
    time = Fraction(t)
    degree = start.homogeneous_degree()
    include_source = degree is None or degree == -1
    zero = ctx.zero()
    source = naive_leibniz(model, direction) if include_source else zero

    direction_parts = {}
    for k in range(1, order + 1):
        part = weight_component(direction, k)
        if part:
            direction_parts[k] = part

    # polys[k][j] is the weight-k element multiplying t^j
    polys: dict[int, list] = {}
    for k in range(1, order + 1):
        rhs = [weight_component(source, k)] if source else [zero]
        for i, e_i in direction_parts.items():
            if i >= k:
                continue
            for j, coefficient in enumerate(polys[k - i]):
                while len(rhs) <= j:
                    rhs.append(zero)
                if coefficient:
                    rhs[j] = rhs[j] - naive_bracket(e_i, coefficient)
        poly = [weight_component(start, k)]
        for j, r in enumerate(rhs):
            poly.append(Fraction(1, j + 1) * r)
        polys[k] = poly

    total = zero
    for poly in polys.values():
        power = Fraction(1)
        for coefficient in poly:
            if coefficient:
                total = total + power * coefficient
            power *= time
    return total
