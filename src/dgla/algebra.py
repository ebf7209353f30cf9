"""Free graded Lie algebra engine with exact rational coefficients.

Lie elements are represented through their images in the free
associative (tensor) algebra on the generators: finite maps from words
to nonzero rationals, truncated at the context's maximum word length
(the *weight*).  The graded Lie bracket is realized as the graded
commutator ``[x, y] = x y - (-1)^{|x||y|} y x``, which makes every
Koszul sign a mechanical consequence of generator parities and reduces
equality of Lie elements to exact equality of word coefficients.

Stored coefficients and every scalar at the API are canonical
:class:`fractions.Fraction` values; floats are rejected at the
boundary.  The hot kernels (the product, the bracket and running sums
of series) do not compute in ``Fraction``: they read an element as
integer numerators over one common denominator, grouped by weight, so
that only weight buckets fitting under the truncation are paired and
the inner loops multiply and add plain integers.  One ``Fraction`` is
built per output word when a result is stored.  All types are
immutable after construction and safe to share between threads, and
the module-level operations are pure functions: identical inputs
always produce identical canonical output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Word = tuple[int, ...]

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "ContextMismatchError",
    "Generator",
    "GeneratorMorphism",
    "GradingError",
    "SeriesParseError",
    "apply_morphism",
    "as_fraction",
    "bracket",
    "combine",
    "context_from_json",
    "decode",
    "element_from_json_terms",
    "encode",
    "format_element",
    "format_element_latex",
    "is_primitive",
    "terms_to_json",
    "weight_component",
]


class ContextMismatchError(ValueError):
    """Two elements (or an element and a morphism) belong to different contexts."""


class GradingError(ValueError):
    """An operation that needs graded-homogeneous input received mixed degrees."""


class SeriesParseError(ValueError):
    """Malformed serialized series.

    ``position`` is a character offset for JSON syntax errors and a
    JSON path such as ``series.terms[3].coeff`` for schema violations.
    """

    def __init__(self, message: str, position: int | str | None = None) -> None:
        suffix = "" if position is None else f" (at {position})"
        super().__init__(message + suffix)
        self.position = position


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce an exact scalar to :class:`Fraction`; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


@dataclass(frozen=True)
class Generator:
    """A free generator: a name, a homological degree, and a fixed position.

    ``index`` is the generator's position in its context's total order;
    canonical term ordering and word encoding use it.  ``degree % 2``
    is the parity driving all Koszul signs.
    """

    name: str
    degree: int
    index: int

    @property
    def parity(self) -> int:
        return self.degree % 2


class AlgebraContext:
    """An ordered list of generators plus a truncation order.

    Every element created in a context references only its generators
    and stores only words of weight between 1 and ``max_weight``; any
    operation whose exact result would contain longer words silently
    drops them (truncation is part of the algebra's contract, not an
    error).  Contexts compare equal when their generator names, degrees
    and truncation order agree.
    """

    __slots__ = ("generators", "max_weight", "_index_by_name", "_degrees", "_parities")

    def __init__(
        self,
        generators: Iterable[Generator | tuple[str, int]],
        max_weight: int = 6,
    ) -> None:
        if not isinstance(max_weight, int) or isinstance(max_weight, bool) or max_weight < 1:
            raise ValueError(f"max_weight must be a positive integer, got {max_weight!r}")
        gens: list[Generator] = []
        index_by_name: dict[str, int] = {}
        for position, entry in enumerate(generators):
            if isinstance(entry, Generator):
                name, degree = entry.name, entry.degree
            else:
                name, degree = entry
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string, got {name!r}")
            if not isinstance(degree, int) or isinstance(degree, bool):
                raise ValueError(f"generator degree must be an integer, got {degree!r}")
            if name in index_by_name:
                raise ValueError(f"duplicate generator name {name!r}")
            index_by_name[name] = position
            gens.append(Generator(name, degree, position))
        self.generators: tuple[Generator, ...] = tuple(gens)
        self.max_weight = max_weight
        self._index_by_name = index_by_name
        self._degrees = tuple(g.degree for g in gens)
        self._parities = tuple(g.parity for g in gens)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> Generator:
        try:
            return self.generators[self._index_by_name[name]]
        except KeyError:
            raise KeyError(f"no generator named {name!r} in this context") from None

    def zero(self) -> AlgebraElement:
        return AlgebraElement._make(self, {})

    def gen(self, name: str) -> AlgebraElement:
        """The generator ``name`` as a weight-1 element."""
        return AlgebraElement._make(self, {(self._index_by_name[name],): Fraction(1)})

    def word(self, letters: Sequence[str], coeff: int | Fraction = 1) -> AlgebraElement:
        """A single associative word with the given coefficient."""
        return self.element({tuple(letters): coeff})

    def element(
        self, terms: Mapping[Sequence[str] | Word, int | Fraction]
    ) -> AlgebraElement:
        """Build an element from a word -> coefficient mapping.

        Words may be given as tuples of generator indices or sequences
        of generator names.  Zero coefficients and words heavier than
        ``max_weight`` are dropped; empty words are rejected (the
        algebra never stores a weight-0 part).
        """
        out: dict[Word, Fraction] = {}
        for raw_word, raw_coeff in terms.items():
            coeff = as_fraction(raw_coeff)
            if not coeff:
                continue
            word = self._normalize_word(raw_word)
            if len(word) > self.max_weight:
                continue
            out[word] = out.get(word, Fraction(0)) + coeff
        return AlgebraElement._make(self, out)

    def word_degree(self, word: Word) -> int:
        degrees = self._degrees
        return sum(degrees[i] for i in word)

    def word_names(self, word: Word) -> tuple[str, ...]:
        gens = self.generators
        return tuple(gens[i].name for i in word)

    def _normalize_word(self, raw: Sequence[str] | Word) -> Word:
        letters: list[int] = []
        for letter in raw:
            if isinstance(letter, str):
                if letter not in self._index_by_name:
                    raise KeyError(f"no generator named {letter!r} in this context")
                letters.append(self._index_by_name[letter])
            elif isinstance(letter, int) and not isinstance(letter, bool):
                if not 0 <= letter < len(self.generators):
                    raise ValueError(f"generator index {letter} out of range")
                letters.append(letter)
            else:
                raise TypeError(f"word letters must be names or indices, got {letter!r}")
        if not letters:
            raise ValueError("empty words are not representable")
        return tuple(letters)

    def _signature(self) -> tuple:
        return (tuple((g.name, g.degree) for g in self.generators), self.max_weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraContext):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"AlgebraContext([{gens}], max_weight={self.max_weight})"


class AlgebraElement:
    """A truncated series in the tensor algebra of a context.

    The term map never stores zero coefficients or words heavier than
    the context's truncation order.  Instances are immutable; all
    arithmetic returns new elements.

    Supported arithmetic: ``+``, ``-``, unary ``-``, scalar
    multiplication by :class:`int` or :class:`Fraction` on either side,
    and ``x * y`` for the associative (concatenation) product.  The
    graded Lie bracket is the module function :func:`bracket`.
    """

    __slots__ = ("context", "_terms")
    __hash__ = None  # term maps are dicts; value equality only

    def __init__(
        self,
        context: AlgebraContext,
        terms: Mapping[Word, int | Fraction],
    ) -> None:
        cleaned: dict[Word, Fraction] = {}
        for word, raw in terms.items():
            coeff = as_fraction(raw)
            if not coeff:
                continue
            normalized = context._normalize_word(word)
            if len(normalized) > context.max_weight:
                continue
            cleaned[normalized] = coeff
        self.context = context
        self._terms = cleaned

    @classmethod
    def _make(cls, context: AlgebraContext, terms: dict[Word, Fraction]) -> AlgebraElement:
        # internal fast path: words already canonical, only zeros to drop
        el = cls.__new__(cls)
        el.context = context
        el._terms = {w: c for w, c in terms.items() if c}
        return el

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Terms in canonical order: weight ascending, then lexicographic."""
        return iter(sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def coefficient(self, word: Sequence[str] | Word) -> Fraction:
        return self._terms.get(self.context._normalize_word(word), Fraction(0))

    def weights(self) -> tuple[int, ...]:
        return tuple(sorted({len(w) for w in self._terms}))

    def homogeneous_degree(self) -> int | None:
        """The common degree of all words; ``None`` for the zero element.

        The zero element is homogeneous of every degree.  Mixed-degree
        elements raise :class:`GradingError`.
        """
        word_degree = self.context.word_degree
        degrees = {word_degree(w) for w in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise GradingError(f"element has mixed degrees {sorted(degrees)}")
        return degrees.pop()

    def is_zero(self) -> bool:
        return not self._terms

    # -- linear structure ---------------------------------------------

    def _require_same_context(self, other: AlgebraElement) -> None:
        if self.context != other.context:
            raise ContextMismatchError("elements belong to different contexts")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_context(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            prev = out.get(word)
            out[word] = coeff if prev is None else prev + coeff
        return AlgebraElement._make(self.context, out)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_context(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            prev = out.get(word)
            out[word] = -coeff if prev is None else prev - coeff
        return AlgebraElement._make(self.context, out)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement._make(self.context, {w: -c for w, c in self._terms.items()})

    def _scaled(self, scalar: Fraction) -> AlgebraElement:
        if not scalar:
            return self.context.zero()
        return AlgebraElement._make(
            self.context, {w: c * scalar for w, c in self._terms.items()}
        )

    def __mul__(self, other: AlgebraElement | int | Fraction) -> AlgebraElement:
        if isinstance(other, AlgebraElement):
            self._require_same_context(other)
            return self._concat(other)
        return self._scaled(as_fraction(other))

    def __rmul__(self, scalar: int | Fraction) -> AlgebraElement:
        return self._scaled(as_fraction(scalar))

    def _concat(self, other: AlgebraElement) -> AlgebraElement:
        """Associative product, truncated at the context's max weight."""
        left_den, left = _graded(self)
        right_den, right = _graded(other)
        out: dict[Word, int] = {}
        _add_products(out, left, right, self.context.max_weight, 1)
        return _from_numerators(self.context, out, left_den * right_den)

    def in_context(self, context: AlgebraContext) -> AlgebraElement:
        """Re-express this element in another context.

        Every generator appearing in a word must exist in the target
        context with the same degree; indices are remapped by name.
        Words heavier than the target's truncation order are dropped.
        """
        if context == self.context:
            return self
        index_map: dict[int, int] = {}
        for g in self.context.generators:
            if g.name in context._index_by_name:
                target = context.generator(g.name)
                if target.degree != g.degree:
                    raise ContextMismatchError(
                        f"generator {g.name!r} has degree {target.degree} in the "
                        f"target context, expected {g.degree}"
                    )
                index_map[g.index] = target.index
        out: dict[Word, Fraction] = {}
        for word, coeff in self._terms.items():
            if len(word) > context.max_weight:
                continue
            try:
                out[tuple(index_map[i] for i in word)] = coeff
            except KeyError:
                missing = {self.context.generators[i].name for i in word} - set(
                    context.names
                )
                raise ContextMismatchError(
                    f"target context lacks generators {sorted(missing)}"
                ) from None
        return AlgebraElement._make(context, out)

    def __repr__(self) -> str:
        text = format_element(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<AlgebraElement {text}>"


# -- integer kernels -------------------------------------------------------
#
# Coefficients are stored as Fractions, but the kernels below read an
# element as integer numerators over one common denominator, grouped by
# weight.  Nothing of this view is kept on the element: it is rebuilt
# per call, which costs one pass over the terms.

_Graded = list[list[tuple[Word, int]]]


def _graded(x: AlgebraElement) -> tuple[int, _Graded]:
    """``(den, buckets)``: ``buckets[k]`` lists ``(word, n)`` for the
    weight-``k`` words of ``x``, whose coefficient is ``n / den``."""
    terms = x._terms
    den = math.lcm(*{c.denominator for c in terms.values()})
    buckets: _Graded = [[] for _ in range(x.context.max_weight + 1)]
    for word, c in terms.items():
        buckets[len(word)].append((word, c.numerator * (den // c.denominator)))
    return den, buckets


def _reduced(numerators: dict[Word, int], den: int, limit: int) -> tuple[int, _Graded]:
    """Kernel output back in ``_graded`` form: zeros dropped, and ``den``
    and the numerators divided by their gcd, which leaves the least
    common denominator of the coefficients."""
    kept = {w: n for w, n in numerators.items() if n}
    common = math.gcd(den, *kept.values())
    buckets: _Graded = [[] for _ in range(limit + 1)]
    for w, n in kept.items():
        buckets[len(w)].append((w, n // common))
    return den // common, buckets


def _from_numerators(context: AlgebraContext, numerators: dict[Word, int], den: int) -> AlgebraElement:
    # the one place kernel results become Fractions: one per nonzero word
    el = AlgebraElement.__new__(AlgebraElement)
    el.context = context
    el._terms = {w: Fraction(n, den) for w, n in numerators.items() if n}
    return el


def _add_products(out: dict[Word, int], left: _Graded, right: _Graded, limit: int, sign: int) -> None:
    """Add ``sign * a * b`` to ``out[u + v]`` for every left term ``(u, a)``
    and right term ``(v, b)`` whose weights sum to at most ``limit``."""
    get = out.get
    for weight in range(1, limit):
        us = left[weight]
        if not us:
            continue
        fits = [t for bucket in right[1 : limit - weight + 1] for t in bucket]
        for u, a in us:
            a *= sign
            for v, b in fits:
                w = u + v
                out[w] = get(w, 0) + a * b


class _LinearSum:
    """A running sum ``sum_k c_k x_k`` of elements with rational weights.

    It holds integer numerators over one denominator, the lcm of the
    denominators added so far; the numerators are rescaled only when
    that lcm grows.  :meth:`element` builds the result's Fractions once.
    """

    __slots__ = ("context", "den", "numerators")

    def __init__(self, context: AlgebraContext) -> None:
        self.context = context
        self.den = 1
        self.numerators: dict[Word, int] = {}

    def add(self, scalar: Fraction, x_den: int, buckets: _Graded) -> None:
        """Add ``scalar`` times the element ``(x_den, buckets)`` in the
        form :func:`_graded` returns."""
        term_den = scalar.denominator * x_den
        den = math.lcm(self.den, term_den)
        numerators = self.numerators
        if den != self.den:
            grow = den // self.den
            for w in numerators:
                numerators[w] *= grow
            self.den = den
        scale = scalar.numerator * (den // term_den)
        get = numerators.get
        for bucket in buckets:
            for w, n in bucket:
                numerators[w] = get(w, 0) + scale * n

    def element(self) -> AlgebraElement:
        return _from_numerators(self.context, self.numerators, self.den)


class GeneratorMorphism:
    """A degree-preserving signed permutation of a context's generators.

    The mapping sends each generator to ``+`` or ``-`` another generator
    of the same degree; it extends to words letter by letter with the
    product of the signs.  Construction accepts target specs as a bare
    name (``"f"``), a negated name (``"-f"``), or a ``(sign, name)``
    pair; generators absent from the mapping are fixed.
    """

    __slots__ = ("context", "_table")

    def __init__(
        self,
        context: AlgebraContext,
        mapping: Mapping[str, str | tuple[int, str]],
    ) -> None:
        unknown = set(mapping) - set(context.names)
        if unknown:
            raise KeyError(f"mapping names unknown to the context: {sorted(unknown)}")
        table: list[tuple[int, int]] = []
        for g in context.generators:
            sign, target_name = _parse_morphism_target(mapping.get(g.name, g.name))
            target = context.generator(target_name)
            if target.degree != g.degree:
                raise ValueError(
                    f"morphism must preserve degree: {g.name!r} (degree {g.degree}) "
                    f"-> {target.name!r} (degree {target.degree})"
                )
            table.append((sign, target.index))
        if len({idx for _, idx in table}) != len(table):
            raise ValueError("morphism must be a bijection on generators")
        self.context = context
        self._table = tuple(table)

    @classmethod
    def _from_table(
        cls, context: AlgebraContext, table: Sequence[tuple[int, int]]
    ) -> GeneratorMorphism:
        m = cls.__new__(cls)
        m.context = context
        m._table = tuple(table)
        return m

    def compose(self, other: GeneratorMorphism) -> GeneratorMorphism:
        """The morphism acting as ``self`` after ``other``."""
        if self.context != other.context:
            raise ContextMismatchError("morphisms belong to different contexts")
        table = []
        for sign2, middle in other._table:
            sign1, target = self._table[middle]
            table.append((sign1 * sign2, target))
        return GeneratorMorphism._from_table(self.context, table)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return apply_morphism(self, x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorMorphism):
            return NotImplemented
        return self.context == other.context and self._table == other._table

    def __repr__(self) -> str:
        gens = self.context.generators
        parts = []
        for g, (sign, idx) in zip(gens, self._table):
            target = ("-" if sign < 0 else "") + gens[idx].name
            if target != g.name:
                parts.append(f"{g.name}->{target}")
        return f"<GeneratorMorphism {', '.join(parts) or 'id'}>"


def _parse_morphism_target(target: str | tuple[int, str]) -> tuple[int, str]:
    if isinstance(target, str):
        if target.startswith("-"):
            return -1, target[1:]
        return 1, target
    sign, name = target
    if sign not in (1, -1):
        raise ValueError(f"morphism sign must be +1 or -1, got {sign!r}")
    return sign, name


# -- operations --------------------------------------------------------


def combine(
    c1: int | Fraction,
    x: AlgebraElement,
    c2: int | Fraction,
    y: AlgebraElement,
) -> AlgebraElement:
    """The linear combination ``c1*x + c2*y`` in canonical form."""
    if x.context != y.context:
        raise ContextMismatchError("elements belong to different contexts")
    return x._scaled(as_fraction(c1)) + y._scaled(as_fraction(c2))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The graded Lie bracket ``x y - (-1)^{|x||y|} y x``.

    Both arguments must be graded-homogeneous; the zero element counts
    as homogeneous of every degree.  The result is truncated at the
    context's max weight and is homogeneous of degree ``|x| + |y|``.
    """
    x._require_same_context(y)
    p = x.homogeneous_degree()
    q = y.homogeneous_degree()
    if p is None or q is None:
        return x.context.zero()
    limit = x.context.max_weight
    x_den, gx = _graded(x)
    y_den, gy = _graded(y)
    out: dict[Word, int] = {}
    _add_products(out, gx, gy, limit, 1)
    _add_products(out, gy, gx, limit, 1 if p % 2 and q % 2 else -1)
    return _from_numerators(x.context, out, x_den * y_den)


def weight_component(x: AlgebraElement, k: int) -> AlgebraElement:
    """The sum of terms of ``x`` whose words have length exactly ``k``."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= x.context.max_weight:
        raise ValueError(
            f"weight must lie in 1..{x.context.max_weight}, got {k!r}"
        )
    return AlgebraElement._make(
        x.context, {w: c for w, c in x._terms.items() if len(w) == k}
    )


def apply_morphism(m: GeneratorMorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply a generator morphism letter by letter, multiplying signs."""
    if m.context != x.context:
        raise ContextMismatchError("morphism and element belong to different contexts")
    table = m._table
    out: dict[Word, Fraction] = {}
    for word, coeff in x._terms.items():
        sign = 1
        letters = []
        for i in word:
            s, j = table[i]
            sign *= s
            letters.append(j)
        out[tuple(letters)] = coeff if sign > 0 else -coeff
    return AlgebraElement._make(x.context, out)


def is_primitive(x: AlgebraElement, wmax: int) -> bool:
    """Test whether ``x`` is a Lie element through weight ``wmax``.

    Uses the Friedrichs criterion: an element of the tensor algebra
    lies in the free Lie algebra exactly when it is primitive for the
    unshuffle coproduct, i.e. when its reduced coproduct vanishes.  The
    coproduct of a word is computed by enumerating letter subsets with
    the Koszul sign of the unshuffle permutation, so the check is exact
    for any mix of parities.  Cost grows as ``2^wmax`` per word, hence
    the guard ``wmax <= min(max_weight, 5)``.
    """
    limit = min(x.context.max_weight, 5)
    if not isinstance(wmax, int) or isinstance(wmax, bool) or not 1 <= wmax <= limit:
        raise ValueError(f"wmax must lie in 1..{limit}, got {wmax!r}")
    parities = x.context._parities
    reduced: dict[tuple[Word, Word], Fraction] = {}
    for word, coeff in x._terms.items():
        k = len(word)
        if k < 2 or k > wmax:
            continue  # weight-1 words are primitive by definition
        word_parities = tuple(parities[i] for i in word)
        for mask in range(1, (1 << k) - 1):
            sign = 1
            left: list[int] = []
            right: list[int] = []
            odd_right_seen = 0  # odd letters already assigned to the right factor
            for pos in range(k):
                if mask >> pos & 1:
                    # letter jumps left past every unselected letter before it
                    if word_parities[pos] and odd_right_seen % 2:
                        sign = -sign
                    left.append(word[pos])
                else:
                    right.append(word[pos])
                    odd_right_seen += word_parities[pos]
            key = (tuple(left), tuple(right))
            prev = reduced.get(key)
            term = coeff if sign > 0 else -coeff
            reduced[key] = term if prev is None else prev + term
    return all(not c for c in reduced.values())


# -- canonical serialization -------------------------------------------

_COEFF_RE = re.compile(r"^(-?)(0|[1-9][0-9]*)/([1-9][0-9]*)$")


def _coeff_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def terms_to_json(x: AlgebraElement) -> list[dict]:
    """The canonical term list: ``[{"coeff": "p/q", "word": [names]}, ...]``."""
    names = x.context.word_names
    return [
        {"coeff": _coeff_str(coeff), "word": list(names(word))}
        for word, coeff in x.terms()
    ]


def encode(x: AlgebraElement, label: str = "series") -> str:
    """Serialize an element to the canonical JSON series format.

    The payload records the context (generator list and truncation
    order) alongside the labeled term list, coefficients as base-10
    ``"p/q"`` strings with positive denominators in lowest terms, terms
    in canonical order.  ``decode(encode(x)) == x``.
    """
    ctx = x.context
    payload = {
        "order": ctx.max_weight,
        "generators": [{"name": g.name, "degree": g.degree} for g in ctx.generators],
        "series": {"label": label, "terms": terms_to_json(x)},
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise SeriesParseError(message, position=path)


def _parse_coeff(raw: object, path: str) -> Fraction:
    _expect(isinstance(raw, str), "coefficient must be a string", path)
    match = _COEFF_RE.match(raw)  # type: ignore[arg-type]
    _expect(match is not None, f"coefficient {raw!r} is not of the form p/q with q > 0", path)
    sign, num, den = match.groups()  # type: ignore[union-attr]
    try:
        numerator = int(num)
        denominator = int(den)
    except ValueError as exc:  # more digits than the interpreter converts
        raise SeriesParseError(str(exc), position=path) from None
    _expect(numerator != 0, "zero coefficients are never stored", path)
    _expect(
        math.gcd(numerator, denominator) == 1,
        f"coefficient {raw!r} is not in lowest terms",
        path,
    )
    value = Fraction(numerator, denominator)
    return -value if sign == "-" else value


def context_from_json(data: object, path: str = "") -> AlgebraContext:
    """Rebuild an :class:`AlgebraContext` from decoded envelope fields."""
    dot = f"{path}." if path else ""
    _expect(isinstance(data, dict), "payload must be a JSON object", path or "$")
    order = data.get("order")  # type: ignore[union-attr]
    _expect(
        isinstance(order, int) and not isinstance(order, bool) and order >= 1,
        "order must be a positive integer",
        f"{dot}order",
    )
    raw_gens = data.get("generators")  # type: ignore[union-attr]
    _expect(isinstance(raw_gens, list) and raw_gens, "generators must be a nonempty list", f"{dot}generators")
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for i, item in enumerate(raw_gens):  # type: ignore[union-attr]
        gpath = f"{dot}generators[{i}]"
        _expect(isinstance(item, dict), "generator entry must be an object", gpath)
        name = item.get("name")
        degree = item.get("degree")
        _expect(isinstance(name, str) and bool(name), "generator name must be a nonempty string", f"{gpath}.name")
        _expect(
            isinstance(degree, int) and not isinstance(degree, bool),
            "generator degree must be an integer",
            f"{gpath}.degree",
        )
        _expect(name not in seen, f"duplicate generator name {name!r}", f"{gpath}.name")
        seen.add(name)  # type: ignore[arg-type]
        entries.append((name, degree))  # type: ignore[arg-type]
    return AlgebraContext(entries, max_weight=order)  # type: ignore[arg-type]


def element_from_json_terms(
    context: AlgebraContext, data: object, path: str = "terms"
) -> AlgebraElement:
    """Rebuild an element from a canonical term list, strictly validated.

    Rejects non-canonical coefficients (``"2/4"``, zero, negative
    denominators), unknown generator names, overweight or empty words,
    and term lists not already in canonical order.
    """
    _expect(isinstance(data, list), "terms must be a list", path)
    terms: dict[Word, Fraction] = {}
    previous_key: tuple[int, Word] | None = None
    for i, item in enumerate(data):  # type: ignore[union-attr]
        tpath = f"{path}[{i}]"
        _expect(isinstance(item, dict), "term must be an object", tpath)
        extra = set(item) - {"coeff", "word"}
        _expect(not extra, f"unknown term fields {sorted(extra)}", tpath)
        coeff = _parse_coeff(item.get("coeff"), f"{tpath}.coeff")
        raw_word = item.get("word")
        _expect(isinstance(raw_word, list) and bool(raw_word), "word must be a nonempty list", f"{tpath}.word")
        letters: list[int] = []
        for j, letter in enumerate(raw_word):  # type: ignore[union-attr]
            _expect(isinstance(letter, str), "word letters must be generator names", f"{tpath}.word[{j}]")
            _expect(
                letter in context._index_by_name,
                f"unknown generator {letter!r}",
                f"{tpath}.word[{j}]",
            )
            letters.append(context._index_by_name[letter])
        word = tuple(letters)
        _expect(
            len(word) <= context.max_weight,
            f"word of weight {len(word)} exceeds order {context.max_weight}",
            f"{tpath}.word",
        )
        key = (len(word), word)
        _expect(
            previous_key is None or previous_key < key,
            "terms are not in canonical order",
            tpath,
        )
        previous_key = key
        terms[word] = coeff
    return AlgebraElement._make(context, terms)


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesParseError(exc.msg, position=exc.pos) from None
    except RecursionError:
        raise SeriesParseError("JSON nesting is too deep", position="$") from None
    except ValueError as exc:  # a number past the interpreter's digit limit
        raise SeriesParseError(str(exc), position="$") from None


def decode(text: str) -> AlgebraElement:
    """Parse the canonical JSON series format back into an element."""
    data = _load_json(text)
    context = context_from_json(data)
    _expect(isinstance(data, dict) and "series" in data, "missing series object", "series")
    series = data["series"]
    _expect(isinstance(series, dict), "series must be an object", "series")
    label = series.get("label")
    _expect(isinstance(label, str), "series label must be a string", "series.label")
    return element_from_json_terms(context, series.get("terms"), path="series.terms")


# -- display ------------------------------------------------------------


def _latex_coeff(magnitude: Fraction) -> str:
    if magnitude.denominator == 1:
        return f"{magnitude.numerator} \\, "
    return f"\\tfrac{{{magnitude.numerator}}}{{{magnitude.denominator}}} \\, "


# per format: the prefix of a coefficient other than 1, and the sign of a
# negative leading term
_STYLES = {"text": (lambda magnitude: f"{magnitude} ", "-"), "latex": (_latex_coeff, "- ")}


def _format_terms(x: AlgebraElement, style: str) -> str:
    if not x:
        return "0"
    coeff_prefix, leading_minus = _STYLES[style]
    chunks: list[str] = []
    for word, coeff in x.terms():
        magnitude = abs(coeff)
        body = " ".join(x.context.word_names(word))
        if magnitude != 1:
            body = coeff_prefix(magnitude) + body
        if not chunks:
            chunks.append(body if coeff > 0 else leading_minus + body)
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def format_element(x: AlgebraElement) -> str:
    """Plain-text rendering: signed rational coefficients and spaced words."""
    return _format_terms(x, "text")


def format_element_latex(x: AlgebraElement) -> str:
    """Best-effort LaTeX rendering: juxtaposed symbols with rational prefactors."""
    return _format_terms(x, "latex")
