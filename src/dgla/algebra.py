"""Free graded Lie algebra engine with exact rational coefficients.

Lie elements are represented through their images in the free
associative (tensor) algebra on the generators: finite maps from words
to nonzero rationals, truncated at the context's maximum word length
(the *weight*).  The graded Lie bracket is realized as the graded
commutator ``[x, y] = x y - (-1)^{|x||y|} y x``, which makes every
Koszul sign a mechanical consequence of generator parities and reduces
equality of Lie elements to exact equality of word coefficients.

An element stores one positive integer denominator and, for each
weight ``k``, a dict from the weight-``k`` words to nonzero integer
numerators, reduced so that the denominator is the least common
denominator of the coefficients.  A word is stored packed into one
:class:`int`: a sentinel 1 bit followed by one fixed-width field per
letter, the width being the bit length of the context's largest
generator index.  Concatenation is a shift and an add, replacing a
letter is a shift and a mask, and for words of one context the order of
the integers is the canonical order (weight, then lexicographic).  The
form is unique, so equality is a plain comparison, and every operation
computes in integers: a sum merges two operands over the lcm of their
denominators, sharing a bucket only one has if it needs no rescaling,
products multiply numerators and denominators, and the product kernels
pair only the weight buckets that fit under the truncation, as does
:func:`_horner`, the one kernel behind every truncated series.  Three
kernels read words a chunk of letters per lookup, each in a table filled
as chunks occur: the degree scan sums the letters' degrees, one kernel
repacks words for every generator relabelling (a :class:`GeneratorMorphism`
or a move to another context) from ``(sign, packed image)`` entries, and
the JSON writer joins the names of a word's letters.  One reader,
:class:`_ChunkTable`, picks the chunk length and cuts words into chunks
for all three.  This module is the only one that knows the format.
:class:`fractions.Fraction` values are read in only by
:meth:`AlgebraContext.element` and built only by :meth:`AlgebraElement.terms`
and :meth:`AlgebraElement.coefficient`, which the display code reads (JSON
is written and read from the integers); every scalar at the API is an
:class:`int` or :class:`Fraction`, and floats are rejected.  All types are
immutable after construction and safe to share between threads (a chunk
table only gains entries, each the same whichever thread fills it), and the
module-level operations are pure functions: identical inputs always produce
identical canonical output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

Word = tuple[int, ...]

# the truncation order every builder and the CLI use when none is given
DEFAULT_ORDER = 6

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "ContextMismatchError",
    "Generator",
    "GeneratorMorphism",
    "GradingError",
    "SeriesParseError",
    "apply_morphism",
    "bracket",
    "decode",
    "encode",
    "format_element",
    "format_element_latex",
    "is_primitive",
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


def _as_fraction(value: int | Fraction) -> Fraction:
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

    __slots__ = (
        "generators",
        "max_weight",
        "_index_by_name",
        "_degrees",
        "_parities",
        "_bits",
        "_no_terms",
        "_signature",
    )

    def __init__(
        self,
        generators: Iterable[tuple[str, int]],
        max_weight: int = DEFAULT_ORDER,
    ) -> None:
        if not isinstance(max_weight, int) or isinstance(max_weight, bool) or max_weight < 1:
            raise ValueError(f"max_weight must be a positive integer, got {max_weight!r}")
        gens: list[Generator] = []
        index_by_name: dict[str, int] = {}
        for position, (name, degree) in enumerate(generators):
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
        # bits per letter of a packed word
        self._bits = max(1, (len(gens) - 1).bit_length())
        self._no_terms = (_NO_TERMS,) * (max_weight + 1)
        self._signature = (tuple((g.name, g.degree) for g in gens), max_weight)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> Generator:
        try:
            return self.generators[self._index_by_name[name]]
        except KeyError:
            raise KeyError(f"no generator named {name!r} in this context") from None

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, self._no_terms, 1)

    def gen(self, name: str) -> AlgebraElement:
        """The generator ``name`` as a weight-1 element."""
        index = self.generator(name).index
        buckets = list(self._no_terms)
        buckets[1] = {self._pack((index,)): 1}
        return AlgebraElement(self, buckets, 1, self._degrees[index])

    def element(
        self, terms: Mapping[Sequence[str] | Word, int | Fraction]
    ) -> AlgebraElement:
        """Build an element from a word -> coefficient mapping.

        Words may be given as tuples of generator indices or sequences
        of generator names.  Zero coefficients and words heavier than
        ``max_weight`` are dropped, and coefficients of words that name
        the same word are summed; empty words are rejected (the algebra
        never stores a weight-0 part).
        """
        coeffs: list[dict[int, Fraction]] = self._empty_buckets()  # type: ignore[assignment]
        for raw_word, raw_coeff in terms.items():
            coeff = _as_fraction(raw_coeff)
            if not coeff:
                continue
            word = self._normalize_word(raw_word)
            if len(word) <= self.max_weight:
                bucket = coeffs[len(word)]
                packed = self._pack(word)
                bucket[packed] = bucket.get(packed, 0) + coeff
        den = math.lcm(*(c.denominator for bucket in coeffs for c in bucket.values()))
        return AlgebraElement(
            self,
            [{w: c.numerator * (den // c.denominator) for w, c in bucket.items()} for bucket in coeffs],
            den,
        )

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

    # -- packed words: a sentinel 1 bit, then one `_bits`-wide field per letter

    def _empty_buckets(self) -> list[dict[int, int]]:
        """One new empty dict per weight ``0..max_weight``, to fill in place.

        Code that only ever replaces an empty bucket starts from
        ``list(_no_terms)`` instead, the read-only empty mapping at
        every weight."""
        return [{} for _ in range(self.max_weight + 1)]

    def _pack(self, word: Word) -> int:
        packed = 1
        bits = self._bits
        for letter in word:
            packed = packed << bits | letter
        return packed

    def _unpack(self, packed: int, weight: int) -> Word:
        bits = self._bits
        mask = (1 << bits) - 1
        return tuple([packed >> shift & mask for shift in range(bits * (weight - 1), -1, -bits)])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AlgebraContext):
            return NotImplemented
        return self._signature == other._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    def __reduce__(self) -> tuple:
        return AlgebraContext, self._signature

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"AlgebraContext([{gens}], max_weight={self.max_weight})"


class AlgebraElement:
    """A truncated series in the tensor algebra of a context.

    The stored form is one positive denominator ``_den`` and a tuple
    ``_buckets`` of one mapping per weight ``0..max_weight``:
    ``_buckets[k]`` maps each weight-``k`` word, packed into an
    :class:`int`, to its nonzero integer numerator, the coefficient of
    the word being that numerator over ``_den`` (``_buckets[0]`` is
    always empty).  A packed word is a sentinel 1 bit followed by the
    letters' generator indices, first letter highest, each in the
    context's fixed number of bits, so integer order is canonical order.
    The gcd of ``_den`` and all numerators is 1, so ``_den`` is the least
    common denominator of the coefficients and the form is unique; no
    word is heavier than the context's truncation order.  Instances are
    immutable, the buckets included: elements may share a bucket, and
    every empty one is the same read-only mapping.  All arithmetic
    returns new elements.

    ``_degree`` is the degree of every word, or ``None`` while it is not
    known and on the zero element; :meth:`homogeneous_degree` scans the
    words, a chunk of letters per lookup, only while it is ``None``, and
    keeps what it finds.  An operation whose result degree follows from
    its inputs' known degrees sets it on a nonzero result, so no scan is
    needed: generators, scaling and negation, the product and
    :func:`bracket`, sums (when every nonzero operand has the same known
    degree), :meth:`in_context` and :func:`apply_morphism`,
    :func:`weight_component`, the filters ``_ending_in`` and
    ``_terms_using``, the right-normed bracketing, the Horner kernel by a
    degree-0 multiplier, and the Leibniz kernel of a model's differential,
    which lowers it by one.
    Only elements built from terms (:meth:`AlgebraContext.element`, the
    decoders) are scanned.

    Supported arithmetic: ``+``, ``-``, unary ``-``, scalar
    multiplication by :class:`int` or :class:`Fraction` on either side,
    and ``x * y`` for the associative (concatenation) product.  The
    graded Lie bracket is the module function :func:`bracket`.
    """

    __slots__ = ("context", "_den", "_buckets", "_degree")
    __hash__ = None  # term maps are dicts; value equality only

    def __init__(
        self, context: AlgebraContext, buckets: _Buckets, den: int, degree: int | None = None
    ) -> None:
        # The element with coefficients buckets[k][w] / den, den > 0, one
        # mapping of packed words per weight 0..max_weight: zero numerators
        # dropped and the gcd divided out, leaving the least common
        # denominator.  It keeps the dicts it is given (so nothing may
        # mutate a stored bucket) and shares one read-only mapping among
        # the empty ones.  ``degree``, when given, is the degree of every
        # word, which the caller knows; it is kept if the element is nonzero.
        kept = tuple([
            (({w: n for w, n in bucket.items() if n} if 0 in bucket.values() else bucket) or _NO_TERMS)
            if bucket
            else _NO_TERMS
            for bucket in buckets
        ])
        common = den
        for bucket in kept:
            if common == 1:
                break
            if bucket:
                common = math.gcd(common, *bucket.values())
        if common != 1:
            kept = tuple([
                {w: n // common for w, n in bucket.items()} if bucket else bucket for bucket in kept
            ])
        self.context = context
        self._den = den // common
        self._buckets = kept
        self._degree = degree if degree is not None and any(kept) else None

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Terms in canonical order: weight ascending, then lexicographic."""
        den = self._den
        unpack = self.context._unpack
        return (
            (unpack(w, k), Fraction(n, den))
            for k, bucket in enumerate(self._buckets)
            for w, n in sorted(bucket.items())
        )

    def coefficient(self, word: Sequence[str] | Word) -> Fraction:
        context = self.context
        letters = context._normalize_word(word)
        if len(letters) > context.max_weight:
            return Fraction(0)
        return Fraction(self._buckets[len(letters)].get(context._pack(letters), 0), self._den)

    def weights(self) -> tuple[int, ...]:
        return tuple(k for k, bucket in enumerate(self._buckets) if bucket)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all words; ``None`` for the zero element.

        The zero element is homogeneous of every degree.  Mixed-degree
        elements raise :class:`GradingError`.
        """
        if self._degree is None:  # a zero element has no word to scan
            sums = _degree_table(self.context)
            degrees: set[int] = set()
            for k, bucket in enumerate(self._buckets):
                if bucket:
                    total, *chunks = sums.columns(bucket, k)
                    for column in chunks:
                        total = [a + b for a, b in zip(total, column)]
                    degrees.update(total)
            if len(degrees) > 1:
                raise GradingError(f"element has mixed degrees {sorted(degrees)}")
            self._degree = degrees.pop() if degrees else None
        return self._degree

    def is_zero(self) -> bool:
        return not any(self._buckets)

    # -- linear structure ---------------------------------------------

    def _require_same_context(self, other: AlgebraElement) -> None:
        if self.context != other.context:
            raise ContextMismatchError("elements belong to different contexts")

    def __bool__(self) -> bool:
        return any(self._buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.context == other.context
            and self._den == other._den
            and self._buckets == other._buckets
        )

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._plus(1, other)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._plus(-1, other)

    def _plus(self, sign: int, other: AlgebraElement) -> AlgebraElement:
        # self + sign * other, over the lcm of the two denominators: a
        # bucket only one operand has is shared when its scale is 1, and
        # the sum keeps the degree its nonzero operands have in common
        self._require_same_context(other)
        den = math.lcm(self._den, other._den)
        lift, scale = den // self._den, sign * (den // other._den)
        out = []
        for left, right in zip(self._buckets, other._buckets):
            if not right:
                out.append(left if lift == 1 or not left else {w: lift * n for w, n in left.items()})
            elif not left:
                out.append(right if scale == 1 else {w: scale * n for w, n in right.items()})
            else:
                total = dict(left) if lift == 1 else {w: lift * n for w, n in left.items()}
                get = total.get
                for w, n in right.items():
                    total[w] = get(w, 0) + scale * n
                out.append(total)
        degrees = {y._degree for y in (self, other) if y}
        return AlgebraElement(self.context, out, den, degrees.pop() if len(degrees) == 1 else None)

    def __neg__(self) -> AlgebraElement:
        return self._scaled(Fraction(-1))

    def _scaled(self, scalar: Fraction) -> AlgebraElement:
        factor = scalar.numerator
        return AlgebraElement(
            self.context,
            [{w: n * factor for w, n in bucket.items()} if bucket else bucket for bucket in self._buckets],
            self._den * scalar.denominator,
            self._degree,
        )

    def __mul__(self, other: AlgebraElement | int | Fraction) -> AlgebraElement:
        """Associative product, truncated at the context's max weight, or a scaling."""
        if isinstance(other, AlgebraElement):
            self._require_same_context(other)
            return _product(self, other, self.context.max_weight)
        return self._scaled(_as_fraction(other))

    def __rmul__(self, scalar: int | Fraction) -> AlgebraElement:
        return self._scaled(_as_fraction(scalar))

    def in_context(self, context: AlgebraContext) -> AlgebraElement:
        """Re-express this element in another context.

        Every generator appearing in a word must exist in the target
        context with the same degree; indices are remapped by name.
        Words heavier than the target's truncation order are dropped,
        and a generator used only in them need not exist in the target.
        """
        if context == self.context:
            return self
        table: list[tuple[int, int] | None] = []
        for g in self.context.generators:
            index = context._index_by_name.get(g.name)
            if index is not None and context._degrees[index] != g.degree:
                raise ContextMismatchError(
                    f"generator {g.name!r} has degree {context._degrees[index]} in the "
                    f"target context, expected {g.degree}"
                )
            table.append(None if index is None else (1, index))
        missing = []
        if None in table:  # a generator the target lacks may occur only in the dropped words
            missing = [i for i in _letters(self, context.max_weight) if table[i] is None]
        if missing:
            names = sorted(self.context.generators[i].name for i in missing)
            raise ContextMismatchError(f"target context lacks generators {names}")
        return _relabel(self, context, table)

    def __reduce__(self) -> tuple:  # copies go through the constructor, from plain dicts
        return AlgebraElement, (self.context, [dict(b) for b in self._buckets], self._den, self._degree)

    def __repr__(self) -> str:
        text = format_element(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<AlgebraElement {text}>"


_Buckets = Sequence[Mapping[int, int]]

# every empty bucket of every element: one read-only empty mapping
_NO_TERMS: Mapping[int, int] = MappingProxyType({})

# the most words of one length that a letter-chunk table holds
_CHUNK_ENTRIES = 4096


# -- integer kernels on packed words ------------------------------------------


def _add_products(out: list[Mapping[int, int]], left: _Buckets, right: _Buckets, bits: int, scale: int) -> None:
    """Add ``scale * a * b`` to ``out[k + l][uv]`` for every weight-``k``
    term ``(u, a)`` of ``left`` and weight-``l`` term ``(v, b)`` of
    ``right`` with ``k + l`` at most the truncation ``len(out) - 1``.

    ``scale`` is a sign, or the factor that brings a Horner step over its
    sum's denominator.  Nonempty buckets of ``out`` are updated in place.
    The packed concatenation ``uv`` is ``((u - 1) << bits * l) + v``: the
    sentinel of ``u`` moves up to the top and that of ``v`` is absorbed.
    """
    limit = len(out) - 1
    for k in range(limit - 1, 0, -1):
        us = left[k]
        if not us:
            continue
        for l in range(1, limit - k + 1):
            vs = right[l]
            if not vs:
                continue
            shift = bits * l
            pairs = vs.items()
            target = out[k + l]
            if not target:
                # the words uv of one weight pair are distinct: no sums
                out[k + l] = {
                    ((u - 1) << shift) + v: scale * a * b for u, a in us.items() for v, b in pairs
                }
                continue
            get = target.get
            for u, a in us.items():
                base = (u - 1) << shift
                a *= scale
                for v, b in pairs:
                    w = base + v
                    target[w] = get(w, 0) + a * b


def _product(x: AlgebraElement, y: AlgebraElement, top: int) -> AlgebraElement:
    """The associative product ``x y`` through weight ``top``: the kernel
    pairs only the weights whose sum is at most ``top``."""
    context = x.context
    out = list(context._no_terms[: top + 1])
    _add_products(out, x._buckets, y._buckets, context._bits, 1)
    out.extend(context._no_terms[top + 1 :])
    p, q = x._degree, y._degree
    return AlgebraElement(context, out, x._den * y._den, None if p is None or q is None else p + q)


def _letters(x: AlgebraElement, top: int) -> list[int]:
    """The generator indices that occur in the words of ``x`` of weight at
    most ``top``, in ascending order: one pass per letter position of each
    weight, until every generator is found."""
    bits = x.context._bits
    mask = (1 << bits) - 1
    every = len(x.context.generators)
    found: set[int] = set()
    for k, bucket in enumerate(x._buckets[: top + 1]):
        for shift in range(0, bits * k, bits):
            found.update({w >> shift & mask for w in bucket})
            if len(found) == every:
                return sorted(found)
    return sorted(found)


def _terms_using(x: AlgebraElement, letters: Collection[int]) -> AlgebraElement:
    """The terms of ``x`` whose words contain a letter of ``letters``."""
    context = x.context
    bits = context._bits
    mask = (1 << bits) - 1
    out = list(context._no_terms)
    for k, bucket in enumerate(x._buckets if letters else ()):  # no letters: no terms
        shifts = range(0, bits * k, bits)
        out[k] = {w: n for w, n in bucket.items() if any(w >> shift & mask in letters for shift in shifts)}
    return AlgebraElement(context, out, x._den, x._degree)


def _ending_in(x: AlgebraElement, letters: Collection[int]) -> AlgebraElement:
    """The terms of ``x`` whose words end in a letter of ``letters``."""
    context = x.context
    mask = (1 << context._bits) - 1
    out = [{w: n for w, n in bucket.items() if w & mask in letters} for bucket in x._buckets]
    return AlgebraElement(context, out, x._den, x._degree)


class _ChunkTable(dict):
    """The one reader of packed words a chunk of letters at a time.

    It maps a packed word of 1 to ``chunk`` letters of its context to the
    fold of its letters' entries by ``extend``, from ``empty`` for the empty
    word.  ``chunk`` is the largest c with n**c at most ``_CHUNK_ENTRIES``
    for the context's n generators, and no more than its order.
    :meth:`columns` reads a word's leading 1 to ``chunk`` letters as one
    key, and each following run of ``chunk`` letters as a key once a
    sentinel bit is put above it; the degree scan, the relabelling and the
    JSON writer read words only through it, so the layout is decided here
    alone.  Entries are filled on first use, each from the entry of its word
    less the last letter, so only the chunks that occur are built.
    """

    __slots__ = ("bits", "chunk", "entries", "extend")

    def __init__(
        self, context: AlgebraContext, entries: Sequence[object], empty: object, extend: Callable
    ) -> None:
        super().__init__({1: empty})
        self.bits = context._bits
        chunk, n = 1, len(context.generators)
        while chunk < context.max_weight and n ** (chunk + 1) <= _CHUNK_ENTRIES:
            chunk += 1
        self.chunk = chunk
        self.entries = entries  # per letter index
        self.extend = extend

    def __missing__(self, word: int) -> object:
        bits = self.bits
        value = self[word] = self.extend(self[word >> bits], self.entries[word & ((1 << bits) - 1)])
        return value

    def columns(self, words: Iterable[int], k: int) -> list[list]:
        """The entries of the weight-``k`` ``words``: one list per chunk,
        leading chunk first, each in the order of ``words``."""
        step = self.bits * self.chunk
        top = step * ((k - 1) // self.chunk)
        mask, flag = (1 << step) - 1, 1 << step
        rest = ([self[w >> shift & mask | flag] for w in words] for shift in range(top - step, -1, -step))
        return [[self[w >> top] for w in words], *rest]


@lru_cache(maxsize=64)
def _relabel_table(
    source: AlgebraContext, target: AlgebraContext, table: tuple[tuple[int, int] | None, ...]
) -> _ChunkTable:
    # the chunk table of a relabelling: (sign, packed image in target)
    bits = target._bits
    return _ChunkTable(
        source, table, (1, 1), lambda acc, entry: (acc[0] * entry[0], acc[1] << bits | entry[1])
    )


@lru_cache(maxsize=64)
def _degree_table(context: AlgebraContext) -> _ChunkTable:
    # the chunk table of word degrees: the sum of the letters' degrees
    return _ChunkTable(context, context._degrees, 0, lambda acc, degree: acc + degree)


def _relabel(
    x: AlgebraElement, context: AlgebraContext, table: Sequence[tuple[int, int] | None]
) -> AlgebraElement:
    """``x`` with each letter ``i`` replaced by ``sign`` times generator
    ``j`` of ``context``, where ``table[i] == (sign, j)``.

    Each word is repacked at the target's width with the product of its
    letters' signs, a chunk of letters per lookup (:class:`_ChunkTable`);
    words heavier than the target's order are dropped.  Every letter of a
    kept word must have an entry in ``table``.  The map keeps degrees.
    """
    images = _relabel_table(x.context, context, tuple(table))
    shift = context._bits * images.chunk  # the width of a whole chunk's image
    out = list(context._no_terms)
    for k, bucket in enumerate(x._buckets[: context.max_weight + 1]):
        if not bucket:
            continue
        moved, *chunks = images.columns(bucket, k)
        if not chunks:  # words of one chunk
            out[k] = {u: s * n for (s, u), n in zip(moved, bucket.values())}
            continue
        *chunks, last = chunks
        for column in chunks:  # the images so far, each followed by its next chunk's
            moved = [(s * t, ((u - 1) << shift) + v) for (s, u), (t, v) in zip(moved, column)]
        terms = zip(moved, last, bucket.values())
        out[k] = {((u - 1) << shift) + v: s * t * n for (s, u), (t, v), n in terms}
    return AlgebraElement(context, out, x._den, x._degree)


def _odd_derivation(
    x: AlgebraElement,
    differential: Mapping[str, AlgebraElement],
    top: int,
    ending: Collection[int] | None = None,
) -> AlgebraElement:
    """The odd derivation that sends each generator named ``name`` to
    ``differential[name]``, applied to ``x``, through weight ``top``; with
    ``ending``, only its words that end in a letter of ``ending``.

    It acts letter by letter with the Koszul sign
    ``D(uv) = (Du) v + (-1)^{|u|} u (Dv)``, and reads only the images of
    the letters that occur in ``x``.  Each image is zero or of degree one
    less than its letter's, as a model's differential is
    (:class:`~dgla.models.CellModel`), so when ``x`` has a known degree
    the result has that degree less one.

    With ``ending`` the image of a word's last letter is cut to its words
    that end in ``ending``, and the other letters are replaced only in the
    words whose last letter is in ``ending``: replacing a letter before
    the last keeps the last.  A word ``u l`` whose last letter ``l`` is
    not in ``ending`` contributes ``(-1)^{|u|} u D(l)`` alone, and ``x``
    must then be homogeneous, since ``|u| = |x| - |l|`` is read from its
    degree.
    """
    context = x.context
    images = {letter: differential[context.generators[letter].name] for letter in _letters(x, top)}
    shared = math.lcm(*(d._den for d in images.values()))
    last_images = images  # of the last letter of a word
    if ending is not None:
        last_images = {letter: _ending_in(d, ending) for letter, d in images.items()}
        # per last letter l, the parity of the letters before it, |x| - |l|
        degree = x.homogeneous_degree() or 0
        flips = [(degree - d) % 2 for d in context._degrees]
    bits = context._bits
    mask = (1 << bits) - 1
    parities = context._parities
    out = context._empty_buckets()
    for k, bucket in enumerate(x._buckets[: top + 1]):
        if not bucket:
            continue
        # The words whose every letter is replaced, and, with ``ending``,
        # those that end outside it, whose last letter is replaced alone,
        # their prefix's sign taken up front.
        words, alone = bucket.items(), ()
        if ending is not None:
            alone = [(w, -n if flips[w & mask] else n) for w, n in words if w & mask not in ending]
            words = [(w, n) for w, n in words if w & mask in ending]
        # Per letter position, the letter having s letters after it: its
        # shift, the shift and mask that cut the word around it, and per
        # letter the image terms that fit (weight m <= top - k + 1), as
        # (shift of the letters before, output bucket, image words
        # shifted up past the s letters after, numerators over `shared`).
        steps = []
        for s in range(k - 1 if words else 0, -1, -1):
            low = bits * s
            plan: list[list] = [[] for _ in context.generators]
            for letter, d in (last_images if s == 0 else images).items():
                scale = shared // d._den
                for m in range(1, top - k + 2):
                    if d._buckets[m]:
                        target = out[k - 1 + m]
                        terms = [(u << low, n * scale) for u, n in d._buckets[m].items()]
                        plan[letter].append((bits * (m + s), target, target.get, terms))
            steps.append((low, low + bits, (1 << low) - 1, plan))
        for group, positions in ((words, steps), (alone, steps[-1:])):
            for word, a in group:
                for low, high, tail_mask, plan in positions:
                    letter = word >> low & mask
                    replacements = plan[letter]
                    if replacements:
                        head = (word >> high) - 1  # the letters before, sentinel cleared
                        tail = word & tail_mask  # the letters after
                        for shift, target, get, terms in replacements:
                            base = (head << shift) + tail
                            for u, b in terms:
                                w = base + u
                                target[w] = get(w, 0) + a * b
                    if parities[letter]:
                        a = -a
    return AlgebraElement(context, out, x._den * shared, None if x._degree is None else x._degree - 1)


def _horner(
    start: AlgebraElement,
    multiplier: AlgebraElement,
    table: Sequence[Fraction],
    step: Callable[[list[Mapping[int, int]], _Buckets, _Buckets, int, int], None],
) -> AlgebraElement:
    """``sum_k table[k] S^k(start)`` as ``c_0 start + S(c_1 start + ...)``
    for the step ``S`` by ``multiplier``: :func:`_add_products` (on the
    right), :func:`_times_left` or :func:`_ad`.

    No element stores the empty word, so ``S`` raises the weight, and the
    inner sum that ``S`` is still applied to ``j`` times is kept through
    weight ``order - j`` only.  Each step adds ``S`` of the inner sum to
    fresh buckets holding ``c_j start``, over one denominator.  A degree-0
    multiplier keeps ``start``'s degree; other powers may differ in it.
    """
    context = start.context
    order = context.max_weight
    last = max((k for k, c in enumerate(table[:order]) if c), default=-1)  # S^order(start) = 0
    degree = start._degree if multiplier._degree == 0 else None
    by, bits = multiplier._buckets, context._bits
    inner = context.zero()
    for j in range(last, -1, -1):
        c, top = table[j], order - j
        term = c.denominator * start._den if c else 1
        den = math.lcm(term, inner._den * multiplier._den)
        factor = c.numerator * (den // term)
        out = list(context._no_terms[: top + 1])
        for k in range(1, top + 1) if factor else ():
            bucket = start._buckets[k]
            if bucket:
                out[k] = {w: factor * n for w, n in bucket.items()}
        if inner:
            step(out, inner._buckets, by, bits, den // (inner._den * multiplier._den))
        out.extend(context._no_terms[top + 1 :])
        inner = AlgebraElement(context, out, den, degree)
    return inner


# The steps of _horner: scale * S(inner) added to out, through its length.


def _times_left(out: list[Mapping[int, int]], inner: _Buckets, by: _Buckets, bits: int, scale: int) -> None:
    _add_products(out, by, inner, bits, scale)


def _ad(out: list[Mapping[int, int]], inner: _Buckets, by: _Buckets, bits: int, scale: int) -> None:
    # the bracket with a degree-0 multiplier: by * inner - inner * by
    _add_products(out, by, inner, bits, scale)
    _add_products(out, inner, by, bits, -scale)


class GeneratorMorphism:
    """A degree-preserving signed permutation of a context's generators.

    The mapping sends each generator to ``+`` or ``-`` another generator
    of the same degree; it extends to words letter by letter with the
    product of the signs (:func:`apply_morphism`).  Each target is a
    bare name (``"f"``) or a negated name (``"-f"``); generators absent
    from the mapping are fixed.
    """

    __slots__ = ("context", "_table")

    def __init__(self, context: AlgebraContext, mapping: Mapping[str, str]) -> None:
        unknown = set(mapping) - set(context.names)
        if unknown:
            raise KeyError(f"mapping names unknown to the context: {sorted(unknown)}")
        table: list[tuple[int, int]] = []
        for g in context.generators:
            spec = mapping.get(g.name, g.name)
            if not isinstance(spec, str):
                raise TypeError(f"morphism target must be a name or a negated name, got {spec!r}")
            name = spec.removeprefix("-")
            target = context.generator(name)
            if target.degree != g.degree:
                raise ValueError(
                    f"morphism must preserve degree: {g.name!r} (degree {g.degree}) "
                    f"-> {target.name!r} (degree {target.degree})"
                )
            table.append((-1 if name != spec else 1, target.index))
        if len({idx for _, idx in table}) != len(table):
            raise ValueError("morphism must be a bijection on generators")
        self.context = context
        self._table = tuple(table)

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


# -- operations --------------------------------------------------------


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
    context = x.context
    out = list(context._no_terms)
    _add_products(out, x._buckets, y._buckets, context._bits, 1)
    _add_products(out, y._buckets, x._buckets, context._bits, 1 if p % 2 and q % 2 else -1)
    return AlgebraElement(context, out, x._den * y._den, p + q)


def weight_component(x: AlgebraElement, k: int) -> AlgebraElement:
    """The sum of terms of ``x`` whose words have length exactly ``k``."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= x.context.max_weight:
        raise ValueError(
            f"weight must lie in 1..{x.context.max_weight}, got {k!r}"
        )
    out = list(x.context._no_terms)
    out[k] = x._buckets[k]
    return AlgebraElement(x.context, out, x._den, x._degree)


def apply_morphism(m: GeneratorMorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply a generator morphism letter by letter, multiplying signs."""
    if m.context != x.context:
        raise ContextMismatchError("morphism and element belong to different contexts")
    return _relabel(x, x.context, m._table)


def _bracketing(bucket: Mapping[int, int], k: int, bits: int, parities: Sequence[int]) -> tuple[dict, dict]:
    """The right-normed bracketing ``θ(P) = Σ_x [x, θ(P_x)]``, ``θ(x) = x``, of
    the weight-``k`` part ``P = Σ_x x P_x`` in ``bucket``, as numerators (some
    possibly zero) split by parity, ``(even, odd)``.  Each ``[x, T] = x T -
    (-1)^{|x||T|} T x`` reads ``|T|`` from the split; it has parity ``|x| + |T|``."""
    split: tuple[dict[int, int], dict[int, int]] = ({}, {})
    if k == 1:
        for w, n in bucket.items():
            split[parities[w - (1 << bits)]][w] = n
        return split
    shift = bits * (k - 1)
    by_first: dict[int, dict[int, int]] = {}
    for w, n in bucket.items():
        base = ((w >> shift) - 1) << shift  # w = x u is base + u
        by_first.setdefault(base, {})[w - base] = n
    for base, tails in by_first.items():
        letter = (base >> shift) + 1 - (1 << bits)
        odd = parities[letter]
        for parity, terms in enumerate(_bracketing(tails, k - 1, bits, parities)):
            sign = -1 if odd and parity else 1
            out = split[odd ^ parity]
            get = out.get
            for u, n in terms.items():
                w = base + u
                out[w] = get(w, 0) + n
                w = u << bits | letter
                out[w] = get(w, 0) - sign * n
    return split


def _right_normed(x: AlgebraElement) -> AlgebraElement:
    """``θ(x)``, weight by weight: each word ``w1 … wk`` becomes
    ``[w1, [w2, … [w(k-1), wk]]]``.  A word's parity is that of its letters,
    so the even and odd parts share no word and their union is their sum."""
    context = x.context
    out = list(context._no_terms)
    for k, bucket in enumerate(x._buckets):
        if bucket:
            even, odd = _bracketing(bucket, k, context._bits, context._parities)
            out[k] = even | odd
    return AlgebraElement(context, out, x._den, x._degree)


def is_primitive(x: AlgebraElement, wmax: int) -> bool:
    """Test whether ``x`` is a Lie element through weight ``wmax``.

    Uses the Dynkin–Specht–Wever criterion: the weight-``k`` part ``P``
    of an element of the tensor algebra lies in the free Lie algebra
    exactly when its right-normed bracketing ``θ(P)`` equals ``k P``.
    The bracketing keeps every Koszul sign, so the test is exact for any
    mix of parities and degrees, at every ``1 <= wmax <= max_weight``.
    """
    context = x.context
    if not isinstance(wmax, int) or isinstance(wmax, bool) or not 1 <= wmax <= context.max_weight:
        raise ValueError(f"wmax must lie in 1..{context.max_weight}, got {wmax!r}")
    for k in range(2, wmax + 1):  # weight-1 words are Lie by definition
        bucket = x._buckets[k]
        even, odd = _bracketing(bucket, k, context._bits, context._parities)
        if {w: n for w, n in (*even.items(), *odd.items()) if n} != {w: k * n for w, n in bucket.items()}:
            return False
    return True


# -- canonical serialization -------------------------------------------

_COEFF_RE = re.compile(r"(-?)(0|[1-9][0-9]*)/([1-9][0-9]*)")

# Highest order a payload may declare: a context holds one bucket per weight.
_MAX_PAYLOAD_ORDER = 64

_TERM_FIELDS = frozenset(("coeff", "word"))
_GENERATOR_FIELDS = frozenset(("name", "degree"))
_SERIES_FIELDS = frozenset(("label", "terms"))
_PAYLOAD_FIELDS = frozenset(("order", "generators", "series"))


def _terms_to_json(x: AlgebraElement) -> list[dict]:
    """The canonical term list ``[{"coeff": "p/q", "word": [names]}, ...]`` that :func:`encode` writes."""
    return json.loads(_dump_json(x))


def encode(x: AlgebraElement, label: str = "series") -> str:
    """Serialize an element to the canonical JSON series format.

    The payload records the context (generator list and truncation
    order) alongside the labeled term list, coefficients as base-10
    ``"p/q"`` strings with positive denominators in lowest terms, terms
    in canonical order.  ``decode(encode(x)) == x``.  The bytes are those of
    ``json.dumps(payload, indent=2, ensure_ascii=False)``, written straight from the stored numerators.
    """
    return _dump_json({**_context_json(x.context), "series": {"label": label, "terms": x}})


def _context_json(context: AlgebraContext) -> dict:
    """The ``"order"`` and ``"generators"`` fields that :func:`_context_from_json` reads."""
    gens = [{"name": g.name, "degree": g.degree} for g in context.generators]
    return {"order": context.max_weight, "generators": gens}


def _dump_json(value: object) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for a JSON value
    with string keys, in which an element stands for its term list: the
    pieces are collected in one list and joined once."""
    parts: list[str] = []
    _write_json(value, "", parts)
    return "".join(parts)


def _write_json(value: object, indent: str, parts: list[str]) -> None:
    # append the pieces of value's text at indent to parts; json.dumps
    # writes the scalars and the empty dicts and lists
    inner = indent + "  "
    if isinstance(value, AlgebraElement):
        if value:
            parts.append("[")
            _write_terms(value, inner, parts)
            parts.append(f"\n{indent}]")
        else:
            parts.append("[]")
    elif isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            parts.append(f"{',' if i else '{'}\n{inner}{json.dumps(key, ensure_ascii=False)}: ")
            _write_json(item, inner, parts)
        parts.append(f"\n{indent}}}")
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            parts.append(f"{',' if i else '['}\n{inner}")
            _write_json(item, inner, parts)
        parts.append(f"\n{indent}]")
    else:
        parts.append(json.dumps(value, ensure_ascii=False))


@lru_cache(maxsize=64)
def _name_table(context: AlgebraContext, comma: str) -> _ChunkTable:
    # the chunk table of the word text: the JSON names of the letters, joined by comma
    names = [json.dumps(name, ensure_ascii=False) for name in context.names]
    return _ChunkTable(context, names, "", lambda acc, name: f"{acc}{comma}{name}" if acc else name)


def _write_terms(x: AlgebraElement, indent: str, parts: list[str]) -> None:
    """Append the terms of a nonzero ``x`` in canonical order as :func:`_write_json` writes
    them at ``indent``, each after a line break: one template fill per term, each distinct
    numerator's ``"p/q"`` reduced by one gcd, and the word's names read a chunk of letters at
    a time from :func:`_name_table`, each name escaped once."""
    comma = f",\n{indent}    "
    template = f'\n{indent}{{\n{indent}  "coeff": "%s",\n{indent}  "word": [\n{indent}    %s\n'
    template += f"{indent}  ]\n{indent}}}"
    names = _name_table(x.context, comma)
    den, gcd = x._den, math.gcd
    coeffs: dict[int, str] = {}
    for k, bucket in enumerate(x._buckets):
        if not bucket:
            continue
        words = sorted(bucket)
        for w, word in zip(words, map(comma.join, zip(*names.columns(words, k)))):
            n = bucket[w]
            coeff = coeffs.get(n)
            if coeff is None:
                common = gcd(n, den)
                coeff = coeffs[n] = f"{n // common}/{den // common}"
            parts.append(template % (coeff, word))
            parts.append(",")
    parts.pop()  # no comma after the last term


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise SeriesParseError(message, position=path)


def _expect_fields(item: dict, fields: frozenset[str], what: str, path: str) -> None:
    if not item.keys() <= fields:
        raise SeriesParseError(f"unknown {what} fields {sorted(item.keys() - fields)}", path)


def _parse_coeff(raw: object) -> tuple[int, int]:
    # the signed numerator and the denominator of a canonical "p/q"; a defect raises ValueError
    if not isinstance(raw, str):
        raise ValueError("coefficient must be a string")
    match = _COEFF_RE.fullmatch(raw)
    if match is None:
        raise ValueError(f"coefficient {raw!r} is not of the form p/q with q > 0")
    sign, num, den = match.groups()
    numerator, denominator = int(num), int(den)  # more digits than the interpreter converts raise
    if not numerator:
        raise ValueError("zero coefficients are never stored")
    if math.gcd(numerator, denominator) != 1:
        raise ValueError(f"coefficient {raw!r} is not in lowest terms")
    return (-numerator if sign else numerator), denominator


def _context_from_json(data: object) -> AlgebraContext:
    """Rebuild an :class:`AlgebraContext` from decoded envelope fields."""
    _expect(isinstance(data, dict), "payload must be a JSON object", "$")
    order = data.get("order")  # type: ignore[union-attr]
    _expect(
        isinstance(order, int) and not isinstance(order, bool) and 1 <= order <= _MAX_PAYLOAD_ORDER,
        f"order must be an integer in 1..{_MAX_PAYLOAD_ORDER}",
        "order",
    )
    raw_gens = data.get("generators")  # type: ignore[union-attr]
    _expect(isinstance(raw_gens, list) and raw_gens, "generators must be a nonempty list", "generators")
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for i, item in enumerate(raw_gens):  # type: ignore[union-attr]
        gpath = f"generators[{i}]"
        _expect(isinstance(item, dict), "generator entry must be an object", gpath)
        _expect_fields(item, _GENERATOR_FIELDS, "generator", gpath)
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


def _element_from_json_terms(context: AlgebraContext, data: object, path: str) -> AlgebraElement:
    """Rebuild an element from a canonical term list, strictly validated.

    Rejects non-canonical coefficients (``"2/4"``, zero, negative
    denominators), unknown generator names, overweight or empty words,
    and term lists not already in canonical order.  ``data`` is as :func:`json.loads` returns it;
    one loop checks each term in a fixed order, building a message only for the defect it reports.
    """
    _expect(isinstance(data, list), "terms must be a list", path)
    index = context._index_by_name
    bits, limit = context._bits, context.max_weight
    parsed: dict[str, tuple[int, int]] = {}  # a series repeats few coefficients
    terms: list[tuple[int, int, int, int]] = []  # weight, packed word, numerator, denominator
    previous = 0  # below every packed word; packed order is canonical order
    for i, item in enumerate(data):  # type: ignore[union-attr]
        if not isinstance(item, dict):
            raise SeriesParseError("term must be an object", f"{path}[{i}]")
        if not item.keys() <= _TERM_FIELDS:
            _expect_fields(item, _TERM_FIELDS, "term", f"{path}[{i}]")
        raw = item.get("coeff")
        coeff = parsed.get(raw) if isinstance(raw, str) else None
        if coeff is None:
            try:
                coeff = parsed[raw] = _parse_coeff(raw)
            except ValueError as exc:
                raise SeriesParseError(str(exc), f"{path}[{i}].coeff") from None
        word = item.get("word")
        if not isinstance(word, list) or not word:
            raise SeriesParseError("word must be a nonempty list", f"{path}[{i}].word")
        packed = 1
        try:
            for letter in word:
                packed = packed << bits | index[letter]
        except (KeyError, TypeError):  # report the first letter that is not a name
            j, bad = next((j, c) for j, c in enumerate(word) if not isinstance(c, str) or c not in index)
            where = f"{path}[{i}].word[{j}]"
            _expect(isinstance(bad, str), "word letters must be generator names", where)
            raise SeriesParseError(f"unknown generator {bad!r}", where) from None
        if len(word) > limit:
            raise SeriesParseError(f"word of weight {len(word)} exceeds order {limit}", f"{path}[{i}].word")
        if packed <= previous:
            raise SeriesParseError("terms are not in canonical order", f"{path}[{i}]")
        previous = packed
        terms.append((len(word), packed, *coeff))
    den = math.lcm(*(term[3] for term in terms))
    buckets = context._empty_buckets()
    for weight, packed, numerator, denominator in terms:
        buckets[weight][packed] = numerator * (den // denominator)
    return AlgebraElement(context, buckets, den)


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
    context = _context_from_json(data)
    _expect_fields(data, _PAYLOAD_FIELDS, "payload", "$")  # type: ignore[arg-type]
    _expect("series" in data, "missing series object", "series")  # type: ignore[operator]
    series = data["series"]
    _expect(isinstance(series, dict), "series must be an object", "series")
    _expect_fields(series, _SERIES_FIELDS, "series", "series")
    label = series.get("label")
    _expect(isinstance(label, str), "series label must be a string", "series.label")
    return _element_from_json_terms(context, series.get("terms"), "series.terms")


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
