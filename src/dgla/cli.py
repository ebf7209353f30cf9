"""Command-line surface: model construction, series expansion, BCH, verification.

Output is deterministic: identical invocations produce byte-identical
output.  Results go to stdout (or ``--output``); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import (
    DEFAULT_ORDER,
    AlgebraContext,
    AlgebraElement,
    GradingError,
    encode,
    format_element,
    format_element_latex,
    weight_component,
)
from .calculus import bch, bernoulli, extend_differential
from .models import (
    MODEL_NAMES,
    build_named_model,
    check_equivariance,
    compute_symmetric_data,
    encode_model,
    symmetry_morphism,
    verify_model,
)

# Highest supported --order; bernoulli accepts indices up to twice this.
MAX_ORDER = 10

EXPAND_LABELS = ("v", "x", "q", "Dv", "De", "Df", "Dg")

# Deepest bch(...) nesting an expression may use.  The parser recurses
# once per level, so this keeps it far below the interpreter's recursion
# limit.
MAX_BCH_NESTING = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # single-line diagnostics, exit code 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_INTEGER_RE = re.compile(r"[-+]?[0-9]+")


def _ascii_integer(text: str) -> int:
    # every integer argument: ASCII digits with an optional sign (int()
    # alone also takes other scripts' digits and underscores)
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")


def _validate_order(order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise UsageError(f"--order must lie in 1..{MAX_ORDER}, got {order}")


# -- bch expression language -------------------------------------------

_NAME_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<name>{_NAME_PATTERN})|(?P<sym>[-+*/(),]))")


def _integer(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise UsageError(f"integer at offset {offset} has too many digits") from None


class _ExprParser:
    """Parses one ``bch`` expression, e.g. ``-1/2*bch(e, f)``: a signed
    rational multiple of a generator or of a nested ``bch(...)`` term,

        expr := ("+"|"-")* [int ["/" int] "*"] (name | "bch" "(" expr ("," expr)* ")")
    """

    def __init__(self, context: AlgebraContext, text: str) -> None:
        self.context = context
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                if text[pos:].strip():
                    raise UsageError(f"bad character in expression at offset {pos}: {text[pos:]!r}")
                break
            kind = match.lastgroup or "sym"
            self.tokens.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.cursor = 0

    def _take(self, symbols: str = "") -> tuple[str, str, int] | None:
        # the next token, consumed; with symbols, only a symbol token among
        # them is consumed and any other token gives None
        if self.cursor == len(self.tokens):
            raise UsageError(f"unexpected end of expression: {self.text!r}")
        token = self.tokens[self.cursor]
        if symbols and (token[0] != "sym" or token[1] not in symbols):
            return None
        self.cursor += 1
        return token

    def _expect(self, symbol: str) -> None:
        if self._take(symbol) is None:
            raise UsageError(f"expected {symbol!r} at offset {self.tokens[self.cursor][2]} in {self.text!r}")

    def parse(self) -> AlgebraElement:
        element = self._expr()
        if self.cursor < len(self.tokens):
            raise UsageError(
                f"trailing input at offset {self.tokens[self.cursor][2]} in {self.text!r}"
            )
        return element

    def _expr(self, depth: int = 0) -> AlgebraElement:
        # depth counts the bch(...) terms that enclose this expression
        scale = Fraction(1)
        while token := self._take("+-"):
            if token[1] == "-":
                scale = -scale
        kind, value, offset = self._take()
        if kind == "int":
            scale *= _integer(value, offset)
            if self._take("/"):
                kind, value, offset = self._take()
                denominator = _integer(value, offset) if kind == "int" else 0
                if not denominator:
                    raise UsageError(f"bad denominator at offset {offset} in {self.text!r}")
                scale /= denominator
            self._expect("*")
            kind, value, offset = self._take()
        if kind != "name":
            raise UsageError(f"expected a generator or bch(...) at offset {offset} in {self.text!r}")
        if value != "bch":
            try:
                return scale * self.context.gen(value)
            except KeyError:
                raise UsageError(f"unknown generator {value!r} at offset {offset}")
        if depth == MAX_BCH_NESTING:
            raise UsageError(
                f"bch(...) nested deeper than {MAX_BCH_NESTING} levels at offset {offset}"
            )
        self._expect("(")
        arguments = [self._expr(depth + 1)]
        while self._take(","):
            arguments.append(self._expr(depth + 1))
        self._expect(")")
        return scale * bch(arguments)


def _parse_generator_list(raw: str, order: int) -> AlgebraContext:
    entries: list[tuple[str, int]] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, colon, degree = piece.partition(":")
        if not colon:
            raise UsageError(f"generator entries must be name:degree, got {piece!r}")
        name = name.strip()
        if not re.fullmatch(_NAME_PATTERN, name) or name == "bch":
            raise UsageError(f"generator entry {piece!r} has a name expressions cannot use")
        try:
            entries.append((name, _ascii_integer(degree.strip())))
        except argparse.ArgumentTypeError:
            raise UsageError(f"bad degree in generator entry {piece!r}")
    if not entries:
        raise UsageError("--gens must declare at least one generator")
    try:
        return AlgebraContext(entries, max_weight=order)
    except ValueError as exc:
        raise UsageError(str(exc))


# -- output --------------------------------------------------------------


def _render(element: AlgebraElement, label: str, fmt: str) -> str:
    if fmt == "json":
        return encode(element, label=label)
    if fmt == "text":
        return format_element(element)
    return format_element_latex(element)


def _emit(text: str, path: str | None) -> None:
    try:
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        elif sys.stdout is None:
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    except OSError as exc:
        if path is None and sys.stdout is not None:
            # what stdout could not take stays buffered; send the
            # interpreter's final flush of it to devnull, not to stderr
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                raise  # the reader stopped early: not an error
        where = "to stdout" if path is None else repr(path)
        raise UsageError(f"cannot write output {where}: {exc.strerror or exc}") from None


# -- subcommands ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--order", type=_ascii_integer, default=DEFAULT_ORDER, help=f"truncation order (default {DEFAULT_ORDER})")
    parser.add_argument("--output", default=None, help="write output to this path instead of stdout")
    if formats:
        parser.add_argument(
            "--format",
            choices=("json", "text", "latex"),
            default="json",
            help="output format (default json)",
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="dgla", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_bernoulli = commands.add_parser("bernoulli", help="print a Bernoulli number as p/q")
    p_bernoulli.add_argument("n", type=_ascii_integer)
    p_bernoulli.add_argument("--output", default=None)

    p_bch = commands.add_parser("bch", help="multi-argument BCH of degree-0 expressions")
    _add_common(p_bch)
    p_bch.add_argument("--gens", required=True, help="comma-separated name:degree list")
    p_bch.add_argument(
        "exprs",
        nargs="+",
        metavar="expr",
        help="rational multiples and negations of generators and nested bch(...) "
        "terms; put -- before expressions that start with a minus sign",
    )

    p_model = commands.add_parser("model", help="emit a full model JSON envelope")
    p_model.add_argument("name", choices=MODEL_NAMES)
    _add_common(p_model, formats=False)

    p_expand = commands.add_parser("expand", help="expand a named series of a model")
    p_expand.add_argument("label", choices=EXPAND_LABELS)
    _add_common(p_expand)
    p_expand.add_argument("--model", choices=MODEL_NAMES, default="bigon-sym")
    group = p_expand.add_mutually_exclusive_group()
    group.add_argument("--weight", type=_ascii_integer, default=None, help="emit only the weight-k terms")
    group.add_argument(
        "--brackets",
        type=_ascii_integer,
        default=None,
        help="emit only the j-bracket terms; alias for --weight j+1 "
        "(a term with j brackets has j+1 letters)",
    )

    p_verify = commands.add_parser("verify", help="verify a model or its equivariance")
    p_verify.add_argument("name", choices=MODEL_NAMES)
    _add_common(p_verify, formats=False)
    p_verify.add_argument("--morphism", choices=("sigma", "iota"), default=None)
    return parser


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    cap = 2 * MAX_ORDER
    if not 0 <= args.n <= cap:
        raise UsageError(f"n must lie in 0..{cap}, got {args.n}")
    value = bernoulli(args.n)
    _emit(f"{value.numerator}/{value.denominator}", args.output)
    return 0


def _cmd_bch(args: argparse.Namespace) -> int:
    context = _parse_generator_list(args.gens, args.order)
    try:
        elements = [_ExprParser(context, text).parse() for text in args.exprs]
        result = bch(elements)
    except GradingError as exc:
        raise UsageError(str(exc))
    _emit(_render(result, "bch", args.format), args.output)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    model = build_named_model(args.name, args.order)
    _emit(encode_model(model, args.name), args.output)
    return 0


def _expand_element(label: str, model_name: str, order: int) -> AlgebraElement:
    if label in ("v", "x", "q", "Dv"):
        if model_name not in ("circle2", "bigon-sym"):
            raise UsageError(
                f"label {label!r} is defined for --model circle2 or bigon-sym, not {model_name!r}"
            )
        data = compute_symmetric_data(order)
        if label == "Dv":
            return extend_differential(build_named_model("circle2", order), data.v)
        return getattr(data, label)
    generator = label[1:]  # De/Df/Dg
    model = build_named_model(model_name, order)
    if generator not in model.context.names:
        raise UsageError(f"model {model_name!r} has no generator {generator!r}")
    return model.differential[generator]


def _cmd_expand(args: argparse.Namespace) -> int:
    weight = args.weight
    if args.brackets is not None:
        if args.brackets < 0:
            raise UsageError(f"--brackets must be nonnegative, got {args.brackets}")
        weight = args.brackets + 1
    if weight is not None and not 1 <= weight <= args.order:
        raise UsageError(f"--weight must lie in 1..{args.order}, got {weight}")
    element = _expand_element(args.label, args.model, args.order)
    if weight is not None:
        element = weight_component(element, weight)
    _emit(_render(element, args.label, args.format), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    model = build_named_model(args.name, args.order)
    if args.morphism is None:
        report = verify_model(model, subject=args.name)
    else:
        try:
            morphism = symmetry_morphism(args.name, model.context, args.morphism)
        except KeyError as exc:
            raise UsageError(exc.args[0])
        report = check_equivariance(model, morphism, subject=f"{args.name}:{args.morphism}")
    payload = report.to_json_dict()
    payload["morphism"] = args.morphism
    _emit(json.dumps(payload, indent=2, ensure_ascii=False), args.output)
    return 0 if report.overall else 1


_HANDLERS = {
    "bernoulli": _cmd_bernoulli,
    "bch": _cmd_bch,
    "model": _cmd_model,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "order" in args:
            _validate_order(args.order)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
