import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dgla.cli
from dgla import bch, bracket, build_named_model, decode, decode_model, weight_component
from dgla.algebra import AlgebraContext
from dgla.cli import MAX_BCH_NESTING, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "dgla", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestBernoulliCommand:
    def test_b0(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "0")
        assert code == 0
        assert out == "1/1\n"

    def test_b1(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "1")
        assert code == 0
        assert out == "-1/2\n"

    def test_b12(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "12")
        assert code == 0
        assert out == "-691/2730\n"

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "21")
        assert code == 2
        assert "error:" in err

    def test_unwritable_output(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bernoulli", "3", "--output", str(tmp_path / "missing" / "x")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestExpandCommand:
    def test_kernel_element_weight_three_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "q", "--model", "bigon-sym", "--order", "4",
            "--weight", "3", "--format", "text",
        )
        assert code == 0
        assert out == (
            "1/48 e e f - 1/24 e f e + 1/48 e f f "
            "+ 1/48 f e e - 1/24 f e f + 1/48 f f e\n"
        )

    def test_brackets_alias(self, capsys):
        _, by_weight, _ = run_cli(capsys, "expand", "q", "--order", "4", "--weight", "3")
        _, by_brackets, _ = run_cli(capsys, "expand", "q", "--order", "4", "--brackets", "2")
        assert by_weight == by_brackets

    def test_weight_and_brackets_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "q", "--weight", "3", "--brackets", "2"
        )
        assert code == 2
        assert "error:" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "Dg", "--model", "bigon-sym", "--order", "5")
        assert code == 0
        element = decode(out)
        model = build_named_model("bigon-sym", 5)
        assert element == model.differential["g"]
        assert json.loads(out)["series"]["label"] == "Dg"

    def test_direction_differential(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "Dv", "--order", "4", "--weight", "1", "--format", "text")
        assert code == 0
        assert out == "-a + b\n"

    def test_edge_differential_for_interval(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "De", "--model", "interval", "--order", "3")
        assert code == 0
        decoded = decode(out)
        model = build_named_model("interval", 3)
        assert decoded == model.differential["e"]

    def test_label_model_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "expand", "v", "--model", "point")
        assert code == 2
        assert "error:" in err

    def test_missing_generator(self, capsys):
        code, _, err = run_cli(capsys, "expand", "Dg", "--model", "circle2")
        assert code == 2
        assert "error:" in err

    def test_weight_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "expand", "q", "--order", "4", "--weight", "9")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--weight", "11"), "error: --weight must lie in 1..10, got 11\n"),
            (("--weight", "0"), "error: --weight must lie in 1..10, got 0\n"),
            (("--brackets", "-1"), "error: --brackets must be nonnegative, got -1\n"),
            (("--brackets", "10"), "error: --weight must lie in 1..10, got 11\n"),
        ],
    )
    def test_bad_weight_rejected_before_the_model_is_built(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("built a model for a usage error")

        monkeypatch.setattr(dgla.cli, "build_named_model", refuse)
        monkeypatch.setattr(dgla.cli, "compute_symmetric_data", refuse)
        for label in ("Dg", "x"):
            assert run_cli(capsys, "expand", label, "--order", "10", *argv) == (2, "", message)

    def test_unknown_label(self, capsys):
        code, _, err = run_cli(capsys, "expand", "Dq")
        assert code == 2
        assert "error:" in err

    def test_latex_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "v", "--order", "3", "--weight", "3", "--format", "latex"
        )
        assert code == 0
        assert "\\tfrac{1}{48}" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "series.json"
        code, out, _ = run_cli(capsys, "expand", "q", "--order", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        assert decode(target.read_text()) == decode_model_free_q(4)


def decode_model_free_q(order):
    from dgla import compute_symmetric_data

    return compute_symmetric_data(order).q


class TestModelCommand:
    def test_envelope_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "model", "bigon-a", "--order", "4")
        assert code == 0
        name, decoded = decode_model(out)
        assert name == "bigon-a"
        built = build_named_model("bigon-a", 4)
        assert decoded.context == built.context
        assert dict(decoded.differential) == dict(built.differential)

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "model", "triangle")
        assert code == 2
        assert "error:" in err

    def test_order_cap(self, capsys):
        code, _, err = run_cli(capsys, "model", "point", "--order", "11")
        assert code == 2
        assert "error:" in err

    def test_order_cap_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DGLA_MAX_ORDER", "12")
        code, out, err = run_cli(capsys, "model", "point", "--order", "11")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestVerifyCommand:
    def test_symmetric_bigon_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bigon-sym", "--order", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert payload["morphism"] is None

    def test_based_bigon_rotation_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bigon-a", "--morphism", "sigma", "--order", "4")
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] is False
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert failing and all(c["witness"] for c in failing)

    def test_based_bigon_reflection_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bigon-a", "--morphism", "iota", "--order", "4")
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_morphism_unsupported_for_model(self, capsys):
        code, _, err = run_cli(capsys, "verify", "point", "--morphism", "sigma")
        assert code == 2
        assert "error:" in err


class TestBchCommand:
    def test_two_generators(self, capsys):
        code, out, _ = run_cli(capsys, "bch", "--gens", "x:0,y:0", "--order", "4", "x", "y")
        assert code == 0
        ctx = AlgebraContext([("x", 0), ("y", 0)], 4)
        assert decode(out) == bch([ctx.gen("x"), ctx.gen("y")])

    def test_expression_language(self, capsys):
        # expressions starting with "-" need the usual "--" separator
        code, out, _ = run_cli(
            capsys, "bch", "--gens", "e:0,f:0", "--order", "5", "--",
            "-1/2*bch(e,f)", "e",
        )
        assert code == 0
        ctx = AlgebraContext([("e", 0), ("f", 0)], 5)
        e, f = ctx.gen("e"), ctx.gen("f")
        expected = bch([Fraction(-1, 2) * bch([e, f]), e])
        assert decode(out) == expected

    def test_nested_negation_and_scaling(self, capsys):
        code, out, _ = run_cli(
            capsys, "bch", "--gens", "x:0,y:0", "--order", "4", "--format", "text", "--",
            "2*x", "--y", "3/2*bch(-x, y)",
        )
        assert code == 0

    def test_commuting_inputs(self, capsys):
        code, out, _ = run_cli(
            capsys, "bch", "--gens", "x:0", "--order", "4", "--format", "text", "x", "x"
        )
        assert code == 0
        assert out == "2 x\n"

    def test_degree_nonzero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bch", "--gens", "a:-1,e:0", "a", "e")
        assert code == 2
        assert "error:" in err

    def test_unknown_generator_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bch", "--gens", "x:0", "x", "z")
        assert code == 2
        assert "error:" in err

    def test_syntax_error_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bch", "--gens", "x:0", "bch(x")
        assert code == 2
        assert "error:" in err

    def test_scalar_alone_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bch", "--gens", "x:0", "3/2")
        assert code == 2
        assert "error:" in err

    def test_bad_gens_entry(self, capsys):
        # a name must be one that expressions can refer to: not "bch",
        # and a full match of the expression language's name token
        # and a degree must be written in ASCII digits
        cases = [
            ("x=0", "x"),
            ("bch:0,e:0", "e"),
            ("x y:0", "x"),
            ("1x:0,e:0", "e"),
            ("x:0_0", "x"),
            ("x:\u0663", "x"),
        ]
        for gens, expr in cases:
            code, out, err = run_cli(capsys, "bch", "--gens", gens, expr)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert repr(gens.split(",")[0]) in err

    def test_nesting_at_the_limit_is_accepted(self, capsys):
        nested = "bch(" * MAX_BCH_NESTING + "x" + ")" * MAX_BCH_NESTING
        code, out, _ = run_cli(capsys, "bch", "--gens", "x:0", "--format", "text", nested)
        assert code == 0
        assert out == "x\n"

    @pytest.mark.parametrize("prefix", ["", "1/"])
    def test_overlong_integer_rejected(self, capsys, prefix):
        # past the interpreter's 4300-digit limit on int() conversion
        expression = prefix + "1" * 5000 + "*x"
        code, out, err = run_cli(capsys, "bch", "--gens", "x:0", expression)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_too_deep_nesting_rejected(self):
        # deep enough to exhaust the interpreter's recursion limit
        nested = "bch(" * 3000 + "x" + ")" * 3000
        result = run_subprocess("bch", "--gens", "x:0", nested)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1


EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
DEEP = "bch(" * MAX_BCH_NESTING
LONG = "1" * 5000  # past the interpreter's 4300-digit limit on int() conversion

# (--gens, expressions, exit code, stderr, stdout SHA-256) of
# ``bch --gens GENS --order 4 -- EXPR...``: every raise site of the
# expression parser, with its exact message and offsets, and the accepted
# spellings of signs, scalars and whitespace
EXPRESSION_DIAGNOSTICS = [
    # bad character
    ("x:0", ["x$"], 2, "bad character in expression at offset 1: '$'", EMPTY_SHA),
    ("x:0", ["2*x;"], 2, "bad character in expression at offset 3: ';'", EMPTY_SHA),
    ("x:0", ["bch(x) # c"], 2, "bad character in expression at offset 6: ' # c'", EMPTY_SHA),
    # unexpected end after a sign, "/", "*", inside "bch(", or of no tokens
    ("x:0", ["-"], 2, "unexpected end of expression: '-'", EMPTY_SHA),
    ("x:0", ["+-"], 2, "unexpected end of expression: '+-'", EMPTY_SHA),
    ("x:0", ["1/"], 2, "unexpected end of expression: '1/'", EMPTY_SHA),
    ("x:0", ["2*"], 2, "unexpected end of expression: '2*'", EMPTY_SHA),
    ("x:0", ["1/2*"], 2, "unexpected end of expression: '1/2*'", EMPTY_SHA),
    ("x:0", ["bch("], 2, "unexpected end of expression: 'bch('", EMPTY_SHA),
    ("x:0", ["bch(x,"], 2, "unexpected end of expression: 'bch(x,'", EMPTY_SHA),
    ("x:0", ["bch(x"], 2, "unexpected end of expression: 'bch(x'", EMPTY_SHA),
    ("x:0", ["bch"], 2, "unexpected end of expression: 'bch'", EMPTY_SHA),
    ("x:0", [""], 2, "unexpected end of expression: ''", EMPTY_SHA),
    ("x:0", ["   "], 2, "unexpected end of expression: '   '", EMPTY_SHA),
    # a missing "*", "(", "," or ")"
    ("x:0", ["2x"], 2, "expected '*' at offset 1 in '2x'", EMPTY_SHA),
    ("x:0", ["1/2 x"], 2, "expected '*' at offset 4 in '1/2 x'", EMPTY_SHA),
    ("x:0", ["1/2/3*x"], 2, "expected '*' at offset 3 in '1/2/3*x'", EMPTY_SHA),
    ("x:0", ["bch x"], 2, "expected '(' at offset 4 in 'bch x'", EMPTY_SHA),
    ("x:0,y:0", ["bch(x y)"], 2, "expected ')' at offset 6 in 'bch(x y)'", EMPTY_SHA),
    ("x:0", ["bch(x("], 2, "expected ')' at offset 5 in 'bch(x('", EMPTY_SHA),
    ("x:0", ["bch(x,)"], 2, "expected a generator or bch(...) at offset 6 in 'bch(x,)'", EMPTY_SHA),
    # trailing input
    ("x:0,y:0", ["x y"], 2, "trailing input at offset 2 in 'x y'", EMPTY_SHA),
    ("x:0,y:0", ["x+y"], 2, "trailing input at offset 1 in 'x+y'", EMPTY_SHA),
    ("x:0", ["x)"], 2, "trailing input at offset 1 in 'x)'", EMPTY_SHA),
    ("x:0", ["bch(x))"], 2, "trailing input at offset 6 in 'bch(x))'", EMPTY_SHA),
    ("x:0", ["x*2"], 2, "trailing input at offset 1 in 'x*2'", EMPTY_SHA),
    # zero and non-integer denominators
    ("x:0", ["1/0*x"], 2, "bad denominator at offset 2 in '1/0*x'", EMPTY_SHA),
    ("x:0", ["1/00*x"], 2, "bad denominator at offset 2 in '1/00*x'", EMPTY_SHA),
    ("x:0", ["1/x*x"], 2, "bad denominator at offset 2 in '1/x*x'", EMPTY_SHA),
    ("x:0", ["1/-2*x"], 2, "bad denominator at offset 2 in '1/-2*x'", EMPTY_SHA),
    ("x:0", ["1/(2)*x"], 2, "bad denominator at offset 2 in '1/(2)*x'", EMPTY_SHA),
    # unknown generator
    ("x:0", ["z"], 2, "unknown generator 'z' at offset 0", EMPTY_SHA),
    ("x:0", ["x", "bch(x, z)"], 2, "unknown generator 'z' at offset 7", EMPTY_SHA),
    ("x:0", ["X"], 2, "unknown generator 'X' at offset 0", EMPTY_SHA),
    ("x:0", ["b ch(x)"], 2, "unknown generator 'b' at offset 0", EMPTY_SHA),
    # a scalar alone
    ("x:0", ["3/2"], 2, "unexpected end of expression: '3/2'", EMPTY_SHA),
    ("x:0", ["3"], 2, "unexpected end of expression: '3'", EMPTY_SHA),
    ("x:0", ["-3*"], 2, "unexpected end of expression: '-3*'", EMPTY_SHA),
    # no generator or bch(...) where one must stand
    ("x:0", ["2*3*x"], 2, "expected a generator or bch(...) at offset 2 in '2*3*x'", EMPTY_SHA),
    ("x:0", ["bch()"], 2, "expected a generator or bch(...) at offset 4 in 'bch()'", EMPTY_SHA),
    ("x:0", ["bch(,x)"], 2, "expected a generator or bch(...) at offset 4 in 'bch(,x)'", EMPTY_SHA),
    ("x:0", ["-*x"], 2, "expected a generator or bch(...) at offset 1 in '-*x'", EMPTY_SHA),
    ("x:0", ["2*-x"], 2, "expected a generator or bch(...) at offset 2 in '2*-x'", EMPTY_SHA),
    # signs
    ("x:0", ["--x"], 0, "", "206dc06aef93ce9db5719d4050f875c1e6ff8b6cc4393124591e6ae4969895d7"),
    ("x:0,y:0", ["+-+x", "y"], 0, "", "96ba95e498729e0d747efb0854223d402276c8c8283187667e0c5662345ee20b"),
    ("x:0,y:0", ["-+-+-bch(-x, --y)"], 0, "", "c8d430151f6e7560aa2575296f6328fb4b1883f41b755d4287578c218c1725b3"),
    # whitespace and scalar variants
    ("x:0,y:0", [" x ", "\ty\n"], 0, "", "123ae3e5107c87b56429799e6624000af2ec5a170fb868c79d58582deba0d145"),
    ("x:0,y:0", [" - 1 / 2 * bch ( x , y ) ", "x"], 0, "",
     "0e5725be124e47e80984ab03fe75203dc14958c0e7c610c158b34515c8350918"),
    ("x:0,y:0", ["-1/2*bch(x,y)", "x"], 0, "", "0e5725be124e47e80984ab03fe75203dc14958c0e7c610c158b34515c8350918"),
    ("x:0,y:0", ["3/6*bch(bch(x),y,x)"], 0, "", "778e98cb0fffa82545b80313fdd9e1783f25db86dd54cb26af07dc776f47033a"),
    ("x:0,y:0", ["0*x", "y"], 0, "", "ec7ad457c478bfd2f6d11bfdffc18cf5bcd8eb28eef4118ef562a5a2e1709673"),
    ("x:0", ["bch (x)"], 0, "", "206dc06aef93ce9db5719d4050f875c1e6ff8b6cc4393124591e6ae4969895d7"),
    # the nesting cap
    ("x:0", [DEEP + "x" + ")" * MAX_BCH_NESTING], 0, "",
     "206dc06aef93ce9db5719d4050f875c1e6ff8b6cc4393124591e6ae4969895d7"),
    ("x:0", ["bch(" + DEEP + "x" + ")" * (MAX_BCH_NESTING + 1)], 2,
     "bch(...) nested deeper than 64 levels at offset 256", EMPTY_SHA),
    ("x:0,y:0", ["bch(x, " + DEEP + "y" + ")" * (MAX_BCH_NESTING + 1)], 2,
     "bch(...) nested deeper than 64 levels at offset 259", EMPTY_SHA),
    # overlong numerator and denominator
    ("x:0", [LONG + "*x"], 2, "integer at offset 0 has too many digits", EMPTY_SHA),
    ("x:0", ["1/" + LONG + "*x"], 2, "integer at offset 2 has too many digits", EMPTY_SHA),
    ("x:0", ["x", "-" + LONG + "/2*x"], 2, "integer at offset 1 has too many digits", EMPTY_SHA),
    # degree errors of the parsed elements
    ("a:-1,e:0", ["a"], 2, "bch arguments must have degree 0, got -1", EMPTY_SHA),
    ("a:-1,e:0", ["e", "bch(e, a)"], 2, "bch arguments must have degree 0, got -1", EMPTY_SHA),
]


@pytest.mark.parametrize("gens, exprs, code, message, digest", EXPRESSION_DIAGNOSTICS)
def test_expression_diagnostics(capsys, gens, exprs, code, message, digest):
    got, out, err = run_cli(capsys, "bch", "--gens", gens, "--order", "4", "--", *exprs)
    assert (got, err) == (code, f"error: {message}\n" if message else "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, got",
    [
        (["bch", "--gens", "x", "--order", "11", "--", "bch("], 11),
        (["bch", "--gens", "x:0", "--order", "0", "z"], 0),
        (["expand", "Dg", "--model", "circle2", "--order", "0"], 0),
        (["expand", "q", "--order", "11", "--weight", "12"], 11),
        (["expand", "x", "--order", "-3", "--brackets", "-1"], -3),
        (["model", "point", "--order", "-1"], -1),
        (["verify", "point", "--order", "11", "--morphism", "sigma"], 11),
        (["verify", "point", "--order", "99999999999999999999"], 99999999999999999999),
    ],
)
def test_order_is_checked_before_anything_else(capsys, argv, got):
    assert run_cli(capsys, *argv) == (2, "", f"error: --order must lie in 1..10, got {got}\n")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "2", "--fast")
        assert code == 2
        assert "error:" in err

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "point", "--order", "\u0663"],  # Arabic-Indic digit three
            ["verify", "point", "--order", "\uff13"],  # fullwidth digit three
            ["bernoulli", "\u0661\u0662"],
            ["expand", "q", "--order", "1_0"],
            ["expand", "q", "--order", "4", "--weight", "\uff13"],
            ["expand", "q", "--order", "4", "--brackets", "\uff12"],
            ["bch", "--gens", "x:0", "\uff11*x"],
            ["bch", "--gens", "x:0", "1/\uff12*x"],
        ],
    )
    def test_integers_need_ascii_digits(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_subprocess("bernoulli", "2")
        assert result.returncode == 0
        assert result.stdout == "1/6\n"
        assert result.stderr == ""

    def test_verify_exit_code_via_subprocess(self):
        result = run_subprocess("verify", "bigon-a", "--morphism", "sigma", "--order", "4")
        assert result.returncode == 1

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout", ["closed", "full", "broken-pipe"])
    def test_stdout_failure(self, stdout, buffered):
        argv = [sys.executable, "-m", "dgla", "bernoulli", "4"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        run = dict(stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        if stdout == "closed":
            result = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *argv], **run)
        elif stdout == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            with open("/dev/full", "w") as full:
                result = subprocess.run(argv, stdout=full, **run)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)  # every write to the pipe now fails with EPIPE
            try:
                result = subprocess.run(argv, stdout=write_end, **run)
            finally:
                os.close(write_end)
        assert "Traceback" not in result.stderr
        if stdout == "broken-pipe":
            assert result.returncode == 0
            assert result.stderr == ""
        else:
            assert result.returncode == 2
            assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


def test_recorded_model_and_verify_outputs():
    """Every recorded ``model``/``verify`` request still gives its recorded
    exit code and stdout bytes (SHA-256), replayed in this process."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli-mix"]
    requests = {
        key: expected
        for key, expected in recorded.items()
        if key.startswith(("model ", "verify "))
    }
    assert len(requests) == 145
    mismatches = []
    for key, expected in sorted(requests.items()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(key.split())
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        if [code, digest] != expected:
            mismatches.append(key)
    assert not mismatches
