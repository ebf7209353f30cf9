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
