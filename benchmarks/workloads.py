"""The three benchmark workloads: seeded inputs, one task, and its checks.

Each workload object is built from a seed (that is its set-up: input
generation) and offers

- ``task(i)``: the timed unit of work, returning its raw outputs;
- ``check(i, out)``: untimed, returns a list of problems (empty when the
  outputs match the committed reference and every law holds);
- ``coeff_bits(out)``: the largest numerator or denominator bit length
  among the outputs, a size count that must repeat exactly.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and imports ``dgla`` from there; it raises ``ImportError`` when the
checkout has no sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dgla" / "__init__.py").is_file():
    raise ImportError(f"no dgla sources under {SRC}")
sys.path.insert(0, str(SRC))

import dgla  # noqa: E402
import dgla.algebra  # noqa: E402
import dgla.calculus  # noqa: E402
import dgla.cli  # noqa: E402
import dgla.models  # noqa: E402

if not Path(dgla.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"dgla was imported from {dgla.__file__}, not from {SRC}")

DGLA_MODULES = (dgla, dgla.algebra, dgla.calculus, dgla.models, dgla.cli)

# Every memoized function of the package, taken before any tracer rebinds
# names, so that "cold caches" stays true when a later change adds a cache.
CACHES = tuple(
    {
        id(obj): obj
        for module in DGLA_MODULES
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }.values()
)


def clear_caches() -> None:
    for cached in CACHES:
        cached.cache_clear()


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def sizes(element) -> dict:
    """Terms per weight and the largest numerator and denominator bit lengths."""
    per_weight: dict[int, int] = {}
    num_bits = den_bits = 0
    for word, coeff in element.terms():
        per_weight[len(word)] = per_weight.get(len(word), 0) + 1
        num_bits = max(num_bits, abs(coeff.numerator).bit_length())
        den_bits = max(den_bits, coeff.denominator.bit_length())
    order = element.context.max_weight
    return {
        "terms": [per_weight.get(k, 0) for k in range(1, order + 1)],
        "num_bits": num_bits,
        "den_bits": den_bits,
    }


def _max_bits(size_table: dict) -> int:
    return max((max(s["num_bits"], s["den_bits"]) for s in size_table.values()), default=0)


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, ensure_ascii=False)


class Workload:
    """Defaults for workloads whose inputs exist before the run and whose
    tasks each form a round of their own."""

    def prepare(self, i: int) -> None:
        pass

    def round_done(self, i: int) -> bool:
        return True


# -- bigon-sym ------------------------------------------------------------


class BigonSym(Workload):
    """Build and verify the symmetric bigon at order 9 with cold caches.

    The construction has no free inputs; the seed only orders the two
    equivariance checks.
    """

    name = "bigon-sym"

    def __init__(self, seed: int, tiny: bool, reference: dict) -> None:
        self.order = 4 if tiny else 9
        self.morphisms = ["sigma", "iota"]
        random.Random(f"{self.name}:{seed}").shuffle(self.morphisms)
        self.reference = reference[self.name].get(str(self.order))
        self.first: dict | None = None

    def task(self, i: int) -> dict:
        clear_caches()
        data = dgla.compute_symmetric_data(self.order)
        model = dgla.build_named_model(self.name, self.order)
        report = dgla.verify_model(model, subject=self.name)
        equivariance = {
            which: dgla.check_equivariance(
                model,
                dgla.symmetry_morphism(self.name, model.context, which),
                subject=f"{self.name}:{which}",
            )
            for which in self.morphisms
        }
        envelope = dgla.encode_model(model, self.name)
        _, decoded = dgla.decode_model(envelope)
        return {
            "data": data,
            "model": model,
            "report": report,
            "equivariance": equivariance,
            "envelope": envelope,
            "decoded": decoded,
        }

    def digest(self, out: dict) -> dict:
        data, model = out["data"], out["model"]
        series = {"v": data.v, "x": data.x, "q": data.q}
        series.update({f"D{g}": d for g, d in model.differential.items()})
        hashes = {label: sha256(dgla.encode(element, label=label)) for label, element in series.items()}
        hashes["verify"] = sha256(_report_json(out["report"]))
        for which, report in out["equivariance"].items():
            hashes[f"equivariance[{which}]"] = sha256(_report_json(report))
        hashes["envelope"] = sha256(out["envelope"])
        size_table = {label: sizes(series[label]) for label in ("v", "x", "q", "Dg")}
        return {"hashes": hashes, "sizes": size_table}

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        if not out["report"].overall:
            problems.append("verify_model reports a failure")
        for which, report in out["equivariance"].items():
            if not report.overall:
                problems.append(f"equivariance under {which} fails")
        if dgla.encode_model(out["decoded"], self.name) != out["envelope"]:
            problems.append("decode_model does not round-trip the envelope")
        digest = self.digest(out)
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append(f"task {i} disagrees with the first task (a cache leaked state)")
        if self.reference is None:
            problems.append(f"no reference recorded for order {self.order}")
        elif digest != self.reference:
            bad = [k for k, h in digest["hashes"].items() if self.reference["hashes"].get(k) != h]
            if digest["sizes"] != self.reference["sizes"]:
                bad.append("sizes")
            problems.append(f"outputs differ from the reference: {', '.join(bad) or 'keys'}")
        return problems

    def coeff_bits(self, out: dict) -> int:
        return _max_bits(self.digest(out)["sizes"])

    def term_counts(self, out: dict) -> dict:
        return {label: sum(s["terms"]) for label, s in self.digest(out)["sizes"].items()}


# -- bch-laws ---------------------------------------------------------------


BCH_ORDER = 6
BCH_POOL = 1000  # inputs made during set-up; more are made, untimed, if a run needs them


class BchLaws(Workload):
    """Randomized BCH laws on dense degree-0 elements in two letters."""

    name = "bch-laws"

    def __init__(self, seed: int, tiny: bool, reference: dict) -> None:
        self.seed = seed
        self.context = dgla.AlgebraContext([("x", 0), ("y", 0)], BCH_ORDER)
        self.reference = reference[self.name].get(str(seed), [])
        self.inputs = [self._make_input(i) for i in range(10 if tiny else BCH_POOL)]

    def _combo(self, rng: random.Random):
        # the shape of the acceptance suite's random calculus inputs
        x, y = self.context.gen("x"), self.context.gen("y")
        combo = rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
        if rng.randint(0, 1):
            combo = combo + rng.randint(-2, 2) * dgla.bracket(x, y)
        if not rng.randint(0, 3):
            combo = combo + rng.randint(-2, 2) * dgla.bracket(x, dgla.bracket(x, y))
        return combo

    def _make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return self._combo(rng), self._combo(rng), self._combo(rng)

    def prepare(self, i: int) -> None:
        while len(self.inputs) <= i:
            self.inputs.append(self._make_input(len(self.inputs)))

    def _exp_ad(self, direction, target):
        # exp(ad_u) w summed from brackets: an independent route to bch(u, w, -u)
        out = current = target
        factorial = 1
        for k in range(1, BCH_ORDER):
            current = dgla.bracket(direction, current)
            if not current:
                break
            factorial *= k
            out = out + Fraction(1, factorial) * current
        return out

    def task(self, i: int) -> dict:
        u, w, z = self.inputs[i]
        uw = dgla.bch([u, w])
        left = dgla.bch([uw, z])
        right = dgla.bch([u, dgla.bch([w, z])])
        inverse = dgla.bch([u, -u])
        conjugated = dgla.bch([u, w, -u])
        return {
            "uw": uw,
            "assoc": left,
            "conj": conjugated,
            "laws": {
                "associative": left == right,
                "inverse": inverse.is_zero(),
                "conjugation": conjugated == self._exp_ad(u, w),
                "primitive_conj": dgla.is_primitive(conjugated, 4),
                "primitive_uw": dgla.is_primitive(uw, 4),
            },
        }

    def digest(self, out: dict) -> str:
        payload = {
            "series": {label: dgla.encode(out[label], label=label) for label in ("uw", "assoc", "conj")},
            "sizes": {label: sizes(out[label]) for label in ("uw", "assoc", "conj")},
            "laws": out["laws"],
        }
        return sha256(json.dumps(payload, sort_keys=True))

    def check(self, i: int, out: dict) -> list[str]:
        problems = [f"law {law} fails" for law, held in out["laws"].items() if not held]
        if i < len(self.reference) and self.digest(out) != self.reference[i]:
            problems.append(f"task {i} differs from the reference")
        return problems

    def coeff_bits(self, out: dict) -> int:
        return _max_bits({label: sizes(out[label]) for label in ("uw", "assoc", "conj")})


# -- cli-mix ----------------------------------------------------------------

FORMATS = ("json", "text", "latex")
CLI_ORDERS = (3, 4, 5, 6, 7)
LABELS = {
    "interval": ("De",),
    "circle2": ("v", "x", "q", "Dv", "De", "Df"),
    "disc1": ("De", "Dg"),
    "bigon-a": ("De", "Df", "Dg"),
    "bigon-b": ("De", "Df", "Dg"),
    "bigon-sym": ("v", "x", "q", "Dv", "De", "Df", "Dg"),
}
BCH_EXPRESSIONS = (
    ("e", "f"),
    ("-1/2*bch(e,f)", "e"),
    ("e", "f", "-e"),
    ("2*e", "-f", "bch(f,e)"),
    ("bch(e,f)", "-1/3*f", "e"),
)
# Usage errors exit 2; the two rotation checks of based bigons exit 1.
ERROR_REQUESTS = (
    ("verify", "bigon-a", "--morphism", "sigma"),
    ("verify", "bigon-b", "--morphism", "sigma"),
    ("model", "bigon-sym", "--order", "0"),
    ("model", "bigon-sym", "--order", "11"),
    ("model",),
    ("frobnicate",),
    ("expand", "Dg", "--model", "interval"),
    ("expand", "v", "--model", "bigon-a"),
    ("expand", "Dg", "--order", "5", "--weight", "6"),
    ("bernoulli", "21"),
    ("bch", "--gens", "e:0,f:0", "--", "bch(e,"),
    ("bch", "--gens", "e:0,f:1", "e", "f"),
    ("verify", "point", "--morphism", "sigma"),
)


def _variants(kind: str, model: str | None) -> list[list[tuple[str, ...]]]:
    """The concrete requests of one template, grouped by order.

    Groups follow ``CLI_ORDERS``; a template whose cost does not depend on
    an order has a single group. Across the three variants of an order
    the formats (or morphisms) differ.
    """
    if kind == "bernoulli":
        return [[("bernoulli", str(n)) for n in range(21)]]
    if kind == "errors":
        return [list(ERROR_REQUESTS)]
    if kind == "model":
        return [[("model", model, "--order", str(o))] for o in CLI_ORDERS]
    groups: list[list[tuple[str, ...]]] = [[] for _ in CLI_ORDERS]
    for i in range(15):
        order, fmt = CLI_ORDERS[i % 5], FORMATS[i % 3]
        if kind == "bch":
            exprs = BCH_EXPRESSIONS[(i // 3) % 5]
            request = ("bch", "--gens", "e:0,f:0", "--order", str(order), "--format", fmt, "--", *exprs)
        elif kind == "verify":
            morphism = (None, "sigma", "iota")[i % 3]
            extra = () if morphism is None else ("--morphism", morphism)
            request = ("verify", model, "--order", str(order), *extra)
        else:  # expand
            labels = LABELS[model]
            parts = ["expand", labels[i % len(labels)], "--model", model, "--order", str(order), "--format", fmt]
            if i % 2:
                weight = 1 + (i // 2) % order
                parts += ["--brackets", str(weight - 1)] if i % 4 == 3 else ["--weight", str(weight)]
            request = tuple(parts)
        groups[i % 5].append(request)
    return groups


TEMPLATES = (
    [("bernoulli", None), ("bch", None), ("errors", None)]
    + [("model", m) for m in dgla.MODEL_NAMES]
    + [("expand", m) for m in LABELS]
    + [("verify", m) for m in dgla.MODEL_NAMES]
)


def all_requests() -> list[tuple[str, ...]]:
    return [
        request
        for kind, model in TEMPLATES
        for group in _variants(kind, model)
        for request in group
    ]


def request_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """One fresh ``python -m dgla`` process; returns its exit code and stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "dgla", *argv],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """``dgla.cli.main`` in this process with cold caches; returns code and stdout."""
    clear_caches()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dgla.cli.main(list(argv))
    return code, stdout.getvalue().encode("utf-8")


def read_back(argv: tuple[str, ...], code: int, stdout: bytes):
    """Decode what a request wrote, as a user of its output would."""
    if code == 2 or not stdout:
        return None
    text = stdout.decode("utf-8")
    command = argv[0]
    if command == "model":
        return dgla.decode_model(text)[1]
    if command == "verify":
        return json.loads(text)
    if command in ("expand", "bch") and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return dgla.decode(text)
    return None


class CliMix(Workload):
    """A seeded sequence of rounds of fresh ``python -m dgla`` processes.

    A round runs every template once, in a seeded order, with a seeded
    choice among the template's variants at the round's order. Orders
    follow a fixed schedule, staggered across templates, that covers each
    order once every five rounds; so a run of whole rounds costs nearly
    the same for every seed. Runs measure whole rounds.
    """

    name = "cli-mix"

    def __init__(self, seed: int, tiny: bool, reference: dict) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.groups = [_variants(kind, model) for kind, model in TEMPLATES]
        self.rounds = 0
        self.round_size = 6 if tiny else len(TEMPLATES)
        self.requests: list[tuple[str, ...]] = []
        self.reference = reference[self.name]
        self.runner = run_cli  # run_cli_in_process in traced runs
        self.add_round()

    def add_round(self) -> None:
        round_ = [
            self.rng.choice(groups[(t + self.rounds) % len(groups)])
            for t, groups in enumerate(self.groups)
        ]
        self.rng.shuffle(round_)
        self.requests += round_[: self.round_size]
        self.rounds += 1

    def prepare(self, i: int) -> None:
        while len(self.requests) <= i:
            self.add_round()

    def round_done(self, i: int) -> bool:
        return (i + 1) % self.round_size == 0

    def task(self, i: int) -> dict:
        argv = self.requests[i]
        code, stdout = self.runner(argv)
        return {"argv": argv, "code": code, "stdout": stdout, "decoded": read_back(argv, code, stdout)}

    def check(self, i: int, out: dict) -> list[str]:
        key = request_key(out["argv"])
        expected = self.reference.get(key)
        got = [out["code"], sha256(out["stdout"])]
        if expected is None:
            return [f"no reference for request {key!r}"]
        if got != expected:
            return [f"request {key!r} gave exit {got[0]} and stdout {got[1][:12]}"]
        return []

    def coeff_bits(self, out: dict) -> int:
        decoded = out["decoded"]
        if isinstance(decoded, dgla.CellModel):
            return _max_bits({g: sizes(d) for g, d in decoded.differential.items()})
        if isinstance(decoded, dgla.AlgebraElement):
            return _max_bits({"out": sizes(decoded)})
        return 0


WORKLOADS = {cls.name: cls for cls in (BigonSym, BchLaws, CliMix)}
