"""Seeded job plans for the acausal benchmark and the exact check of every
job's answer.

A job is one call into a public entry point of the package: either
``acausal.cli.main(argv)`` in-process, or
``acausal.process.conditional_distribution``, which the CLI does not
expose. The seed fixes every referee round, output row and sampler seed;
the sizes are fixed per workload, so every seed asks for the same amount
of work and runs with different seeds are comparable.

Every workload ends with the same common jobs, one small job of each kind
run twice, so each end-to-end metric is measured on every workload. They
are a small share of each pass; a change aimed at one workload's layer
shows on that workload, and the common jobs on the others show whether it
costs them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

WORKLOADS = ("certify", "evaluate", "sample")

# End-to-end metric each job kind adds its time to; build-w counts only in
# the pass's wall time.
KIND_METRIC = {
    "validate": "validate_s",
    "export": "export_s",
    "play": "play_s",
    "conditional": "conditional_s",
    "causal": "causal_bound_s",
    "sample": "sample_s",
}

# Sampled bilinear draws that validate uses beyond its exhaustive limit.
SAMPLED_TABLES = 1000
EXHAUSTIVE_PARTIES = 5


@dataclass
class Job:
    """One call into the package plus what its answer must be.

    ``argv`` is a CLI command line in which ``{work}`` stands for the
    run's scratch directory; a job without ``argv`` is a
    ``conditional_distribution`` call on ``outputs``. ``expect`` holds the
    parameters of the check (``"reject"`` marks an input that validate
    must refuse, ``"naive"`` a generated ``naive_even_w`` input file).
    """

    kind: str
    n: int
    argv: tuple[str, ...] = ()
    outputs: tuple[int, ...] = ()
    shots: int = 0
    expect: dict = field(default_factory=dict)

    def command(self, work: str) -> list[str]:
        return [a.replace("{work}", work) for a in self.argv]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _wide(n: int) -> tuple[list[int], list[int]]:
    """Input and output wire widths of the n-party process, in party order."""
    even = n % 2 == 0
    i_widths = [2 if even and k == n - 1 else 1 for k in range(n)]
    o_widths = [2 if even and k == n - 2 else 1 for k in range(n)]
    return i_widths, o_widths


def _build(n: int, name: str) -> Job:
    return Job("build", n, ("build-w", "--n", str(n), "--out", f"{{work}}/{name}.json"))


def _validate(n: int, name: str, rng: random.Random, **expect) -> Job:
    argv = ("validate", "--file", f"{{work}}/{name}.json", "--json",
            "--seed", str(rng.randrange(1 << 30)))
    return Job("validate", n, argv, expect=expect)


def _export(n: int, name: str) -> Job:
    return Job("export", n, ("export", "--file", f"{{work}}/{name}.json",
                             "--format", "dense"))


def _play_exact(n: int) -> Job:
    return Job("play", n, ("play", "--n", str(n), "--json"))


def _play_round(n: int, rng: random.Random) -> Job:
    m = rng.randrange(n)
    bits = [rng.randrange(2) for _ in range(n)]
    argv = ("play", "--n", str(n), "--m", str(m),
            "--inputs", ",".join(map(str, bits)), "--json")
    return Job("play", n, argv, expect={"m": m, "inputs": bits})


def _conditional(n: int, rng: random.Random) -> Job:
    _, o_widths = _wide(n)
    return Job("conditional", n, outputs=tuple(rng.randrange(1 << w) for w in o_widths))


def _causal(n: int, brute: bool = False) -> Job:
    argv = ("causal-bound", "--n", str(n)) + (("--brute-force",) if brute else ("--json",))
    return Job("causal", n, argv, expect={"brute": brute})


def _sample(n: int, shots: int, rng: random.Random) -> Job:
    seed = rng.randrange(1 << 30)
    argv = ("sample", "--n", str(n), "--shots", str(shots), "--seed", str(seed))
    return Job("sample", n, argv, shots=shots, expect={"seed": seed})


def _common(rng: random.Random) -> list[Job]:
    return [
        _build(6, "common6"),
        _validate(6, "common6", rng),
        _export(6, "common6"),
        _play_exact(6),
        _play_round(5, rng),
        _conditional(8, rng),
        _causal(10),
        _causal(3, brute=True),
        _sample(5, 5000, rng),
    ]


def _certify(rng: random.Random) -> list[Job]:
    jobs = []
    for n in range(3, 10):
        jobs += [_build(n, f"w{n}"), _validate(n, f"w{n}", rng)]
    for n in (4, 6, 8):
        jobs.append(_validate(n, f"naive{n}", rng, reject=True, naive=True))
    jobs.append(_export(8, "w8"))
    return jobs


def _evaluate(rng: random.Random) -> list[Job]:
    jobs = [_play_exact(n) for n in range(3, 10)]
    jobs.append(_play_round(8, rng))
    jobs += [_conditional(9, rng), _conditional(8, rng)]
    jobs += [_causal(n) for n in range(3, 13)]
    jobs.append(_causal(3, brute=True))
    return jobs


def _sample_plan(rng: random.Random) -> list[Job]:
    return [_sample(n, 20000, rng) for n in (3, 4, 7, 10, 13, 16)]


def plan(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass; the same seed always gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    main = {"certify": _certify, "evaluate": _evaluate, "sample": _sample_plan}
    return main[workload](rng) + _common(rng) + _common(rng)


def reach_jobs(op: str, n: int, seed: int) -> tuple[list[Job], Job]:
    """Preparation jobs and the measured job of one reach-ladder step."""
    rng = random.Random(f"reach:{op}:{n}:{seed}")
    if op == "validate":
        return [_build(n, "reach")], _validate(n, "reach", rng)
    if op == "play":
        return [], _play_exact(n)
    if op == "conditional":
        return [], _conditional(n, rng)
    if op == "sample":
        return [], _sample(n, 1000, rng)
    if op == "causal_bound":
        return [], _causal(n)
    raise ValueError(f"unknown reach op {op!r}")


def write_inputs(jobs: list[Job], work: str, process, diagop) -> None:
    """Write the generated input files (``naive_even_w`` operators)."""
    for job in jobs:
        if job.expect.get("naive"):
            path = job.command(work)[2]
            with open(path, "w") as handle:
                json.dump(diagop.operator_to_json(process.naive_even_w(job.n)), handle)


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------

def run(job: Job, work: str, cli, process):
    """Call the package once; the caller times this call and nothing else."""
    if not job.argv:
        return process.conditional_distribution(process.build_w(job.n), list(job.outputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.command(work))
    return CliResult(code, out.getvalue(), err.getvalue())


def out_path(job: Job, work: str) -> str | None:
    """The file a CLI job writes with ``--out``, if any."""
    argv = job.command(work)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------

def _dyadic(entry: dict) -> Fraction:
    return Fraction(entry["num"], 1 << entry["log2den"])


def _loop_image(n: int, outputs, process) -> dict[tuple[int, ...], Fraction]:
    """Input distribution the loop mixture gives for one output row."""
    image: dict[tuple[int, ...], Fraction] = {}
    for loop in process.loop_decomposition(n):
        key = loop.apply(outputs)
        image[key] = image.get(key, Fraction(0)) + loop.weight
    return image


def _expected_checked(n: int, naive: bool) -> int:
    if n > EXHAUSTIVE_PARTIES:
        return SAMPLED_TABLES
    i_widths, o_widths = ([1] * n, [1] * n) if naive else _wide(n)
    return prod((1 << wo) ** (1 << wi) for wo, wi in zip(o_widths, i_widths))


def _check_build(job, res, work):
    with open(job.command(work)[-1]) as handle:
        payload = json.load(handle)
    coeff = Fraction(1, 1 << (job.n if job.n % 2 else job.n + 1))
    terms = payload["terms"]
    if len(terms) != 1 << (job.n - 1):
        return f"{len(terms)} terms, expected {1 << (job.n - 1)}"
    if any(_dyadic(t) != coeff for t in terms):
        return f"a coefficient differs from {coeff}"
    return None


def _check_validate(job, res, work):
    reject = job.expect.get("reject", False)
    if res.code != (1 if reject else 0):
        return f"exit {res.code}"
    report = json.loads(res.stdout)
    checked = report["bilinear_norm"]["checked"]
    if checked != _expected_checked(job.n, job.expect.get("naive", False)):
        return f"bilinear checked {checked}"
    if reject:
        if report["passed"] or report["term_structure"]:
            return "naive operator not rejected by term_structure"
        if job.n <= EXHAUSTIVE_PARTIES and report["bilinear_norm"]["failed"] == 0:
            return "exhaustive bilinear check found no failing tables"
        return None
    ok = (report["passed"] and report["nonneg"] and report["channel_norm"]
          and report["term_structure"] and report["bilinear_norm"]["failed"] == 0)
    return None if ok else f"process rejected: {report}"


def _check_export(job, res, process):
    n = job.n
    i_widths, o_widths = _wide(n)
    o_width = sum(o_widths)
    lines = res.stdout.splitlines()
    if lines[0] != "index,numerator,log2_denominator":
        return "missing header"
    rows = lines[1:]
    if len(rows) != 1 << (sum(i_widths) + o_width):
        return f"{len(rows)} rows"
    expected: dict[int, Fraction] = {}
    for o_idx in range(1 << o_width):
        outs, rest = [], o_idx
        for w in reversed(o_widths):
            outs.append(rest & ((1 << w) - 1))
            rest >>= w
        outs.reverse()
        for ins, weight in _loop_image(n, outs, process).items():
            i_idx = 0
            for v, w in zip(ins, i_widths):
                i_idx = (i_idx << w) | v
            expected[(i_idx << o_width) | o_idx] = weight
    zero = Fraction(0)
    for idx, row in enumerate(rows):
        i, num, log2den = row.split(",")
        if int(i) != idx or Fraction(int(num), 1 << int(log2den)) != expected.get(idx, zero):
            return f"row {idx} is {row}"
    return None


def _check_play(job, res):
    payload = json.loads(res.stdout)
    n = job.n
    if "m" not in job.expect:
        one = {"num": 1, "log2den": 0}
        if len(payload["per_m"]) != n or any(p != one for p in payload["per_m"]):
            return f"per_m {payload['per_m']}"
        return None if payload["p_succ"] == one else f"p_succ {payload['p_succ']}"
    m, bits = job.expect["m"], job.expect["inputs"]
    if (payload["n"], payload["m"], payload["a"]) != (n, m, bits):
        return "round not echoed"
    target = (sum(bits) - bits[m]) & 1
    dist = payload["distribution"]
    if not dist or any(entry["x"][m] != target for entry in dist):
        return "an outcome in the support loses"
    total = sum(_dyadic(entry) for entry in dist)
    return None if total == 1 else f"total probability {total}"


def _check_causal(job, res):
    n = job.n
    bound = Fraction(2 * n - 1, 2 * n)
    if job.expect["brute"]:
        want = [f"bound {bound}", f"forwarding {bound}", f"brute-force {bound}",
                "match=true"]
        return None if res.stdout.splitlines() == want else f"output {res.stdout!r}"
    payload = json.loads(res.stdout)
    frac = {"num": bound.numerator, "den": bound.denominator}
    ok = payload["match"] and payload["value"] == frac and payload["bound"] == frac
    return None if ok else f"value {payload['value']}, bound {payload['bound']}"


def _check_sample(job, res):
    # The JSON schema omits ``losses``, so the text line is parsed.
    fields = dict(tok.split("=", 1) for tok in res.stdout.split())
    want = {"n": str(job.n), "shots": str(job.shots),
            "seed": str(job.expect["seed"]), "wins": str(job.shots), "losses": "0"}
    bad = {k: fields.get(k) for k, v in want.items() if fields.get(k) != v}
    return f"fields {bad}" if bad else None


def check(job: Job, result, work: str, process) -> str | None:
    """Why the answer is wrong, or ``None`` when it is exactly right."""
    if not isinstance(result, CliResult):
        want = _loop_image(job.n, job.outputs, process)
        return None if result == want else "distribution differs from the loop image"
    if job.kind == "validate":
        return _check_validate(job, result, work)
    if result.code != 0:
        return f"exit {result.code}: {result.stderr.strip()}"
    if job.kind == "build":
        return _check_build(job, result, work)
    if job.kind == "export":
        return _check_export(job, result, process)
    if job.kind == "play":
        return _check_play(job, result)
    if job.kind == "causal":
        return _check_causal(job, result)
    return _check_sample(job, result)
