"""Command-line front end.

Subcommands build, validate and export process matrices, play and sample
the parity game, and report causal bounds. Numeric output is exact by
default (dyadic or plain fractions); ``--float`` switches the text
renderings of ``build-w``, ``play`` and ``causal-bound``, the commands
that print rationals as text, to 17-significant-digit floats, and
``--json`` selects the machine-readable schemas (``export`` has no such
switch: ``--format`` alone picks what it writes). Exit codes: 0 success,
1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .causal import MODEL, brute_force_causal, causal_bound, forwarding_strategy_success
from .diagop import (
    DiagOperator,
    dense_csv_lines,
    dyadic_json,
    operator_from_json,
    operator_to_json,
)
from .game import (
    GameRound,
    outcome_distribution,
    sample_game,
    success_probability_exact,
    winning_behavior,
)
from .process import build_w, validate_process

DENSE_WIDTH_CAP = 24


def _fmt(value: Fraction, as_float: bool) -> str:
    if as_float:
        return f"{float(value):.17g}"
    return str(value)


def _frac_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acausal-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


_PATTERN_SYMBOLS = str.maketrans("01", "1z")


def _operator_text(op: DiagOperator, as_float: bool) -> str:
    layout = op.layout
    fields = []
    start = 0
    for wire in layout.wires:
        fields.append((f"{wire.name}:", start, start + wire.width))
        start += wire.width
    lines = [f"width: {layout.width} bits, terms: {len(op.terms)}"]
    for mask, coeff in sorted(op.terms.items()):
        bits = format(mask, f"0{layout.width}b").translate(_PATTERN_SYMBOLS)
        pattern = " ".join(name + bits[lo:hi] for name, lo, hi in fields)
        lines.append(f"{_fmt(coeff, as_float)}  {pattern}")
    return "\n".join(lines) + "\n"


def _render_operator(op: DiagOperator, fmt: str, as_json: bool,
                     as_float: bool) -> str:
    if fmt == "dense":
        if op.layout.width > DENSE_WIDTH_CAP:
            raise ValueError(
                f"dense export refused: width {op.layout.width} exceeds the "
                f"{DENSE_WIDTH_CAP}-bit cap"
            )
        return "\n".join(dense_csv_lines(op)) + "\n"
    if as_json:
        return json.dumps(operator_to_json(op)) + "\n"
    return _operator_text(op, as_float)


def _cmd_build_w(args) -> int:
    w = build_w(args.n)
    structured = args.json or args.out is not None
    text = _render_operator(
        w.operator, args.format, as_json=structured, as_float=args.float
    )
    _emit(text, args.out)
    return 0


def _cmd_validate(args) -> int:
    with open(args.file) as handle:
        op = operator_from_json(json.load(handle))
    report = validate_process(op, seed=args.seed)
    if args.json:
        payload = report.to_json()
        payload["passed"] = report.passed
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [
            f"nonneg: {str(report.nonneg).lower()}",
            f"channel_norm: {str(report.channel_norm).lower()}",
            f"bilinear_norm: checked {report.bilinear.checked}, "
            f"failed {report.bilinear.failed}",
            f"term_structure: {str(report.term_structure).lower()}",
            f"result: {'pass' if report.passed else 'FAIL'}",
        ]
        if not report.passed:
            lines.append(f"failing checks: {', '.join(report.failures())}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_play(args) -> int:
    if (args.m is None) != (args.inputs is None):
        raise ValueError("--m and --inputs must be given together")
    if args.m is None:
        result = success_probability_exact(args.n)
        if args.json:
            _emit(json.dumps(result.to_json()) + "\n", args.out)
        else:
            lines = [
                f"m={m}: success {_fmt(p, args.float)}"
                for m, p in enumerate(result.per_m)
            ]
            lines.append(f"p_succ: {_fmt(result.p_succ, args.float)}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    bits = tuple(int(b) for b in args.inputs.split(","))
    round_ = GameRound(n=args.n, m=args.m, inputs=bits)
    behaviors = [
        winning_behavior(args.n, round_.m, i, round_.inputs[i])
        for i in range(args.n)
    ]
    dist = outcome_distribution(build_w(args.n), behaviors)
    if args.json:
        payload = {
            "n": args.n,
            "m": round_.m,
            "a": list(round_.inputs),
            "distribution": [
                {"x": list(xs), **dyadic_json(p)} for xs, p in dist.items()
            ],
        }
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [
            f"x={','.join(map(str, xs))}: {_fmt(p, args.float)}"
            for xs, p in dist.items()
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    result = sample_game(args.n, args.shots, args.seed)
    if args.json:
        _emit(json.dumps(result.to_json()) + "\n", args.out)
    else:
        text = (
            f"n={result.n} shots={result.shots} seed={result.seed} "
            f"rng={result.rng} wins={result.wins} losses={result.losses} "
            f"estimate={result.estimate:.17g}\n"
        )
        _emit(text, args.out)
    return 0


def _cmd_causal_bound(args) -> int:
    bound = causal_bound(args.n)
    forwarding = forwarding_strategy_success(args.n)
    brute = brute_force_causal(args.n) if args.brute_force else None
    result = brute if brute else forwarding
    value = result.value
    witness = result.protocol
    if args.json:
        payload = {
            "n": args.n,
            "model": MODEL,
            "value": _frac_json(value),
            "bound": _frac_json(bound),
            "match": value == bound,
            "witness": witness.to_json(),
        }
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [
            f"bound {_fmt(bound, args.float)}",
            f"forwarding {_fmt(forwarding.value, args.float)}",
        ]
        if brute:
            lines.append(f"brute-force {_fmt(brute.value, args.float)}")
        lines.append(f"match={'true' if value == bound else 'false'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export(args) -> int:
    with open(args.file) as handle:
        op = operator_from_json(json.load(handle))
    text = _render_operator(op, args.format, as_json=True, as_float=False)
    _emit(text, args.out)
    return 0


def _add_common(parser, n=False, rationals=False):
    if n:
        parser.add_argument("--n", type=int, required=True, help="party count")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON schema")
    if rationals:
        parser.add_argument("--float", action="store_true",
                            help="render text numerics as floats (17 digits)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output atomically to PATH")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acausal",
        description="exact process-matrix construction, parity game, and "
                    "causal bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-w", help="construct the n-party process matrix")
    _add_common(p, n=True, rationals=True)
    p.add_argument("--format", choices=("monomials", "dense"),
                   default="monomials")
    p.set_defaults(func=_cmd_build_w)

    p = sub.add_parser("validate", help="validate an operator JSON file")
    p.add_argument("--file", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the drawn bilinear tuples beyond 5 parties; "
                        "used only when a non-identity term survives")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("play", help="exact game evaluation")
    _add_common(p, n=True, rationals=True)
    p.add_argument("--m", type=int, help="referee value")
    p.add_argument("--inputs", help="comma-separated input bits")
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("sample", help="seeded Monte-Carlo game sampling")
    _add_common(p, n=True)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("causal-bound", help="causal-order value and bound")
    _add_common(p, n=True, rationals=True)
    p.add_argument("--brute-force", action="store_true",
                   help="exact optimum over all protocols")
    p.set_defaults(func=_cmd_causal_bound)

    p = sub.add_parser("export", help="convert an operator file")
    p.add_argument("--file", required=True, metavar="PATH")
    p.add_argument("--format", choices=("monomials", "dense"),
                   default="monomials")
    p.add_argument("--out", metavar="PATH", help="write output atomically to PATH")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package raises ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
