"""Command-line front end.

Subcommands build, validate and export process matrices, play and sample
the parity game, and report causal bounds. Numeric output is exact by
default (dyadic or plain fractions); ``--float`` switches the text
renderings of ``build-w``, ``play`` and ``causal-bound``, the commands
that print rationals as text, to 17-significant-digit floats, and
``--json`` selects the machine-readable schemas (``export`` has no such
switch: ``--format`` alone picks what it writes). Exit codes: 0 success,
1 validation failure, 2 usage error.

Each call builds the argument parser of the one command it runs, from
``_COMMANDS``; a usage error prints that command's usage line. Only a call
that names no command first (none, ``-h``, an unknown command, a leading
option) builds the top-level parser with the command listing. ``--out``
files are written atomically with the mode a plain write would leave.
Also runs as ``python -m acausal``.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from fractions import Fraction

from .causal import MODEL, brute_force_causal, causal_bound, forwarding_strategy_success
from .diagop import (
    DiagOperator,
    FormatError,
    dense_csv,
    dyadic_json,
    fraction_json,
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


def _plain_write_mode(path: str) -> int:
    """The mode ``open(path, "w")`` leaves: the existing file's, or the
    umask applied to 0o666."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it, removed on
    failure. A failure to create the temp file or to rename it over
    ``path`` raises its ``OSError`` again, errno kept, naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = _plain_write_mode(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acausal-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)  # mkstemp creates it 0600
            handle.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
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
        return dense_csv(op)
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


def _read_operator(path: str) -> DiagOperator:
    with open(path) as handle:
        try:
            return operator_from_json(json.load(handle))
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply to parse") from None


def _cmd_validate(args) -> int:
    if args.seed < 0:  # before the file is read: the refusal does not depend on it
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    op = _read_operator(args.file)
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
    try:
        bits = tuple(int(b) for b in args.inputs.split(","))
    except ValueError:
        raise ValueError(f"--inputs must be comma-separated bits, got {args.inputs!r}") from None
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
            "value": fraction_json(value),
            "bound": fraction_json(bound),
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
    op = _read_operator(args.file)
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


def _args_build_w(p):
    _add_common(p, n=True, rationals=True)
    p.add_argument("--format", choices=("monomials", "dense"),
                   default="monomials")


def _args_validate(p):
    p.add_argument("--file", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the drawn bilinear tuples beyond 5 parties; "
                        "used only when a non-identity term survives")
    _add_common(p)


def _args_play(p):
    _add_common(p, n=True, rationals=True)
    p.add_argument("--m", type=int, help="referee value")
    p.add_argument("--inputs", help="comma-separated input bits")


def _args_sample(p):
    _add_common(p, n=True)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)


def _args_causal_bound(p):
    _add_common(p, n=True, rationals=True)
    p.add_argument("--brute-force", action="store_true",
                   help="exact optimum over all protocols")


def _args_export(p):
    p.add_argument("--file", required=True, metavar="PATH")
    p.add_argument("--format", choices=("monomials", "dense"),
                   default="monomials")
    p.add_argument("--out", metavar="PATH", help="write output atomically to PATH")


# name -> (help line, function adding the arguments, handler)
_COMMANDS = {
    "build-w": ("construct the n-party process matrix", _args_build_w, _cmd_build_w),
    "validate": ("validate an operator JSON file", _args_validate, _cmd_validate),
    "play": ("exact game evaluation", _args_play, _cmd_play),
    "sample": ("seeded Monte-Carlo game sampling", _args_sample, _cmd_sample),
    "causal-bound": ("causal-order value and bound", _args_causal_bound,
                     _cmd_causal_bound),
    "export": ("convert an operator file", _args_export, _cmd_export),
}


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command ``argv`` names and its parsed arguments. A parser is
    built per call, for the named command only; usage errors and ``-h``
    exit through argparse."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"acausal {name}")
        _COMMANDS[name][1](parser)
        return name, parser.parse_args(argv[1:])
    # No command first: the top-level parser prints the help or the usage
    # error. Of its subparsers only the command named further on, if any,
    # takes arguments, which is all such a parse reaches.
    parser = argparse.ArgumentParser(
        prog="acausal",
        description="exact process-matrix construction, parity game, and "
                    "causal bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == named:
            add_arguments(p)
    args = parser.parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    # Looked up on the module at call time, so a wrapper installed there
    # (the bench's span recorder) is the one that runs.
    handler = globals()[_COMMANDS[name][2].__name__]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:  # the package raises ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
