import argparse
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from acausal.cli import main
from acausal.diagop import operator_from_json, operator_to_json, to_dense
from acausal.process import ProcessMatrix, build_w, naive_even_w


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_w_text_lists_terms(capsys):
    code, out, _ = run(capsys, "build-w", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "width: 6 bits, terms: 4"
    assert len(lines) == 5
    assert "1/8  I0:1 I1:z I2:z O0:z O1:z O2:1" in lines


def test_build_w_json_schema(capsys):
    code, out, _ = run(capsys, "build-w", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert operator_from_json(payload) == build_w(4).operator
    widths = {(w["party"], w["kind"]): w["width"] for w in payload["layout"]}
    assert widths[(3, "I")] == 2 and widths[(2, "O")] == 2
    assert all(t["log2den"] == 5 and t["num"] == 1 for t in payload["terms"])


def test_build_w_two_parties_is_usage_error(capsys):
    code, out, err = run(capsys, "build-w", "--n", "2")
    assert code == 2
    assert "two parties" in err


def test_build_validate_roundtrip(tmp_path, capsys):
    for n in range(3, 9):
        path = tmp_path / f"w{n}.json"
        code, _, _ = run(capsys, "build-w", "--n", str(n), "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == 0
        assert "result: pass" in out


def test_validate_flags_invalid_process(tmp_path, capsys):
    path = tmp_path / "naive4.json"
    path.write_text(json.dumps(operator_to_json(naive_even_w(4))))
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "term_structure" in out and "FAIL" in out
    code, out, _ = run(capsys, "validate", "--file", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["term_structure"] is False
    assert payload["bilinear_norm"]["failed"] > 0
    assert payload["passed"] is False


@pytest.mark.parametrize("seed", (-1, -5))
def test_validate_refuses_a_negative_seed(tmp_path, capsys, seed):
    # random.Random seeds -s like s: the refusal keeps -5 from reporting
    # the draws of 5
    path = tmp_path / "naive8.json"
    path.write_text(json.dumps(operator_to_json(naive_even_w(8))))
    argv = ["validate", "--file", str(path), "--seed"]
    refusal = (2, "", f"error: seed must be >= 0, got {seed}\n")
    assert run(capsys, *argv, str(seed)) == refusal
    # refused before the file is opened
    assert run(capsys, "validate", "--file", str(tmp_path / "missing.json"),
               "--seed", str(seed)) == refusal
    code, out, _ = run(capsys, *argv, str(-seed))
    assert code == 1 and "bilinear_norm: checked 1000, failed " in out


def test_play_reports_certain_win(capsys):
    code, out, _ = run(capsys, "play", "--n", "4")
    assert code == 0
    assert "p_succ: 1" in out
    assert out.count("success 1") == 4


def test_play_distribution_json(capsys):
    code, out, _ = run(capsys, "play", "--n", "3", "--m", "0",
                       "--inputs", "1,0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 0 and payload["a"] == [1, 0, 1]
    atoms = {tuple(e["x"]): (e["num"], e["log2den"])
             for e in payload["distribution"]}
    assert atoms == {(1, 0, 0): (1, 1), (1, 1, 1): (1, 1)}


def test_play_requires_both_m_and_inputs(capsys):
    code, _, err = run(capsys, "play", "--n", "3", "--m", "1")
    assert code == 2
    assert "together" in err


@pytest.mark.parametrize("inputs, message", (
    ("1,,1", "--inputs must be comma-separated bits, got '1,,1'"),
    ("1,x,1", "--inputs must be comma-separated bits, got '1,x,1'"),
    ("1,2,1", "inputs must be bits"),
))
def test_play_malformed_inputs_are_usage_errors(capsys, inputs, message):
    code, out, err = run(capsys, "play", "--n", "3", "--m", "0", "--inputs", inputs)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sample_json_deterministic(capsys):
    code, first, _ = run(capsys, "sample", "--n", "3", "--shots", "500",
                         "--seed", "11", "--json")
    assert code == 0
    code, second, _ = run(capsys, "sample", "--n", "3", "--shots", "500",
                          "--seed", "11", "--json")
    assert first == second
    payload = json.loads(first)
    assert payload == {"n": 3, "shots": 500, "seed": 11, "rng": "mt19937",
                       "wins": 500, "losses": 0, "estimate": 1.0,
                       "per_m_wins": [163, 182, 155],
                       "per_m_shots": [163, 182, 155]}


def test_causal_bound_brute_force(capsys):
    code, out, _ = run(capsys, "causal-bound", "--n", "3", "--brute-force")
    assert code == 0
    assert "bound 5/6" in out
    assert "brute-force 5/6" in out
    assert "match=true" in out


def test_causal_bound_json(capsys):
    code, out, _ = run(capsys, "causal-bound", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "adaptive-order full-forwarding"
    assert payload["bound"] == {"num": 7, "den": 8}
    assert payload["value"] == {"num": 7, "den": 8}
    assert payload["match"] is True
    assert payload["witness"]["first"] == 0


CAUSAL_FLAGS = ("--json", "--brute-force", "--float")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(-5, 80),
       flags=st.lists(st.sampled_from(CAUSAL_FLAGS), unique=True))
def test_causal_bound_exit_codes(n, flags):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["causal-bound", "--n", str(n), *flags])
    refused = n < 2
    if refused:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        return
    assert code == 0
    assert err.getvalue() == ""
    bound = 1 - Fraction(1, 2 * n)
    if "--json" in flags:
        payload = json.loads(out.getvalue())
        assert payload["value"] == payload["bound"] == {
            "num": bound.numerator, "den": bound.denominator}
        assert payload["match"] is True
        return
    *values, match = out.getvalue().splitlines()
    labels = ["bound", "forwarding"] + ["brute-force"] * ("--brute-force" in flags)
    assert [line.split()[0] for line in values] == labels
    parse = float if "--float" in flags else Fraction
    assert all(parse(line.split()[1]) == parse(bound) for line in values)
    assert match == "match=true"


@pytest.mark.parametrize("n", (512, 2048))
def test_causal_bound_refuses_witness_over_the_budget(capsys, n):
    start = time.perf_counter()
    for flags in ((), ("--json",), ("--brute-force",)):
        code, out, err = run(capsys, "causal-bound", "--n", str(n), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m", (0, 9, 18))
def test_play_round_runs_at_19_parties(capsys, m):
    bits = [(i * i + m) % 3 & 1 for i in range(19)]
    code, out, err = run(capsys, "play", "--n", "19", "--m", str(m),
                         "--inputs", ",".join(map(str, bits)), "--json")
    assert (code, err) == (0, "")
    support = json.loads(out)["distribution"]
    parity = (sum(bits) - bits[m]) & 1
    assert support and all(e["x"][m] == parity for e in support)
    assert sum(Fraction(e["num"], 1 << e["log2den"]) for e in support) == 1


def _refuse_terms(self):
    raise AssertionError("built the process terms")


def loops_answer(n: int) -> bool:
    """Whether the loop elimination's row words stay under the budget:
    up to n = 5759 at odd n and n = 4694 at even n."""
    return n <= (5759 if n % 2 else 4694)


# the first refused n of each parity and the 64-bit row words it would read
LOOP_REFUSALS = {4696: 524355, 5761: 524340}


@pytest.mark.parametrize("n", (20, 40, 511, 725, 726, 727, 4694, 4696, 5759, 5761))
def test_play_refuses_a_round_over_the_budget(monkeypatch, capsys, n):
    # A round runs on the loops alone: W's term budget (n >= 20) does not
    # bound it, the 64-bit row words the loop elimination reads do, from
    # n = 4696 at even n and n = 5761 at odd n.
    monkeypatch.setattr(ProcessMatrix, "operator", property(_refuse_terms))
    start = time.perf_counter()
    inputs = ",".join("01"[i & 1] for i in range(n))
    code, out, err = run(capsys, "play", "--n", str(n), "--m", "0", "--inputs", inputs)
    if loops_answer(n):
        assert (code, err) == (0, "")
        assert out.count("x=") == (2 if n % 2 else 4)
    else:
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: loop decomposition refused: n={n} needs "
                              f"{LOOP_REFUSALS[n]} 64-bit row words read")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", (-3, 0))
def test_play_round_refuses_a_party_count_below_two(capsys, n):
    code, out, err = run(capsys, "play", "--n", str(n), "--m", "0", "--inputs", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: party count must be >= 2, got {n}\n"

@pytest.mark.parametrize("argv", (("play", "--n", "4696"),
                                  ("sample", "--n", "4696", "--shots", "1")))
def test_game_refuses_behaviors_over_the_budget(capsys, argv):
    # the default strategy deals no behavior, in play or in sample: the
    # first refusal of either is the loop decomposition's, from n = 4696
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: loop decomposition refused: n=4696 needs "
                          f"{LOOP_REFUSALS[4696]} 64-bit row words read")
    assert err.count("\n") == 1
    assert time.perf_counter() - start < 1.0


def test_play_answers_past_the_behavior_budget(capsys):
    code, out, err = run(capsys, "play", "--n", "512", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["per_m"] == [{"num": 1, "log2den": 0}] * 512


def test_sample_runs_below_the_budget(capsys):
    code, out, _ = run(capsys, "sample", "--n", "511", "--shots", "1", "--json")
    assert code == 0
    assert json.loads(out)["wins"] == 1


@pytest.mark.parametrize("n", (512, 4694, 5759))
def test_sample_answers_past_the_behavior_budget(capsys, n):
    # the default sampler deals no behavior, so only the loop budget's
    # edges bound it
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--n", str(n), "--shots", "1000", "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["wins"], result["losses"], len(result["per_m_shots"])) == (1000, 0, n)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shots", (1 << 19, 10**12))
def test_sample_refuses_shots_over_the_budget(capsys, shots):
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--n", "3", "--shots", str(shots))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: sample refused: n=3 needs {shots} shots") and err.count("\n") == 1
    assert time.perf_counter() - start < 1.0


def exit_code_and_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        # Only validate reports a failed check, exit 1.
        assert code == 0 or code == 1 and argv[0] == "validate"
        assert err.getvalue() == ""
    return code


GAME_SIZES = st.integers(-3, 10) | st.sampled_from((19, 40, 512, 2048, 4694, 4696, 5759, 5761))
INPUT_TOKENS = st.sampled_from(("0", "1", "2", "-1", "x", ""))


@settings(max_examples=150, deadline=None)
@given(n=GAME_SIZES, m=st.none() | st.integers(-2, 12),
       tokens=st.none() | st.lists(INPUT_TOKENS | st.sampled_from(("0", "1")), max_size=12),
       as_json=st.booleans(), full=st.none() | st.integers(min_value=0))
# Full-length rounds on both sides of the round budget: random examples
# rarely draw one at these sizes.
@example(n=40, m=3, tokens=[], as_json=False, full=0b1011)
@example(n=512, m=11, tokens=[], as_json=True, full=(1 << 512) - 1)
@example(n=4694, m=0, tokens=[], as_json=False, full=12345)
@example(n=4696, m=0, tokens=[], as_json=True, full=0)
# Full games on both sides of the loop decomposition's budget.
@example(n=5759, m=None, tokens=None, as_json=True, full=None)
@example(n=5761, m=None, tokens=None, as_json=False, full=None)
def test_play_exit_codes(n, m, tokens, as_json, full):
    # full: the round's input bits, read from the integer over all n parties
    if tokens is not None and n > 0 and full is not None:
        tokens = [str(full >> i & 1) for i in range(n)]
    argv = ["play", "--n", str(n)]
    if m is not None:
        argv.append(f"--m={m}")
    if tokens is not None:
        argv.append(f"--inputs={','.join(tokens)}")
    if as_json:
        argv.append("--json")
    round_given = m is not None and tokens is not None
    well_formed = (
        (m is None) == (tokens is None)
        and 3 <= n and loops_answer(n)
        and (not round_given
             or (0 <= m < n and len(tokens) == n and all(t in ("0", "1") for t in tokens)))
    )
    assert exit_code_and_streams(argv) == (0 if well_formed else 2)


@settings(max_examples=150, deadline=None)
@given(n=GAME_SIZES, shots=st.integers(-2, 50), seed=st.integers(-5, 5),
       as_json=st.booleans())
def test_sample_exit_codes(n, shots, seed, as_json):
    argv = ["sample", "--n", str(n), "--shots", str(shots), "--seed", str(seed)]
    if as_json:
        argv.append("--json")
    well_formed = shots >= 1 and seed >= 0 and 3 <= n and loops_answer(n)
    assert exit_code_and_streams(argv) == (0 if well_formed else 2)


@pytest.mark.parametrize("n", (20, 40, 10**9))
def test_build_w_refuses_terms_over_the_budget(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "build-w", "--n", str(n))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: build_w refused: n={n} needs 2^{n - 1} terms")
    assert err.count("\n") == 1
    assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(-5, 14) | st.sampled_from((20, 40, 10**9)),
       fmt=st.sampled_from((None, "monomials", "dense")),
       as_json=st.booleans(), as_float=st.booleans())
def test_build_w_exit_codes(n, fmt, as_json, as_float):
    assume(fmt != "dense" or n <= 9 or n >= 20)
    argv = ["build-w", "--n", str(n)]
    if fmt:
        argv.append(f"--format={fmt}")
    if as_json:
        argv.append("--json")
    if as_float:
        argv.append("--float")
    assert exit_code_and_streams(argv) == (0 if 3 <= n < 20 else 2)


# Field values of a type no field of the operator schema accepts.
WRONG_TYPES = st.sampled_from((None, True, 1.5))
BAD_JSON = st.sampled_from(("", "{", '{"layout": [', "not json", "[1, 2"))


@st.composite
def operator_files(draw):
    """An operator file's text, whether it is well formed, and whether its
    layout is wider than the dense cap: a circular process or a small
    random operator with distinct masks, broken by at most one defect or
    widened."""
    if draw(st.booleans()):
        doc = operator_to_json(build_w(draw(st.integers(3, 5))).operator)
        wires, terms = doc["layout"], doc["terms"]
        width = sum(w["width"] for w in wires)
    else:
        parties = draw(st.integers(1, 3))
        wires = [wire(p, k, draw(st.integers(1, 2))) for p in range(parties) for k in "IO"]
        width = sum(w["width"] for w in wires)
        masks = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                              max_size=min(5, 1 << width), unique=True))
        terms = [{"mask": hex(mask), "num": draw(st.integers(-4, 4)),
                  "log2den": draw(st.integers(0, 6))} for mask in masks]
        doc = {"layout": wires, "terms": terms}
    defect = draw(st.none() | st.sampled_from(("json", "type", "mask", "log2den", "wide",
                                               "duplicate")))
    term = draw(st.sampled_from(terms))
    if defect == "json":
        return draw(BAD_JSON), False, False
    if defect == "type":
        obj = draw(st.sampled_from((doc, draw(st.sampled_from(wires)), term)))
        obj[draw(st.sampled_from(sorted(obj)))] = draw(WRONG_TYPES)
    elif defect == "mask":
        term.update(mask=hex((1 << width) << draw(st.integers(0, 3))), num=1)
    elif defect == "log2den":
        term["log2den"] = draw(st.integers(-5, -1))
    elif defect == "duplicate":
        # the same mask again, written with leading zeros
        digits = len(format(int(term["mask"], 16), "x")) + draw(st.integers(1, 3))
        repeat = {**term, "mask": f"0x{int(term['mask'], 16):0{digits}x}"}
        terms.insert(draw(st.integers(0, len(terms))), repeat)
    elif defect == "wide":
        draw(st.sampled_from(wires))["width"] += draw(st.integers(25 - width, 40 - width))
    return json.dumps(doc), defect in (None, "wide"), defect == "wide"


@pytest.fixture(scope="module")
def write_operator(tmp_path_factory):
    """Writes each text to a new file and returns its path (rewriting one
    file in place can take ~0.1 s on some filesystems)."""
    directory = tmp_path_factory.mktemp("operators")
    count = itertools.count()

    def write(text):
        path = directory / f"operator{next(count)}.json"
        path.write_text(text)
        return str(path)
    return write


@settings(max_examples=150, deadline=None)
@given(file=operator_files(), dense=st.booleans())
def test_export_exit_codes(write_operator, file, dense):
    text, well_formed, wide = file
    argv = ["export", "--file", write_operator(text),
            f"--format={'dense' if dense else 'monomials'}"]
    assert exit_code_and_streams(argv) == (0 if well_formed and not (dense and wide) else 2)


@settings(max_examples=150, deadline=None)
@given(file=operator_files(), seed=st.integers(-3, 3), as_json=st.booleans())
def test_validate_exit_codes(write_operator, file, seed, as_json):
    text, well_formed, _ = file
    argv = ["validate", "--file", write_operator(text), "--seed", str(seed)]
    if as_json:
        argv.append("--json")
    code = exit_code_and_streams(argv)
    assert code in (0, 1, 2) if well_formed and seed >= 0 else code == 2


def test_missing_operator_file_is_usage_error(tmp_path):
    for command in ("export", "validate"):
        assert exit_code_and_streams([command, "--file", str(tmp_path / "none.json")]) == 2


def test_export_dense_csv(tmp_path, capsys):
    src = tmp_path / "w3.json"
    dst = tmp_path / "w3.csv"
    run(capsys, "build-w", "--n", "3", "--out", str(src))
    code, _, _ = run(capsys, "export", "--file", str(src), "--format",
                     "dense", "--out", str(dst))
    assert code == 0
    text = dst.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == "index,numerator,log2_denominator"
    dense = to_dense(build_w(3).operator)
    assert len(lines) == 65
    for i, (row, expected) in enumerate(zip(lines[1:], dense)):
        idx, num, log2den = row.split(",")
        assert idx == str(i)
        assert expected.numerator == int(num)
        assert expected.denominator == 1 << int(log2den)


def test_export_dense_width_guard(tmp_path, capsys):
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({
        "layout": [{"party": "env", "kind": "X", "width": 26}],
        "terms": [{"mask": "0x0", "num": 1, "log2den": 0}],
    }))
    code, _, err = run(capsys, "export", "--file", str(src), "--format",
                       "dense")
    assert code == 2
    assert "24" in err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-w", "--n", "3", "--frobnicate"])
    assert exc.value.code == 2


def test_identical_argv_identical_bytes(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "build-w", "--n", "5", "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_float_rendering(capsys):
    code, out, _ = run(capsys, "causal-bound", "--n", "3", "--float")
    assert code == 0
    assert "0.83333333333333337" in out


@pytest.mark.parametrize("argv", [("validate", "--file", "w.json"),
                                  ("export", "--file", "w.json"),
                                  ("sample", "--n", "3", "--shots", "1")])
def test_float_is_refused_where_no_rational_is_printed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--float"])
    assert exc.value.code == 2
    assert "--float" in capsys.readouterr().err


def test_export_refuses_json(capsys):
    # export writes one fixed format per --format; --json would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["export", "--file", "w.json", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


ONE_BIT = [{"party": 0, "kind": "I", "width": 1},
           {"party": 0, "kind": "O", "width": 1}]


@pytest.mark.parametrize("document", [
    {"layout": []},
    {"layout": [], "terms": 5},
    {"layout": ONE_BIT, "terms": [{"mask": "0x0", "num": 1, "log2den": -1}]},
    {"layout": ONE_BIT, "terms": [{"mask": "zz", "num": 1, "log2den": 0}]},
    {"layout": ONE_BIT, "terms": [{"mask": "0x0", "num": 0.5, "log2den": 0}]},
    {"layout": [{"party": 0, "kind": "I"}], "terms": []},
    [],
], ids=["no-terms", "terms-not-list", "negative-log2den", "mask-not-hex",
        "num-not-int", "wire-without-width", "not-an-object"])
def test_validate_malformed_file_is_usage_error(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def wire(party, kind, width):
    return {"party": party, "kind": kind, "width": width}


@pytest.mark.parametrize("document", [
    # Two parties, a 5-bit I0: party 0 alone has 2^32 local tables.
    {"layout": [wire(0, "I", 5), wire(1, "I", 1), wire(0, "O", 1), wire(1, "O", 1)],
     "terms": [{"mask": "0x0", "num": 1, "log2den": 6}]},
    # One party with 20-bit wires and four terms of rank 3.
    {"layout": [wire(0, "I", 20), wire(0, "O", 20)],
     "terms": [{"mask": hex(m), "num": 1, "log2den": 22}
               for m in (0, 1 << 39, 1 << 25, 1 << 3)]},
    # Six parties with 2-bit wires, 2^10 terms on the outputs alone (rank
    # 10), all surviving: 1000 drawn tuples times 2^10 contracted terms.
    {"layout": [wire(k, kind, 2) for kind in "IO" for k in range(6)],
     "terms": [{"mask": hex(m), "num": 1, "log2den": 24} for m in range(1 << 10)]},
], ids=["two-party-5-bit-input", "one-party-20-bit-wires", "six-party-2-bit-survivors"])
def test_validate_refuses_work_over_the_budget(tmp_path, capsys, document):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validate refused")


def test_validate_operator_without_terms_fails_validation(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"layout": ONE_BIT, "terms": []}))
    code, out, _ = run(capsys, "validate", "--file", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["channel_norm"] is False
    assert payload["passed"] is False


@pytest.mark.parametrize("command", ("validate", "export"))
def test_log2den_over_the_bound_is_usage_error(tmp_path, capsys, command):
    # a common denominator would shift the first numerator by 4 * 10**10 bits
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"layout": ONE_BIT, "terms": [
        {"mask": "0x0", "num": 1, "log2den": 0},
        {"mask": "0x1", "num": 1, "log2den": 40_000_000_000}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: terms[1]: log2den must lie in 0..")


COMMANDS = ("build-w", "validate", "play", "sample", "causal-bound", "export")
LISTING = "{build-w,validate,play,sample,causal-bound,export}"


def test_named_command_builds_one_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert main(["causal-bound", "--n", "3"]) == 0
    assert built == ["acausal causal-bound"] * 2


@pytest.mark.parametrize("argv", [(command, "--file", "w.json") if command in
                                  ("validate", "export") else (command, "--n", "3")
                                  for command in COMMANDS], ids=COMMANDS)
def test_unrecognized_argument_prints_the_command_usage(capsys, argv):
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: acausal {command} ")
    assert "--frobnicate" in err


@pytest.mark.parametrize("argv, code", [([], 2), (["bogus"], 2), (["-h"], 0)],
                         ids=["none", "unknown", "help"])
def test_no_command_prints_the_top_level_listing(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    printed = captured.out if code == 0 else captured.err
    assert printed.startswith(f"usage: acausal [-h] {LISTING} ...\n")


def test_leading_option_is_parsed_by_the_top_level_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--json", "build-w", "--n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "acausal: error: unrecognized arguments: --json\n")
    # the command named after the option still parses its own arguments
    with pytest.raises(SystemExit) as exc:
        main(["--json", "build-w", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: acausal build-w [-h] --n N")


def test_out_new_file_gets_the_mode_of_a_plain_write(tmp_path, capsys):
    (tmp_path / "plain.json").open("w").close()
    out = tmp_path / "w3.json"
    assert run(capsys, "build-w", "--n", "3", "--out", str(out))[0] == 0
    assert out.stat().st_mode == (tmp_path / "plain.json").stat().st_mode


@pytest.mark.parametrize("mode", (0o644, 0o640))
def test_out_overwrite_keeps_the_file_mode(tmp_path, capsys, mode):
    out = tmp_path / "w3.json"
    out.write_text("old")
    out.chmod(mode)
    assert run(capsys, "build-w", "--n", "3", "--out", str(out))[0] == 0
    assert out.stat().st_mode & 0o7777 == mode
    assert json.loads(out.read_text())["layout"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_closes_the_temp_file_when_fchmod_fails(tmp_path, capsys, monkeypatch):
    def deny(fd, mode):
        raise PermissionError("fchmod denied")

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fchmod", deny)
    assert run(capsys, "build-w", "--n", "3", "--out", str(tmp_path / "w3.json"))[0] == 2
    assert len(os.listdir("/proc/self/fd")) == before
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ("missing/w3.json", "outdir"))
def test_out_failure_names_the_path_and_leaves_no_temp_file(tmp_path, capsys, target):
    (tmp_path / "outdir").mkdir()
    path = str(tmp_path / target)
    code, out, err = run(capsys, "build-w", "--n", "3", "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ") and err.endswith(f": {path!r}\n")
    assert ".acausal-" not in err
    for directory in (tmp_path, tmp_path / "outdir"):
        assert not [f for f in os.listdir(directory) if f.startswith(".acausal-")]


@pytest.mark.parametrize("command", ("validate", "export"))
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, acausal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    # -S: no site customisation can load either module first.
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "acausal", "causal-bound", "--n", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert run(capsys, "causal-bound", "--n", "3") == (0, proc.stdout, "")
