"""The package's records: nine immutable named tuples and the
``ProcessMatrix`` handle.

Each record keeps its field names, defaults, keyword construction and
``repr`` text, refuses attribute assignment, and compares and hashes by
value. ``Wire`` and ``GameRound`` validate on every public path that makes
one: the constructor, ``_make``, ``_replace``, copy and pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from acausal.causal import MODEL, CausalValue, brute_force_causal
from acausal.diagop import LayoutError, Wire
from acausal.game import GameResult, GameRound, sample_game
from acausal.process import (
    BilinearCheck,
    LoopChannel,
    ProcessMatrix,
    loop_decomposition,
    validate_process,
)

F = Fraction
ORDERS = ("{(0, 0): (0, 1, 2), (0, 1): (0, 1, 2), (1, 0): (0, 2, 1), "
          "(1, 1): (0, 2, 1), (2, 0): (0, 1, 2), (2, 1): (0, 1, 2)}")
PROTOCOL = f"CausalProtocol(n=3, first=0, orders={ORDERS})"

# record name -> (a builder of a fresh value, the value's repr text)
RECORDS = {
    "Wire": (lambda: Wire(0, "I"), "Wire(party=0, kind='I', width=1)"),
    "ProcessMatrix": (lambda: ProcessMatrix(5), "ProcessMatrix(n=5)"),
    "BilinearCheck": (lambda: BilinearCheck(1000, 0),
                      "BilinearCheck(checked=1000, failed=0)"),
    "ValidationReport": (
        lambda: validate_process(ProcessMatrix(3)),
        "ValidationReport(nonneg=True, channel_norm=True, "
        "bilinear=BilinearCheck(checked=64, failed=0), term_structure=True, "
        "signaling=((True, True, True), (True, True, True), (True, True, True)))"),
    "LoopChannel": (lambda: loop_decomposition(4)[0],
                    "LoopChannel(n=4, edge_flips=(0, 0, 0, 0), weight=Fraction(1, 4))"),
    "GameRound": (lambda: GameRound(3, 1, (1, 0, 1)),
                  "GameRound(n=3, m=1, inputs=(1, 0, 1))"),
    "GameResult": (lambda: GameResult(3, (F(1),) * 3, F(1)),
                   "GameResult(n=3, per_m=(Fraction(1, 1), Fraction(1, 1), "
                   "Fraction(1, 1)), p_succ=Fraction(1, 1))"),
    "SampleResult": (lambda: sample_game(3, 10, 0),
                     "SampleResult(n=3, shots=10, seed=0, rng='mt19937', wins=10, "
                     "losses=0, per_m_wins=(2, 4, 4), per_m_shots=(2, 4, 4))"),
    "CausalProtocol": (lambda: brute_force_causal(3).protocol, PROTOCOL),
    "CausalValue": (
        lambda: brute_force_causal(3),
        f"CausalValue(n=3, value=Fraction(5, 6), bound=Fraction(5, 6), "
        f"protocol={PROTOCOL}, per_m=(Fraction(1, 2), Fraction(1, 1), "
        f"Fraction(1, 1)), model='adaptive-order full-forwarding')"),
}
UNHASHABLE = {"CausalProtocol", "CausalValue"}  # their orders are a dict


def fields(value):
    return {"n": value.n} if type(value) is ProcessMatrix else value._asdict()


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, text = RECORDS[name]
    value = build()
    assert type(value).__name__ == name
    assert repr(value) == text
    with pytest.raises(AttributeError):
        value.n = 4
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        del value.n
    rebuilt = type(value)(**fields(value))  # keyword construction
    clones = [build(), rebuilt, copy.copy(value), pickle.loads(pickle.dumps(value))]
    for clone in clones:
        assert type(clone) is type(value) and clone == value
        assert not clone != value
        assert repr(clone) == text
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert {hash(clone) for clone in clones} == {hash(value)}


def test_records_compare_unpack_and_measure_as_tuples():
    assert Wire(0, "I") == (0, "I", 1)
    party, kind, width = Wire("env", "X", 3)
    assert (party, kind, width) == ("env", "X", 3)
    assert len(GameRound(3, 1, (1, 0, 1))) == 3
    assert ProcessMatrix(5) != (5,) and ProcessMatrix(5) != ProcessMatrix(7)


def test_defaults_apply():
    assert Wire(0, "I").width == 1
    assert Wire(party=1, kind="O") == Wire(1, "O", 1)
    value = brute_force_causal(3)
    assert CausalValue(value.n, value.value, value.bound, value.protocol,
                       value.per_m).model == MODEL


VALIDATING = {
    "Wire": (Wire(0, "I"), {"width": 0}, LayoutError,
             "^wire width must be >= 1, got 0$"),
    "GameRound": (GameRound(3, 1, (1, 0, 1)), {"inputs": (0, 2, 0)}, ValueError,
                  "^inputs must be bits$"),
}


@pytest.mark.parametrize("name", VALIDATING)
def test_validating_record_refuses_on_every_path(name):
    valid, bad_field, error, message = VALIDATING[name]
    cls = type(valid)
    bad = {**valid._asdict(), **bad_field}
    forged = tuple.__new__(cls, bad.values())  # made without the checks
    paths = {
        "constructor": lambda: cls(**bad),
        "_make": lambda: cls._make(bad.values()),
        "_replace": lambda: valid._replace(**bad_field),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
        "pickle": lambda: pickle.loads(pickle.dumps(forged)),
    }
    for path, make in paths.items():
        with pytest.raises(error, match=message):
            make()
            pytest.fail(f"{path} made an invalid {name}")
    assert cls._make(valid) == valid and valid._replace() == valid
