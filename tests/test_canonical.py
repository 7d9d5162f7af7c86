"""Property tests of the canonical integer form of diagonal operators.

Every operator stores integer numerators over one power of two, with zero
terms dropped and the exponent as small as possible, so exact equality of
values is equality of representations.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acausal.diagop import (
    DiagOperator,
    FormatError,
    multiply,
    operator_from_json,
    operator_to_json,
)
from conftest import dense_oracle, random_operator

F = Fraction

randoms = st.randoms(use_true_random=False)
PROPERTY = settings(max_examples=60, deadline=None)


def assert_canonical(op: DiagOperator) -> None:
    assert all(op.nums.values())
    assert op.log2den >= 0
    assert op.log2den == 0 or any(v & 1 for v in op.nums.values())
    assert op.terms == {m: F(v, 1 << op.log2den) for m, v in op.nums.items()}


def on_same_layout(rng, op: DiagOperator) -> DiagOperator:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[rng.randrange(1 << op.layout.width)] = F(rng.randint(-8, 8),
                                                       1 << rng.randint(0, 4))
    return DiagOperator(op.layout, terms)


@PROPERTY
@given(randoms)
def test_difference_with_itself_has_no_terms(rng):
    a = random_operator(rng)
    zero = DiagOperator(a.layout, {m: c - c for m, c in a.terms.items()})
    assert zero.nums == {} and zero.terms == {} and zero.log2den == 0
    assert_canonical(a)


@PROPERTY
@given(randoms)
def test_halved_double_is_the_operator(rng):
    a = random_operator(rng)
    doubled = DiagOperator(a.layout, {m: 2 * c for m, c in a.terms.items()})
    assert_canonical(doubled)
    assert DiagOperator(a.layout, {m: c / 2 for m, c in doubled.terms.items()}) == a


@PROPERTY
@given(randoms)
def test_json_roundtrip(rng):
    a = random_operator(rng)
    back = operator_from_json(operator_to_json(a))
    assert back == a
    assert_canonical(back)


@PROPERTY
@given(randoms)
def test_multiply_matches_entrywise_dense_product(rng):
    a = random_operator(rng, max_width=8)
    b = on_same_layout(rng, a)
    product = multiply(a, b)
    assert_canonical(product)
    assert dense_oracle(product) == [
        x * y for x, y in zip(dense_oracle(a), dense_oracle(b))
    ]


@PROPERTY
@given(randoms)
def test_constructor_from_fraction_view_is_identity(rng):
    a = random_operator(rng)
    assert DiagOperator(a.layout, a.terms) == a


def test_non_dyadic_coefficient_rejected():
    a = random_operator(random.Random(0))
    with pytest.raises(ValueError, match="not dyadic"):
        DiagOperator(a.layout, {0: F(1, 3)})


@pytest.mark.parametrize("document", [
    {"layout": []},
    {"layout": [], "terms": 5},
    {"layout": [], "terms": [{"mask": "0x0", "num": 1, "log2den": -1}]},
    {"layout": [], "terms": [{"mask": 0, "num": 1, "log2den": 0}]},
    {"layout": [], "terms": [{"mask": "0x0", "num": True, "log2den": 0}]},
])
def test_schema_violations_raise_format_error(document):
    with pytest.raises(FormatError):
        operator_from_json(document)
