import math
import random
import time
from fractions import Fraction

import pytest

from acausal import causal
from acausal.causal import (
    MODEL,
    _evaluate,
    brute_force_causal,
    causal_bound,
    forwarding_strategy_success,
    repeated_success,
)
from conftest import (
    causal_enumeration_oracle,
    enumerate_protocol_values,
    recursive_causal_optimum,
)

F = Fraction


def test_bound_values():
    assert causal_bound(2) == F(3, 4)
    assert causal_bound(3) == F(5, 6)
    assert causal_bound(10) == F(19, 20)
    with pytest.raises(ValueError):
        causal_bound(1)


def test_repeated_success():
    assert repeated_success(3, 1) == F(5, 6)
    assert repeated_success(3, 26) == F(5, 6) ** 26
    assert repeated_success(3, 26) < F(1, 100)
    for n in (2, 3, 5):
        for r in range(1, 6):
            assert repeated_success(n, r + 1) < repeated_success(n, r)
    with pytest.raises(ValueError):
        repeated_success(3, 0)


@pytest.mark.parametrize("n", (*range(3, 9), 16, 64, 256, 511))
def test_forwarding_achieves_bound(n):
    result = forwarding_strategy_success(n)
    assert result.value == causal_bound(n)
    assert result.per_m[0] == F(1, 2)
    assert result.per_m[1:] == tuple([F(1)] * (n - 1))
    # the witness routes the guesser last whenever it can
    for m in range(1, n):
        for a in (0, 1):
            assert result.protocol.order_for(m, a)[-1] == m


def test_forwarding_two_parties():
    result = forwarding_strategy_success(2)
    assert result.value == F(3, 4)
    with pytest.raises(ValueError):
        forwarding_strategy_success(1)
    with pytest.raises(ValueError):
        brute_force_causal(1)


@pytest.mark.parametrize("n", (2, 3))
def test_brute_force_meets_bound(n):
    result = brute_force_causal(n)
    assert result.value == causal_bound(n)
    assert result.bound == causal_bound(n)
    assert result.model == MODEL
    assert sorted(result.per_m) == [F(1, 2)] + [F(1)] * (n - 1)


@pytest.mark.parametrize("n", (2, 3))
def test_no_protocol_beats_the_bound(n):
    bound = causal_bound(n)
    values = [value for value, _, _ in enumerate_protocol_values(n)]
    assert max(values) == bound
    assert all(value <= bound for value in values)


def first_strict_maximum(n: int, fixed_order: bool = False):
    """The enumeration's optimum, ties broken by the first one listed."""
    best = None
    for value, first, order_items in enumerate_protocol_values(n, fixed_order):
        if best is None or value > best[0]:
            best = (value, first, order_items)
    return best


@pytest.mark.parametrize("n", (2, 3))
def test_fixed_order_is_strictly_weaker_at_three(n):
    value, _, _ = first_strict_maximum(n, fixed_order=True)
    assert value == F(1, 2) + F(1, 2 * n)
    if n >= 3:
        assert value < causal_bound(n)


@pytest.mark.parametrize("n", range(4, 11))
def test_fixed_order_value_on_random_orders(n):
    rng = random.Random(4000 + n)
    for _ in range(5):
        order = list(range(n))
        rng.shuffle(order)
        orders = {(m, a): tuple(order) for m in range(n) for a in (0, 1)}
        value, per_m = _evaluate(n, order[0], orders)
        assert value == F(1, 2) + F(1, 2 * n)
        assert per_m[order[-1]] == 1
        assert sorted(per_m) == [F(1, 2)] * (n - 1) + [F(1)]


@pytest.mark.parametrize("n", (2, 5, 64))
def test_brute_force_values_one_shell(monkeypatch, n):
    # every first party has the value 1 - 1/(2n), so first party 0 decides
    firsts = []

    def counting(n, first, orders):
        firsts.append(first)
        return _evaluate(n, first, orders)

    monkeypatch.setattr(causal, "_evaluate", counting)
    assert brute_force_causal(n).value == causal_bound(n)
    assert firsts == [0]


@pytest.mark.parametrize("n", (2, 3))
def test_brute_force_equals_first_strict_maximum_of_enumeration(n):
    value, first, order_items = first_strict_maximum(n)
    result = brute_force_causal(n)
    assert result.value == value
    assert result.protocol.first == first
    assert tuple(result.protocol.orders.items()) == order_items
    assert result.per_m == causal_enumeration_oracle(n, first, dict(order_items))[1]


@pytest.mark.parametrize("n", (*range(4, 11), 16, 64))
def test_brute_force_equals_forwarding(n):
    result = brute_force_causal(n)
    forwarding = forwarding_strategy_success(n)
    assert result.value == forwarding.value == causal_bound(n)
    assert result.protocol == forwarding.protocol
    assert result.per_m == forwarding.per_m


@pytest.mark.parametrize("n", range(2, 7))
def test_recursive_causal_model_meets_the_same_bound(n):
    assert recursive_causal_optimum(n) == causal_bound(n)
    assert recursive_causal_optimum(n) == brute_force_causal(n).value


@pytest.mark.parametrize("n", (512, 2048))
def test_witness_over_the_budget_is_refused_up_front(n):
    start = time.perf_counter()
    for search in (forwarding_strategy_success, brute_force_causal):
        with pytest.raises(ValueError, match="over the budget"):
            search(n)
    assert time.perf_counter() - start < 1.0


def test_protocol_json_shape():
    result = brute_force_causal(2)
    payload = result.protocol.to_json()
    assert payload["first"] in (0, 1)
    assert all(set(entry) == {"m", "a_first", "order"}
               for entry in payload["orders"])


@pytest.mark.parametrize("fixed_order", (False, True))
@pytest.mark.parametrize("n", (2, 3))
def test_evaluate_equals_enumeration_on_every_small_shell(n, fixed_order):
    shells = 0
    for value, first, order_items in enumerate_protocol_values(n, fixed_order):
        orders = dict(order_items)
        expected = causal_enumeration_oracle(n, first, orders)
        assert _evaluate(n, first, orders) == expected
        assert value == expected[0]
        shells += 1
    tails = math.factorial(n - 1)
    assert shells == n * (tails if fixed_order else tails ** (2 * n))


def random_order_rule(rng: random.Random, n: int):
    """A first party and an adaptive order rule in which each guesser
    other than the first party is placed last, in the middle or at a
    random position behind the first party."""
    first = rng.randrange(n)
    orders = {}
    for m in range(n):
        for a_first in (0, 1):
            tail = [p for p in range(n) if p != first]
            rng.shuffle(tail)
            if m != first:
                tail.remove(m)
                place = rng.choice(("last", "middle", "random"))
                at = {"last": len(tail), "middle": len(tail) // 2,
                      "random": rng.randint(0, len(tail))}[place]
                tail.insert(at, m)
            orders[(m, a_first)] = (first, *tail)
    return first, orders


@pytest.mark.parametrize("n", range(4, 11))
def test_evaluate_equals_enumeration_on_random_adaptive_rules(n):
    rng = random.Random(2026 + n)
    positions = set()
    for _ in range(40):
        first, orders = random_order_rule(rng, n)
        assert _evaluate(n, first, orders) == causal_enumeration_oracle(
            n, first, orders
        )
        positions |= {
            ("first" if order.index(m) == 0 else
             "last" if order.index(m) == n - 1 else "middle")
            for (m, _), order in orders.items()
        }
    assert positions == {"first", "middle", "last"}


def test_evaluate_rejects_orders_outside_the_model():
    _, orders = random_order_rule(random.Random(7), 4)
    first = orders[(0, 0)][0]
    bad = dict(orders)
    bad[(1, 0)] = tuple(reversed(orders[(1, 0)]))
    with pytest.raises(ValueError, match="starting with"):
        _evaluate(4, first, bad)
    bad[(1, 0)] = orders[(1, 0)][:-1]
    with pytest.raises(ValueError, match="permutation"):
        _evaluate(4, first, bad)
