"""Predefined-causal-order baselines for the parity game.

In any predefined causal order one party acts first and stays first; she
may route the order of the later parties, every activated party appends
its input to the running transcript, and outcomes may depend on anything
already seen. Under that model the parity game's success probability is
capped at ``1 - 1/(2n)``: when the guesser m is not last, some party acting
after her has an input that is uniform and independent of everything m
saw, so the target parity is a fair coin to her. The first party is
never last, so as the guesser she wins half the time; every other
guesser can be routed last and then always wins. So the cap is attained
and is the exact optimum at every n. The argument needs only that later
inputs stay hidden, so it holds as well when each next party is chosen
from everything seen so far, the recursive causal model of Oreshkov &
Giarmatzi (NJP 18, 093020, 2016).

The shared variable m is treated as pre-shared randomness available to
everyone, and the identity of the first party is fixed independently of
it; this modeling choice is recorded in every report.

A protocol shell is valued by counting, not by enumerating input rows.
Once m and the first party's input are fixed, so is the activation order,
and the guesser knows her own input and those of the parties before her,
the first party's included. If some other party acts after her, the
target parity is uniform on each of her information sets and she wins
half of the 2^(n-1) rows; if she acts last, it is determined and she wins
them all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .process import refuse_over_budget

__all__ = [
    "MODEL",
    "CausalProtocol",
    "CausalValue",
    "causal_bound",
    "repeated_success",
    "forwarding_strategy_success",
    "brute_force_causal",
]

MODEL = "adaptive-order full-forwarding"


class CausalProtocol(NamedTuple):
    """A deterministic adaptive-order protocol.

    ``orders[(m, a_first)]`` is the full activation order (a permutation
    starting with ``first``) chosen once the first party knows m and her
    own input. Messages are full-forwarding: each activated party appends
    ``(party, input)`` to the transcript; the guesser's outcome follows the
    conditional-majority rule of the evaluation.
    """

    n: int
    first: int
    orders: Mapping[tuple[int, int], tuple[int, ...]]

    def order_for(self, m: int, a_first: int) -> tuple[int, ...]:
        return self.orders[(m, a_first)]

    def to_json(self) -> dict:
        entries = [
            {"m": m, "a_first": a, "order": list(order)}
            for (m, a), order in sorted(self.orders.items())
        ]
        return {"first": self.first, "orders": entries}


class CausalValue(NamedTuple):
    """Best causal success probability with a witnessing protocol."""

    n: int
    value: Fraction
    bound: Fraction
    protocol: CausalProtocol
    per_m: tuple[Fraction, ...]
    model: str = MODEL


def causal_bound(n: int) -> Fraction:
    """The causal-order cap 1 - 1/(2n) on the game's success probability."""
    if n < 2:
        raise ValueError(f"the bound needs n >= 2, got {n}")
    return 1 - Fraction(1, 2 * n)


def repeated_success(n: int, rounds: int) -> Fraction:
    """Probability of winning ``rounds`` independent repetitions under the
    causal bound; strictly decreasing in the round count."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    return causal_bound(n) ** rounds


def _evaluate(n: int, first: int, orders) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact value of a protocol shell under optimal deterministic outputs.

    For each information set of the guesser the conditional-majority
    output is optimal (everything else being deterministic and the unseen
    inputs uniform), so each set contributes its majority count. Fix m and
    the first party's input bit: the order is then fixed, and the
    guesser's set fixes her own input and those of ``order[:order.index(m)]``.
    Sets never merge across the two bits, since either the first party's
    input is in the transcript or the first party is m. Of the 2^(n-1)
    rows of a bit, the guesser wins all when she is last (the target is
    determined) and half otherwise (an unseen input makes it uniform).
    """
    parties = set(range(n))
    per_m_wins = [0] * n
    for m in range(n):
        for a_first in (0, 1):
            order = orders[(m, a_first)]
            if order[0] != first or len(order) != n or set(order) != parties:
                raise ValueError(
                    f"order {order} for m={m}, a_first={a_first} is not a "
                    f"permutation of the {n} parties starting with {first}"
                )
            per_m_wins[m] += 1 << (n - 1 if order[-1] == m else n - 2)
    per_m = tuple(Fraction(wins, 1 << n) for wins in per_m_wins)
    return sum(per_m) / n, per_m


def _check_size(n: int) -> None:
    """Refuse, before building it, a witness over the work budget: 2n
    orders of n parties, so 2n^2 entries."""
    if n < 2:
        raise ValueError(f"the game needs n >= 2, got {n}")
    refuse_over_budget("causal witness", n, 2 * n * n, "order entries")


def forwarding_strategy_success(n: int) -> CausalValue:
    """Value and witness of the optimal forwarding protocol, the one body
    behind both causal searches.

    Party 0 goes first and routes the order so that the guesser acts last
    whenever the guesser is somebody else (the others in increasing
    order); when the guesser is party 0 the order is ``(0, 1, ..., n-1)``.
    Every per-m term is then 1 except m = 0, where the first party can
    only guess, and no rule with first party 0 does better on any
    (m, a_first) key. The returned value is computed by the exact closed
    form of ``_evaluate`` (the tests check it against enumeration of every
    input row) and equals ``causal_bound(n)`` -- for n = 2 as well, where
    there is no routing freedom and the 3/4 comes out of the plain
    two-party order.
    """
    _check_size(n)
    orders = {}
    for m in range(n):
        order = (0, *(p for p in range(1, n) if p != m))
        if m:
            order += (m,)
        orders[(m, 0)] = orders[(m, 1)] = order
    value, per_m = _evaluate(n, 0, orders)
    protocol = CausalProtocol(n=n, first=0, orders=orders)
    return CausalValue(
        n=n, value=value, bound=causal_bound(n), protocol=protocol, per_m=per_m
    )


def brute_force_causal(n: int) -> CausalValue:
    """Exact maximum over deterministic causal protocols, at every n.

    A shell's value is a sum of one term per (m, a_first) key, and each
    term depends only on that key's order, so the maximum for a first
    party is the maximum per key, which the rule that routes the guesser
    last attains. That maximum is the same for every first party: as the
    guesser she wins half the rows, and every other guesser, routed last,
    wins them all, so each first party's value is ``1 - 1/(2n)``. In an
    enumeration of every first party and order rule in lexicographic order
    the first strict maximum therefore has first party 0, and it is the
    shell :func:`forwarding_strategy_success` values, with ``_evaluate``:
    O(n^2). Value, witness and ``per_m`` equal that enumeration's first
    strict maximum, so this returns ``forwarding_strategy_success(n)``.
    """
    return forwarding_strategy_success(n)
