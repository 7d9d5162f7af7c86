"""The n-party parity game played through a process matrix.

Each of the n parties holds a uniform input bit ``a_i`` and must produce an
outcome bit ``x_i``; a shared uniform variable ``m`` names the party whose
outcome must equal the parity of everyone else's input. Every party is
locally classical, so its behavior is an integer conditional table, valid
by construction: :class:`LocalBehavior` is the one place that checks wires
and normalization, and no evaluator builds an operator. Every evaluator
reads a table set through one view, its non-zero ``(x, o, weight)``
entries per input value, and runs on the process's uniform mixture of
circular channels. One contraction, :func:`_walk`, walks each loop party
by party, carrying the weight of each partial path by its input value
and outcomes, so an outcome distribution costs as much as the paths it
walks, not 2^n, and is returned on its support. It serves the exact
outcome distribution, the game value of a caller's strategy, which
contracts only the signed half of the win indicator since a valid
process gives the other half total probability one, and the sampler's
shots of a caller's strategy, each the dealt deterministic tables
walked around the shot's loop. The default strategy, the paper's,
signals deterministically around every loop, so whether it wins is read
off the parity of each loop's flips on each guesser's path
(:func:`_losing_loops`) with no behavior dealt and no walk: the game
value from that parity, and each sampled shot from it and the shot's
referee value and loop alone. Every route yields certain winning for
the strategies built here, for every n >= 3.

In the winning strategy a party's tables depend only on its class (its
wire widths, the bits its output and input factors read, and whether it
starts the loop) and its input bit. A caller's strategy reaches the
sampler and the walked game value through one :func:`_dealer` per call,
the one place that holds the behavior budget. The walked game value
shares each party's signed sums among the parties and referee values
that deal equal tables. Every memo lives for one call.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import Callable, NamedTuple, Sequence

from .diagop import LayoutError, Wire, WireLayout, _spare_twos, dyadic_json, fraction_json
from .process import (
    ProcessMatrix,
    UnsupportedPartyCount,
    _widths,
    loop_decomposition,
    refuse_over_budget,
)

__all__ = [
    "GameRound",
    "LocalBehavior",
    "GameResult",
    "SampleResult",
    "RNG_NAME",
    "wide_code",
    "winning_behavior",
    "behavior_from_table",
    "outcome_distribution",
    "success_probability_exact",
    "sample_game",
]

RNG_NAME = "mt19937"

Strategy = Callable[[int, int, int, int], "LocalBehavior"]


class _GameRound(NamedTuple):
    n: int
    m: int
    inputs: tuple[int, ...]


class GameRound(_GameRound):
    """One game instance: party count, referee value m, input bits.

    ``inputs`` is stored as a tuple, whatever sequence is given. Every path
    to a round (the constructor, ``_make``, ``_replace``, copy and pickle)
    checks it.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, inputs: Sequence[int]):
        inputs = tuple(inputs)
        _check_game_size(n)
        if not 0 <= m < n:
            raise ValueError(f"m must lie in 0..{n - 1}, got {m}")
        if len(inputs) != n:
            raise ValueError(f"need {n} input bits, got {len(inputs)}")
        if any(a not in (0, 1) for a in inputs):
            raise ValueError("inputs must be bits")
        return super().__new__(cls, n, m, inputs)

    @classmethod
    def _make(cls, iterable) -> GameRound:
        return cls(*iterable)

    @property
    def target(self) -> int:
        """Parity of all inputs except party m's own."""
        return (sum(self.inputs) - self.inputs[self.m]) & 1


class LocalBehavior:
    """One party's locally classical behavior: the conditional table
    ``P(X_i = x, O_i = o | I_i = v)`` on its wires ``(O_i, I_i)``.

    ``tables[x][(o << wi) | v]``, for x = 0, 1 and ``wi`` the width of
    ``I_i``, is that probability as an integer numerator over
    ``2**log2den``. A behavior is valid by construction: the constructor
    refuses a layout other than the party's own ``(O_i, I_i)``
    (``LayoutError``), a negative entry, and an input value whose entries
    do not sum to ``2**log2den`` over x and o (``ValueError``). It reduces
    ``log2den`` to the smallest exponent, so equal behaviors have equal
    tables.
    """

    __slots__ = ("party", "layout", "tables", "log2den")

    def __init__(self, party: int, layout: WireLayout,
                 tables: Sequence[Sequence[int]], log2den: int = 0):
        if [(w.party, w.kind) for w in layout.wires] != [(party, "O"), (party, "I")]:
            raise LayoutError(f"party {party} behavior must sit on its wires "
                              f"(O{party}, I{party}), got {layout}")
        tables = tuple(tuple(t) for t in tables)
        if len(tables) != 2:
            raise ValueError(f"need one table per outcome x = 0, 1, got {len(tables)}")
        size = 1 << layout.width
        if any(len(t) != size for t in tables):
            raise LayoutError(f"behavior tables on {layout} need {size} entries")
        if log2den < 0:
            raise ValueError(f"log2den must be >= 0, got {log2den}")
        inputs = 1 << layout.wires[1].width
        for v in range(inputs):
            column = [t[j] for t in tables for j in range(v, size, inputs)]
            if min(column) < 0:
                raise ValueError(f"behavior of party {party} has a negative weight "
                                 f"at input {v}")
            if sum(column) != 1 << log2den:
                raise ValueError(f"behavior of party {party} is not normalized "
                                 f"at input {v}")
        shift = _spare_twos((v for t in tables for v in t), log2den)
        if shift:
            tables = tuple(tuple(v >> shift for v in t) for t in tables)
        self.party = party
        self.layout = layout
        self.tables = tables
        self.log2den = log2den - shift

    def outcome_lookup(self) -> tuple[list[list[tuple[int, int, int]]], int]:
        """Sampling view: per input value, the (x, o, weight) choices of
        non-zero weight, x then o ascending (:func:`_nonzero_entries`), and
        ``log2den``. The weights are the table's numerators and sum to
        ``2**log2den``."""
        return _nonzero_entries(self.tables, self.layout.wires[1].width), self.log2den


def _nonzero_entries(tables: Sequence[Sequence[int]], wi: int
                     ) -> list[list[tuple[int, int, int]]]:
    """Per input value v, the ``(x, o, weight)`` entries of non-zero weight
    of a table set indexed like :class:`LocalBehavior`'s, ``tables[x][(o
    << wi) | v]``, x then o ascending."""
    inputs = 1 << wi
    return [[(x, j >> wi, p) for x, table in enumerate(tables)
             for j in range(v, len(table), inputs) if (p := table[j])]
            for v in range(inputs)]


def _check_game_size(n: int) -> None:
    """Refuse the party counts the parity game cannot be played with."""
    if n == 2:
        raise UnsupportedPartyCount("the parity game has no 2-party strategy")
    if n < 2:
        raise ValueError(f"party count must be >= 2, got {n}")


def _party_layout(n: int, i: int) -> WireLayout:
    """Party i's wires ``(O_i, I_i)``, of the widths :func:`_widths` gives."""
    wo, wi = _widths(n, i)
    return WireLayout([Wire(i, "O", wo), Wire(i, "I", wi)])


def _check_layout(behavior: LocalBehavior, i: int, layout: WireLayout) -> LocalBehavior:
    """The behavior, once it is known to sit on party i's wires."""
    if behavior.layout != layout:
        raise LayoutError(f"party {i} behavior must sit on {layout}, "
                          f"got {behavior.layout}")
    return behavior


def _parity_factor(width: int, mask: int | None, bit: int) -> list[int]:
    """Numerators of ``1 + (-1)**bit Z_mask`` on a ``width``-bit wire,
    value by value: 2 where the parity of the masked bits is ``bit`` and 0
    elsewhere; the bare identity, 1 everywhere, when ``mask`` is None."""
    if mask is None:
        return [1] * (1 << width)
    return [2 * ((v & mask).bit_count() & 1 == bit) for v in range(1 << width)]


_CODE_MASKS = {"first": 0b10, "second": 0b01, "both": 0b11}


def _path_parity(n: int) -> Callable[[int, int | None], int]:
    """``odd_loops(m, mask)``: an integer with bit k set iff the flips of
    loop k of :func:`~acausal.process.loop_decomposition` on guesser m's
    path have odd parity, that is, iff the winning strategy loses on loop
    k at referee value m.

    The starter ``(m + 1) % n`` sends its bare input bit, which cuts the
    loop, so each tuple of dealt tables has exactly one consistent
    assignment (the unique fixed point of Baumeler & Wolf, NJP 18, 013036,
    2016), and the guesser reads the target XOR these flips. The path ends
    at m and runs through every receiver but the starter. At even n the
    wide receiver ``n - 1`` counts only the bits of its input flip that
    ``mask`` reads, the bits its wide code decodes; elsewhere ``mask`` is
    not read. The parity of each loop's single-bit flips is summed once,
    here; each ``odd_loops`` call takes out the edge into the starter,
    edge m, and adds the masked wide flip unless the wide receiver starts,
    so it costs O(1) per loop. Nothing else sums path flips.
    """
    flips = [loop.edge_flips for loop in loop_decomposition(n)]
    wide = n - 2 if n % 2 == 0 else None  # the edge into the wide receiver
    singles = [(sum(f) - (f[wide] if wide is not None else 0)) & 1 for f in flips]

    def odd_loops(m: int, mask: int | None) -> int:
        odd = 0
        for index, (f, parity) in enumerate(zip(flips, singles)):
            if m != wide:
                parity ^= f[m]
                if wide is not None:
                    parity ^= (f[wide] & mask).bit_count() & 1
            odd |= parity << index
        return odd

    return odd_loops


@lru_cache(maxsize=None)
def wide_code(n: int, m: int) -> str:
    """How the wide-register pair encodes its bit for a given m (even n).

    The second-to-last party writes onto the first, the second, or both
    bits of its doubled output; the choice must make the accumulated loop
    flips cancel on the path that ends at party m. The mapping is found by
    checking the (at most three) candidate codes against the derived loop
    set with :func:`_path_parity` rather than assumed; when the path
    avoids the wide edge entirely the register is ignored.
    """
    if n % 2 or n < 4:
        raise ValueError(f"wide_code needs an even n >= 4, got {n}")
    if not 0 <= m < n:
        raise ValueError(f"m must lie in 0..{n - 1}, got {m}")
    return _choose_code(n, m, _path_parity(n))


def _choose_code(n: int, m: int, odd_loops: Callable[[int, int | None], int]) -> str:
    """:func:`wide_code` for an even n, checked against ``odd_loops``, the
    :func:`_path_parity` of n, so a caller holding it sums no loop again."""
    if m == n - 2:
        return "ignore"
    for code in ("first", "second", "both"):
        if not odd_loops(m, _CODE_MASKS[code]):
            return code
    raise AssertionError(f"no consistent wide-register code for n={n}, m={m}")


def _wide_mask(n: int, m: int, odd_loops: Callable[[int, int | None], int] | None = None
               ) -> int | None:
    """The bits of the wide register that :func:`wide_code` reads for
    referee value m, or None at odd n and where the code ignores it; chosen
    with ``odd_loops`` when it is given, by the cached ``wide_code``
    otherwise."""
    if n % 2:
        return None
    return _CODE_MASKS.get(wide_code(n, m) if odd_loops is None else _choose_code(n, m, odd_loops))


def _losing_loops(n: int) -> list[int]:
    """Per referee value m, the winning strategy's :func:`_path_parity`
    answer with m's wide code: bit k is set iff the strategy loses on loop
    k at m. One path-parity sum serves every m; the default game value and
    the default sampler both read this list."""
    odd_loops = _path_parity(n)
    return [odd_loops(m, _wide_mask(n, m, odd_loops)) for m in range(n)]


def _winning_class(n: int, m: int, i: int) -> tuple[int, int, int | None, int | None, bool]:
    """Party i's class in the winning strategy for referee value m:
    ``(wo, wi, o_mask, i_mask, starter)``, its wire widths, the bits its
    output and input factors read, and whether it starts the loop."""
    starter = i == (m + 1) % n
    wo, wi = _widths(n, i)
    o_mask = _wide_mask(n, m) if wo == 2 else 0b1
    i_mask = 0b1 if wi == 1 else None if starter else _wide_mask(n, m)
    return wo, wi, o_mask, i_mask, starter


def _winning_tables(wo: int, wi: int, o_mask: int | None, i_mask: int | None,
                    starter: bool, a_i: int) -> tuple[list[list[int]], int]:
    """The winning behavior's tables and ``log2den`` for one class (see
    :func:`_winning_class`) and input bit: per outcome x, the product of
    the output factor ``(1 + (-1)**send Z) / 2**|O_i|`` and the input
    factor ``(1 + (-1)**x Z) / 2``, each a :func:`_parity_factor` on a 1-
    or 2-bit wire. The starter sends its bare input bit, every other party
    ``a_i XOR x``."""
    tables = []
    for x in (0, 1):
        out = _parity_factor(wo, o_mask, a_i if starter else a_i ^ x)
        inp = _parity_factor(wi, i_mask, x)
        tables.append([f * g for f in out for g in inp])
    return tables, wo + 1


@lru_cache(maxsize=None)
def winning_behavior(n: int, m: int, i: int, a_i: int) -> LocalBehavior:
    """The local behavior with which the parity game is won with certainty.

    Every party reads its outcome bit off its input and forwards
    ``a_i XOR x_i``, except the party right after the designated guesser,
    which injects its bare input bit into the loop. For even n the two
    wide-register parties encode/decode through the bits selected by
    :func:`wide_code`. The tables depend only on the party's class and
    input bit; :func:`_winning_tables` builds them.
    """
    _check_game_size(n)
    if not 0 <= m < n:
        raise ValueError(f"m must lie in 0..{n - 1}, got {m}")
    if not 0 <= i < n:
        raise ValueError(f"party index must lie in 0..{n - 1}, got {i}")
    if a_i not in (0, 1):
        raise ValueError("a_i must be a bit")
    return LocalBehavior(i, _party_layout(n, i), *_winning_tables(*_winning_class(n, m, i), a_i))


def _dealer(n: int, strategy: Strategy) -> Callable[[int, int, int], LocalBehavior]:
    """``deal(m, i, a_i)``: party i's behavior from a caller's strategy for
    referee value m and input bit a_i, for one sample or walked game value
    of n parties.

    It refuses, before any behavior is built, a party count the game
    cannot be played with and the 2n^2 behaviors (n referee values, n
    parties, two input bits) that reach the work budget. The strategy is
    asked once per deal, its answer checked to sit on party i's wires."""
    _check_game_size(n)
    refuse_over_budget("game", n, 2 * n * n, "local behaviors")
    layouts = [_party_layout(n, i) for i in range(n)]
    return lambda m, i, a_i: _check_layout(strategy(n, m, i, a_i), i, layouts[i])


def behavior_from_table(party: int, o_width: int, i_width: int,
                        table: Sequence[tuple[int, int]]) -> LocalBehavior:
    """Deterministic behavior from an explicit function table ``v -> (x, o)``."""
    if len(table) != 1 << i_width:
        raise ValueError(f"table must cover all {1 << i_width} input values")
    layout = WireLayout([Wire(party, "O", o_width), Wire(party, "I", i_width)])
    tables = [[0] * (1 << layout.width) for _ in (0, 1)]
    for v, (x, o) in enumerate(table):
        if x not in (0, 1) or not 0 <= o < 1 << o_width:
            raise ValueError(f"table entry {v} needs a bit x and a {o_width}-bit o")
        tables[x][(o << i_width) | v] = 1
    return LocalBehavior(party, layout, tables)


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def _walk(entries: Sequence[Sequence[Sequence[tuple[int, int, int]]]],
          flips: Sequence[int]) -> dict[int, int]:
    """One table per party contracted around one loop, kept by outcome
    string: the trace of the product of the parties' transfer matrices,
    taken one start value at a time. This is the sum-product recursion on
    a cycle (Kschischang, Frey & Loeliger, IEEE Trans. Inf. Theory 47,
    2001).

    ``entries[i]`` is party i's :func:`_nonzero_entries`, and ``flips[i]``
    the flip on the loop's edge out of party i. For each input value ``v0``
    of party 0, a frontier ``{(input value, outcome prefix): weight}``
    moves from party to party through the entries at each input value,
    the output flipped into the next party's input; the entries back at
    ``v0`` are kept. Returns, per outcome string packed with party 0's
    outcome most significant, the summed integer weight. The work grows
    with the frontier, not with the 2^n outcome strings.
    """
    total: dict[int, int] = {}
    for v0 in range(len(entries[0])):
        frontier = {(v0, 0): 1}
        for choices, flip in zip(entries, flips):
            step: dict[tuple[int, int], int] = {}
            for (v, prefix), weight in frontier.items():
                prefix <<= 1
                for x, o, p in choices[v]:
                    key = (o ^ flip, prefix | x)
                    step[key] = step.get(key, 0) + weight * p
            frontier = step
        for (v, packed), weight in frontier.items():
            if v == v0:
                total[packed] = total.get(packed, 0) + weight
    return total


def outcome_distribution(
    w: ProcessMatrix,
    behaviors: Sequence[LocalBehavior],
) -> dict[tuple[int, ...], Fraction]:
    """Exact joint outcome distribution P(x_0..x_{n-1}) on its support.

    ``w`` is the circular process :func:`~acausal.process.build_w` returns
    for ``w.n`` parties; only ``w.n`` is read, so no term is built, and it
    is evaluated on its loop mixture, not contracted against its terms: one :func:`_walk` of the behaviors'
    non-zero entries per loop, the loops averaged uniformly. Every
    behavior is normalized and the process is valid, so the weights are
    positive and sum to 1. Only the outcomes of non-zero probability are
    returned, in ascending order. Raises ``LayoutError`` for a behavior
    that does not sit on the wires of the party at its position, and
    ``ValueError`` before any walk when the walk's paths, ``min(2^n, prod_p
    max_v #entries of party p at v)``, reach 2^(WORK_BUDGET_LOG2 + 1).
    """
    n = w.n
    if len(behaviors) != n:
        raise ValueError(f"need {n} behaviors, got {len(behaviors)}")
    for i, beh in enumerate(behaviors):
        _check_layout(beh, i, _party_layout(n, i))
    lookups = [beh.outcome_lookup() for beh in behaviors]
    entries = [lookup for lookup, _ in lookups]
    paths = prod(max(map(len, lookup)) for lookup in entries)
    refuse_over_budget("outcome distribution", n, min(1 << n, paths), "walk paths")
    loops = loop_decomposition(n)
    total = Counter()
    for loop in loops:
        total.update(_walk(entries, loop.edge_flips))
    den = len(loops) << sum(k for _, k in lookups)
    return {
        tuple((packed >> (n - 1 - i)) & 1 for i in range(n)): Fraction(weight, den)
        for packed, weight in sorted(total.items())
    }


def _signed_sums(b0: LocalBehavior, b1: LocalBehavior, guesser: bool
                 ) -> tuple[tuple[int, ...], int]:
    """One party's factor in :func:`success_probability_exact`, from its
    behaviors for input bits 0 and 1: its four tables summed with signs, by
    x for the guesser and by a_i for the others, and the common
    ``log2den``."""
    k = max(b0.log2den, b1.log2den)
    (u0, u1), (w0, w1) = ([[v << (k - b.log2den) for v in t] for t in b.tables]
                          for b in (b0, b1))
    signed = zip(u0, w0, u1, w1) if guesser else zip(u0, u1, w0, w1)
    return tuple(p + q - r - s for p, q, r, s in signed), k


def success_probability_exact(n: int, strategy: Strategy | None = None) -> "GameResult":
    """Exact per-m and overall success probabilities of a strategy family.

    The default strategy is :func:`winning_behavior`, valued by path
    parity: each of its loops is deterministic, and guesser m reads the
    target XOR the loop's flips on its path, so m wins on a loop iff
    :func:`_losing_loops` finds that parity even. The loops are a uniform
    mixture over a GF(2) subspace, on which the parity is linear, so
    ``per_m`` is 1 when no loop is odd and exactly 1/2 otherwise; it is 1
    at every m for every n >= 3. That route deals no behavior and walks
    nothing: it sums the loops' flips once and picks each m's
    :func:`wide_code` from that one sum, so it takes O(n · loops) steps and
    answers up to the loop decomposition's budget, n = 5759 at odd n and
    n = 4694 at even n.

    A caller's strategy is walked. The win indicator ``[x_m = t]``, with
    ``t`` the parity of the other inputs, is ``(1 + (-1)^x_m * prod_{i !=
    m} (-1)^a_i) / 2``, and both halves factorise party by party. The
    first half is 1/2 for every strategy: each behavior is normalized (its
    constructor refuses any other), so a party's tables summed over its
    input bit and outcome are
    twice a normalized channel, and the loop mixture, a valid process,
    gives every tuple of normalized channels total probability 1; its
    chains sum to ``len(loops) << (n + log2den)``. Only the second half is
    contracted: per loop, one :func:`_walk` of the same sums signed by the
    guesser's outcome and by everyone else's input bit, each party's sums
    read as a table with the single outcome 0: ``per_m = 1/2 + signed /
    (len(loops) << (n + log2den + 1))``. The process's terms are never
    built.

    Within the call, each party's signed sums and their non-zero entries
    are kept per content of the pair of behaviors it is dealt and its
    input width, so equal parties share them. A caller's strategy is
    asked for all 2n^2 behaviors, and passing :func:`winning_behavior`
    itself takes this route, which the tests hold equal to path parity.
    Raises ``ValueError`` up front when those 2n^2 behaviors reach
    2^(WORK_BUDGET_LOG2 + 1), so a caller's strategy is refused from n =
    512.
    """
    if strategy is None:
        _check_game_size(n)
        per_m = tuple(Fraction(1) if odd == 0 else Fraction(1, 2) for odd in _losing_loops(n))
        return GameResult(n=n, per_m=per_m, p_succ=sum(per_m) / n)
    deal = _dealer(n, strategy)
    flips = [loop.edge_flips for loop in loop_decomposition(n)]
    folded: dict[tuple, tuple] = {}
    per_m = []
    for m in range(n):
        parties = []
        for i in range(n):
            b0, b1 = deal(m, i, 0), deal(m, i, 1)
            wi = b0.layout.wires[1].width
            key = (b0.tables, b0.log2den, b1.tables, b1.log2den, i == m, wi)
            factor = folded.get(key)
            if factor is None:
                diffs, k = _signed_sums(b0, b1, i == m)
                factor = folded[key] = _nonzero_entries((diffs,), wi), k
            parties.append(factor)
        entries = [e for e, _ in parties]
        signed = sum(_walk(entries, edge).get(0, 0) for edge in flips)
        log2den = sum(k for _, k in parties)
        per_m.append(Fraction(1, 2) + Fraction(signed, len(flips) << (log2den + n + 1)))
    return GameResult(n=n, per_m=tuple(per_m), p_succ=sum(per_m) / n)


class GameResult(NamedTuple):
    """Exact game value: one success probability per m and their average."""

    n: int
    per_m: tuple[Fraction, ...]
    p_succ: Fraction

    def to_json(self) -> dict:
        """JSON form. Each ``per_m`` entry is dyadic and written
        ``{"num", "log2den"}``. ``p_succ``, their mean over n, is written
        the same way when it is dyadic, as every result of the default
        strategy is, and as ``{"num", "den"}`` in lowest terms otherwise
        (per_m = (1/2, 1, 1) averages to 5/6)."""
        den = self.p_succ.denominator
        return {
            "n": self.n,
            "per_m": [dyadic_json(v) for v in self.per_m],
            "p_succ": (dyadic_json(self.p_succ) if not den & (den - 1)
                       else fraction_json(self.p_succ)),
        }


# ---------------------------------------------------------------------------
# Monte-Carlo sampling over the loop mixture
# ---------------------------------------------------------------------------

class SampleResult(NamedTuple):
    """Seeded sampling record; identical seeds give identical transcripts."""

    n: int
    shots: int
    seed: int
    rng: str
    wins: int
    losses: int
    per_m_wins: tuple[int, ...]
    per_m_shots: tuple[int, ...]

    @property
    def estimate(self) -> float:
        return self.wins / self.shots

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "shots": self.shots,
            "seed": self.seed,
            "rng": self.rng,
            "wins": self.wins,
            "losses": self.losses,
            "estimate": self.estimate,
            "per_m_wins": list(self.per_m_wins),
            "per_m_shots": list(self.per_m_shots),
        }


def _deal_form(behavior: LocalBehavior) -> tuple:
    """Sampling form of a behavior: ``(table, draws, den, bits)``.

    ``table`` is, by input value, a deterministic table in the entry form
    :func:`_walk` reads, ``[(x, o, 1)]``: the behavior's one choice, or
    its first where it has several. ``draws`` lists, for each input value
    v with several choices, ``(v, cum, dealt)``: the cumulative weights of
    the choices of :meth:`LocalBehavior.outcome_lookup` over ``den``, and
    each choice's entry. A draw ``r`` below ``den``, read off
    ``getrandbits(bits)`` with ``bits = den.bit_length()``, deals
    ``dealt[bisect(cum, r)]`` at v.
    """
    lookup, log2den = behavior.outcome_lookup()
    dealt = [[[(x, o, 1)] for x, o, _ in choices] for choices in lookup]
    draws = [(v, list(accumulate(p for _, _, p in choices)), dealt[v])
             for v, choices in enumerate(lookup) if len(choices) > 1]
    den = 1 << log2den
    return [entries[0] for entries in dealt], draws, den, den.bit_length()


def sample_game(n: int, shots: int, seed: int,
                strategy: Strategy | None = None) -> SampleResult:
    """Estimate the game value by simulating the circular-channel mixture.

    Each shot draws m below n, ``getrandbits(n)`` for the inputs and a
    loop below the loop count, in that order; a shot of a caller's
    strategy then draws the parties' choices. A draw below b is
    ``getrandbits(b.bit_length())``, redrawn while it is ``>= b``: the
    stream ``randrange(b)`` gives, without its call frames.

    The default strategy, :func:`winning_behavior`, draws nothing more
    and deals no behavior. Its starter sends its bare input bit, which cuts
    each loop, so every shot has exactly one consistent assignment, whatever
    the inputs and whatever a party with several choices would choose, and
    it loses iff bit ``loop`` of m's :func:`_losing_loops` is set. The
    inputs are still drawn: they are the referee's randomness, and the
    draw keeps the stream the walked route reads.

    A caller's strategy, :func:`winning_behavior` passed explicitly
    included, is walked; the tests hold the two routes equal. The first
    shot that draws a given m asks the strategy for both input bits of
    every party and keeps each behavior's :func:`_deal_form`, so a behavior
    on the wrong wires (``LayoutError``), or a strategy that builds a
    malformed one (the :class:`LocalBehavior` constructor's
    ``ValueError``), raises on that shot, whichever bits it draws. A shot
    deals each party its table, party by party and input value by input
    value, one draw below the behavior's ``2**log2den`` per input value
    with several choices, finding its choice by bisection over the
    cumulative weights. It contracts the dealt tables around its loop
    with :func:`_walk`, the one loop contraction of this module. Each
    outcome string it returns weighs as many consistent assignments as
    give it, and they win when the guesser's outcome there is the parity
    of the other inputs. The count is an unbiased weight: averaged over
    shots it estimates the exact success probability. Nothing is kept
    across calls.

    Raises ``ValueError`` up front for a negative seed (``random.Random``
    seeds -s like s, so it would alias a positive seed), for 2^19 or more
    shots of the default strategy, or ``shots * n`` walked party steps of a
    caller's, when the 2n^2 behaviors a caller's strategy may be asked for
    reach 2^(WORK_BUDGET_LOG2 + 1), and when the loop decomposition is
    refused, from n = 4696.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_game_size(n)
    if strategy is None:
        refuse_over_budget("sample", n, shots, "shots")
        losing = _losing_loops(n)
    else:
        refuse_over_budget("sample", n, shots * n, "walked party steps")
        deal = _dealer(n, strategy)
        losing = None
    flips = [loop.edge_flips for loop in loop_decomposition(n)]
    nloops = len(flips)
    n_bits, loop_bits = n.bit_length(), nloops.bit_length()
    getrandbits = random.Random(seed).getrandbits
    plans: list = [None] * n
    losses = 0
    per_m_wins = [0] * n
    per_m_shots = [0] * n
    for _ in range(shots):
        m = getrandbits(n_bits)
        while m >= n:
            m = getrandbits(n_bits)
        a_idx = getrandbits(n)
        loop = getrandbits(loop_bits)
        while loop >= nloops:
            loop = getrandbits(loop_bits)
        per_m_shots[m] += 1
        if losing is not None:
            if (losing[m] >> loop) & 1:
                losses += 1
            else:
                per_m_wins[m] += 1
            continue
        plan = plans[m]
        if plan is None:
            plan = plans[m] = [[_deal_form(deal(m, i, a)) for a in (0, 1)] for i in range(n)]
        tables = []
        for i, per_bit in enumerate(plan):
            table, draws, den, bits = per_bit[(a_idx >> (n - 1 - i)) & 1]
            if draws:
                table = table.copy()
                for v, cum, dealt in draws:
                    d = getrandbits(bits)
                    while d >= den:
                        d = getrandbits(bits)
                    table[v] = dealt[bisect(cum, d)]
            tables.append(table)
        shift = n - 1 - m
        target = (a_idx.bit_count() - ((a_idx >> shift) & 1)) & 1
        for packed, count in _walk(tables, flips[loop]).items():
            if (packed >> shift) & 1 == target:
                per_m_wins[m] += count
            else:
                losses += count
    return SampleResult(
        n=n,
        shots=shots,
        seed=seed,
        rng=RNG_NAME,
        wins=sum(per_m_wins),
        losses=losses,
        per_m_wins=tuple(per_m_wins),
        per_m_shots=tuple(per_m_shots),
    )
