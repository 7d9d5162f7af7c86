"""The n-party parity game played through a process matrix.

Each of the n parties holds a uniform input bit ``a_i`` and must produce an
outcome bit ``x_i``; a shared uniform variable ``m`` names the party whose
outcome must equal the parity of everyone else's input. Every party is
locally classical, so its behavior is an integer conditional table, valid
by construction: :class:`LocalBehavior` is the one place that checks wires
and normalization, and no evaluator builds an operator. Every evaluator
reads a table set through one view, its non-zero ``(x, o, weight)``
entries per input value, and runs on the process's uniform mixture of
circular channels. The exact outcome distribution, and the game value of
a caller's strategy, walk each loop party by party, carrying the weight
of each partial path by its input value and outcomes, so an outcome
distribution costs as much as the paths it walks, not 2^n, and is
returned on its support. That game value contracts only the signed half
of the win indicator, since a valid process gives the other half total
probability one. The default strategy, the paper's, signals
deterministically around every loop, so its value is read off the
parity of each loop's flips on each guesser's path (:func:`_path_parity`)
with no behavior dealt and no walk. The Monte-Carlo sampler has two
routes. For the default strategy it replays each shot's draws and reads
the shot's result off the same path parity. For a caller's strategy it
compiles each loop, once per call, into jump tables over runs of parties
and over the tables each drawing party can deal, and reads them shot by
shot, walking all of the guesser's start values in one pass. Every route
yields certain winning for the strategies built here, for every n >= 3.

In the winning strategy a party's tables depend only on its class (its
wire widths, the bits its output and input factors read, and whether it
starts the loop) and its input bit. The sampler and the walked game
value get their behaviors from one :func:`_dealer` per call, the one
place that holds the behavior budget and the default strategy: it
builds each behavior once per party and class for the call, at most 8n
of them. The walked game value shares each party's signed sums among
the parties and referee values that deal equal tables. Every memo lives
for one call.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
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
    if m == n - 2:
        return "ignore"
    odd_loops = _path_parity(n)
    for code in ("first", "second", "both"):
        if not odd_loops(m, _CODE_MASKS[code]):
            return code
    raise AssertionError(f"no consistent wide-register code for n={n}, m={m}")


def _wide_mask(n: int, m: int) -> int | None:
    """The bits of the wide register that :func:`wide_code` reads for
    referee value m, or None at odd n and where the code ignores it."""
    return _CODE_MASKS.get(wide_code(n, m)) if n % 2 == 0 else None


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


def _dealer(n: int, strategy: Strategy | None) -> Callable[[int, int, int], LocalBehavior]:
    """``deal(m, i, a_i)``: party i's behavior for referee value m and input
    bit a_i, for one sample or walked game value of n parties.

    It refuses, before any behavior is built, a party count the game
    cannot be played with and the 2n^2 behaviors (n referee values, n
    parties, two input bits) that reach the work budget. A caller's
    strategy is asked once per deal, its answer checked to sit on party
    i's wires. The default answers as :func:`winning_behavior` does, but
    builds each behavior once per party and class (widths included: the
    wide sender and the wide receiver have tables of the same length) and
    input bit, on the party's own layout, so an evaluation builds at most
    8n behaviors instead of 2n^2. The memo lives as long as ``deal``: one
    evaluator call."""
    _check_game_size(n)
    refuse_over_budget("game", n, 2 * n * n, "local behaviors")
    layouts = [_party_layout(n, i) for i in range(n)]
    if strategy is not None:
        return lambda m, i, a_i: _check_layout(strategy(n, m, i, a_i), i, layouts[i])
    built: dict[tuple, LocalBehavior] = {}

    def deal(m: int, i: int, a_i: int) -> LocalBehavior:
        key = (i, *_winning_class(n, m, i), a_i)
        behavior = built.get(key)
        if behavior is None:
            behavior = built[key] = LocalBehavior(i, layouts[i], *_winning_tables(*key[1:]))
        return behavior

    return deal


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
    :func:`_path_parity` finds that parity even. The loops are a uniform
    mixture over a GF(2) subspace, on which the parity is linear, so
    ``per_m`` is 1 when no loop is odd and exactly 1/2 otherwise; it is 1
    at every m for every n >= 3. That route deals no behavior and walks
    nothing: given each m's :func:`wide_code`, it takes O(n · loops)
    steps, so it answers up to the loop decomposition's budget, n = 725.

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
        odd_loops = _path_parity(n)
        per_m = tuple(Fraction(1) if odd_loops(m, _wide_mask(n, m)) == 0 else Fraction(1, 2)
                      for m in range(n))
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


_RUN_LENGTH = 4
"""Most parties one jump table of :func:`sample_game` composes: a run of L
parties has ``2**L`` entries per loop, one per value of their input bits."""


def _compile_behavior(behavior: LocalBehavior) -> tuple:
    """Sampling form of a behavior: ``(digits, den, bits, xss, oss)``.

    ``xss[j]`` and ``oss[j]`` give, by input value, the outcomes and the
    outputs of the j-th deterministic table the behavior can deal: every
    combination of the choices of :meth:`LocalBehavior.outcome_lookup`,
    the first input value's choice most significant. ``digits`` lists, for
    each input value with several choices, ``(radix, cum)``: the number of
    choices and their cumulative weights over ``den``. A draw ``r`` below
    ``den``, read off ``getrandbits(bits)`` with ``bits =
    den.bit_length()``, picks choice ``bisect(cum, r)``, and the picks,
    read as mixed-radix digits, index the table dealt. A behavior with one
    choice at every input value has no ``digits`` and one table.
    """
    lookup, log2den = behavior.outcome_lookup()
    digits = tuple((len(choices), list(accumulate(num for _, _, num in choices)))
                   for choices in lookup if len(choices) > 1)
    dealt = list(product(*lookup))
    xss = [tuple(x for x, _, _ in table) for table in dealt]
    oss = [tuple(o for _, o, _ in table) for table in dealt]
    den = 1 << log2den
    return digits, den, den.bit_length(), xss, oss


def _jump_table(steps: tuple[tuple[tuple[int, ...], ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Composed steps of a run of parties, keyed by their input bits.

    ``steps[j][a]`` maps the run's j-th party's input value to the next
    party's for input bit a. Entry ``key`` of the result maps the first
    party's input value to the input value after the run, each party's
    bit read from ``key``, the first party's most significant."""
    size = len(steps)
    table = []
    for key in range(1 << size):
        chosen = [pair[(key >> (size - 1 - j)) & 1] for j, pair in enumerate(steps)]
        composed = []
        for start in range(len(chosen[0])):
            v = start
            for step in chosen:
                v = step[v]
            composed.append(v)
        table.append(tuple(composed))
    return tuple(table)


def _compile_referee_value(n: int, m: int, deal: Callable[[int, int, int], LocalBehavior],
                           flips: Sequence[tuple[int, ...]],
                           behaviors: dict, jumps: dict) -> tuple:
    """Referee value m compiled for the shot loop of :func:`sample_game`.

    Position k is party ``(m + k) % n``: a consistent assignment is a
    fixed point of the walk around the loop read at any party, so walks
    start at the guesser's input. With the packed inputs rotated left by
    m, position k's bit sits at shift ``n - 1 - k``. Consecutive positions
    at which neither input bit draws form runs of at most ``_RUN_LENGTH``;
    every other position is a run of its own.

    Returns ``(guess, starts, per_loop)``. ``guess[a]`` is the guesser's
    outcome by input value, for input bit a, or None where that bit draws.
    ``starts`` is ``range(0, 2**w, 2)`` for the guesser's input width w:
    the first of each pair of start values a shot walks as two lanes.
    ``per_loop[loop]`` is ``(runs, drawers)``. ``runs`` lists, in position
    order, ``(shift, mask, table)``: the run's bits are ``(rotated >>
    shift) & mask`` and ``table`` maps them to the run's composed step,
    the loop's edge flips folded in. A drawing party's run has a table of
    its own for this m and loop, a two-slot list by input bit: a bit that
    does not draw holds its fixed step, a bit that draws None until a
    shot writes the step it deals. ``drawers`` lists, in party order,
    ``(r, shift, slots, per_bit)`` for the drawing party at run r, with
    ``slots`` that run's table. ``per_bit[a]`` is None where bit a does
    not draw, and otherwise ``(digits, den, bits, steps, xss)``: the draws
    of :func:`_compile_behavior` and, per dealt table, its step and
    outcomes.

    ``deal`` is the calling sample's :func:`_dealer`. ``behaviors`` and
    ``jumps`` are its memos, keyed by content: a behavior's tables,
    denominator and party (the dealer puts it on the party's layout, so
    the party stands for it), and a run's steps. Each outcome lookup runs
    on the first sight of its content.
    """
    order = [(m + k) % n for k in range(n)]
    dealt = [None] * n
    for i in range(n):
        per_bit = []
        for a in (0, 1):
            behavior = deal(m, i, a)
            key = (behavior.tables, behavior.log2den, i)
            if key not in behaviors:
                behaviors[key] = _compile_behavior(behavior)
            per_bit.append(behaviors[key])
        dealt[(i - m) % n] = per_bit
    spans = []  # [first position, length, draws]
    for k, per_bit in enumerate(dealt):
        draws = any(digits for digits, *_ in per_bit)
        if draws or not spans or spans[-1][2] or spans[-1][1] == _RUN_LENGTH:
            spans.append([k, 1, draws])
        else:
            spans[-1][1] += 1
    drawing = sorted((order[k], r) for r, (k, _, draws) in enumerate(spans) if draws)
    per_loop = []
    for edge in flips:
        runs = []
        for k, size, draws in spans:
            steps = tuple(
                tuple(None if digits else tuple(o ^ edge[order[j]] for o in oss[0])
                      for digits, _, _, _, oss in dealt[j])
                for j in range(k, k + size)
            )
            if draws:
                table = list(steps[0])
            elif steps in jumps:
                table = jumps[steps]
            else:
                table = jumps[steps] = _jump_table(steps)
            runs.append((n - k - size, (1 << size) - 1, table))
        drawers = []
        for i, r in drawing:
            flip = edge[i]
            per_bit = tuple(
                (digits, den, bits, [tuple(o ^ flip for o in os) for os in oss], xss)
                if digits else None
                for digits, den, bits, xss, oss in dealt[spans[r][0]]
            )
            shift, _, slots = runs[r]
            drawers.append((r, shift, slots, per_bit))
        per_loop.append((runs, drawers))
    guess = [None if digits else xss[0] for digits, _, _, xss, _ in dealt[0]]
    starts = range(0, 1 << _widths(n, m)[1], 2)
    return guess, starts, per_loop


def _draw_plan(n: int, m: int, deal: Callable[[int, int, int], LocalBehavior],
               odd_loops: Callable[[int, int | None], int], behaviors: dict) -> tuple:
    """Referee value m planned for the default strategy's shots in
    :func:`sample_game`: ``(odd, drawers)``.

    ``odd`` is :func:`_path_parity`'s answer for m: a shot on loop k loses
    iff bit k is set. ``drawers`` lists each drawing party, in party
    order, as ``(shift, per_bit)``: its input bit is ``(a_idx >> shift) &
    1``, and ``per_bit[a]`` is ``(draws, den, bits)`` from
    :func:`_compile_behavior`, or None where bit a does not draw. Only
    even n draws: the wide sender's don't-care output bit, and at m = n -
    2 the wide receiver's outcome. ``behaviors`` is the calling sample's
    memo by behavior; its dealer deals each behavior once per class.
    """
    drawers = []
    for i in range(n):
        per_bit = []
        for a in (0, 1):
            behavior = deal(m, i, a)
            if behavior not in behaviors:
                digits, den, bits, _, _ = _compile_behavior(behavior)
                behaviors[behavior] = (len(digits), den, bits) if digits else None
            per_bit.append(behaviors[behavior])
        if per_bit != [None, None]:
            drawers.append((n - 1 - i, tuple(per_bit)))
    return odd_loops(m, _wide_mask(n, m)), drawers


def sample_game(n: int, shots: int, seed: int,
                strategy: Strategy | None = None) -> SampleResult:
    """Estimate the game value by simulating the circular-channel mixture.

    Each shot draws m, the inputs, one loop, and one deterministic function
    table per party, then counts the loop-consistent assignments and how
    many of them win. The count is an unbiased weight: averaged over shots
    it estimates the exact success probability. Each shot draws m below n,
    ``getrandbits(n)`` for the inputs, a loop below the loop count, then,
    party by party and input value by input value, one draw below the
    behavior's ``2**log2den`` per input value with several choices. A draw
    below b is ``getrandbits(b.bit_length())``, redrawn while it is ``>=
    b``: the stream ``randrange(b)`` gives, without its call frames.

    The default strategy, :func:`winning_behavior`, is built once per party
    and class for the call (at most 8n behaviors) and is not walked. Its
    starter sends its bare input bit, which cuts each loop, so every shot
    has exactly one consistent assignment, and it wins iff the loop's flips
    on the guesser's path have even parity. The first shot that draws a
    given m plans it (:func:`_draw_plan`); a shot replays the draws, whose
    values cannot change it, and reads the result off :func:`_path_parity`.

    A caller's strategy, :func:`winning_behavior` passed explicitly
    included, is walked; the tests hold the two routes equal. The first
    shot that draws a given m compiles it (:func:`_compile_referee_value`),
    asking the strategy for both input bits of every party, so a behavior
    on the wrong wires (``LayoutError``), or a strategy that builds a
    malformed one (the :class:`LocalBehavior` constructor's
    ``ValueError``), raises on that shot, whichever bits it draws.
    Compiling cuts the walk around each loop into jump tables: runs of up
    to four consecutive parties that never draw become one table per loop,
    which maps the run's input bits to its composed step, and every
    drawing party gets the precompiled step and outcomes of each table it
    can deal. A shot maps each draw to its choice by bisection, so its
    cost does not grow with the behaviors' denominators, and writes the
    dealt step into its run's slot for the drawn input bit. It then walks
    the guesser's start values in pairs, two lanes from ``c`` and ``c +
    1``, reading each run's step once per pair: one pass, or two for the
    wide receiver's four values at ``m = n - 1``. A start value the walk
    returns to is a consistent assignment, and it wins when the guesser's
    outcome there is the parity of the other inputs. Tables are shared by
    content within the call and kept by none across calls.

    Raises ``ValueError`` up front for a negative seed (``random.Random``
    seeds -s like s, so it would alias a positive seed) and when the 2n^2
    behaviors it may ask for reach 2^(WORK_BUDGET_LOG2 + 1).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    deal = _dealer(n, strategy)
    flips = [loop.edge_flips for loop in loop_decomposition(n)]
    nloops = len(flips)
    n_bits, loop_bits = n.bit_length(), nloops.bit_length()
    full = (1 << n) - 1
    getrandbits = random.Random(seed).getrandbits
    replay = strategy is None
    odd_loops = _path_parity(n) if replay else None
    compiled: list = [None] * n
    behaviors: dict = {}
    jumps: dict = {}
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
        plan = compiled[m]
        if plan is None:
            plan = compiled[m] = (
                _draw_plan(n, m, deal, odd_loops, behaviors) if replay
                else _compile_referee_value(n, m, deal, flips, behaviors, jumps))
        per_m_shots[m] += 1
        if replay:
            odd, drawers = plan
            for shift, per_bit in drawers:
                drawn = per_bit[(a_idx >> shift) & 1]
                if drawn is not None:
                    draws, den, bits = drawn
                    for _ in range(draws):
                        d = getrandbits(bits)
                        while d >= den:
                            d = getrandbits(bits)
            if (odd >> loop) & 1:
                losses += 1
            else:
                per_m_wins[m] += 1
            continue
        guess, starts, per_loop = plan
        runs, drawers = per_loop[loop]
        rotated = ((a_idx << m) | (a_idx >> (n - m))) & full
        bit = rotated >> (n - 1)
        xs = guess[bit]
        for r, shift, slots, per_bit in drawers:
            a = (rotated >> shift) & 1
            drawn = per_bit[a]
            if drawn is not None:
                digits, den, bits, steps, xss = drawn
                j = 0
                for radix, cum in digits:
                    d = getrandbits(bits)
                    while d >= den:
                        d = getrandbits(bits)
                    j = j * radix + bisect(cum, d)
                slots[a] = steps[j]
                if r == 0:
                    xs = xss[j]
        target = (a_idx.bit_count() - bit) & 1
        for c in starts:
            v0 = c
            v1 = c + 1
            for shift, mask, table in runs:
                step = table[(rotated >> shift) & mask]
                v0 = step[v0]
                v1 = step[v1]
            if v0 == c:
                if xs[v0] == target:
                    per_m_wins[m] += 1
                else:
                    losses += 1
            if v1 == c + 1:
                if xs[v1] == target:
                    per_m_wins[m] += 1
                else:
                    losses += 1
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
