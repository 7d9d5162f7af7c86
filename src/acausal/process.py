"""Multi-party circular process matrices: construction, validation, loops.

A process matrix for n parties is the conditional distribution
``P(I_0..I_{n-1} | O_0..O_{n-1})`` describing everything outside the local
laboratories, constrained so that any choice of local operations yields a
normalized non-negative outcome distribution. The builder here produces,
for every party count n >= 3, a process matrix that is a uniform mixture
of deterministic circular channels and that no predefined causal order can
reproduce; for n = 2 no such construction exists and the builder refuses.

All wires are one bit, except that for even n the second-to-last party has
a two-bit output and the last party a two-bit input.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .diagop import (
    DiagOperator,
    LayoutError,
    Wire,
    WireLayout,
    _make,
    _span,
    channel_apply,
    from_dense,
    gf2_echelon,
    is_nonnegative,
    point_mass,
    to_dense,
)

__all__ = [
    "UnsupportedPartyCount",
    "ProcessMatrix",
    "LoopChannel",
    "BilinearCheck",
    "ValidationReport",
    "game_layout",
    "generator_group",
    "build_w",
    "naive_even_w",
    "validate_process",
    "conditional_distribution",
    "loop_decomposition",
    "loop_operator",
]


class UnsupportedPartyCount(ValueError):
    """Raised for party counts the construction provably cannot serve."""


def _widths(n: int, i: int) -> tuple[int, int]:
    """Widths of party i's wires ``(O_i, I_i)``: for even n the
    second-to-last party sends and the last party receives on two bits."""
    even = n % 2 == 0
    return (2 if even and i == n - 2 else 1), (2 if even and i == n - 1 else 1)


def game_layout(n: int) -> WireLayout:
    """Wires ``I_0..I_{n-1}, O_0..O_{n-1}`` of the widths :func:`_widths`
    gives."""
    widths = [_widths(n, k) for k in range(n)]
    return WireLayout([Wire(k, "I", wi) for k, (_, wi) in enumerate(widths)]
                      + [Wire(k, "O", wo) for k, (wo, _) in enumerate(widths)])


def _generators(n: int) -> list[int]:
    """The n - 1 generators of :func:`generator_group`, in the order whose
    span lists the group in its documented order."""
    if n % 2:
        return [(1 << k) | 1 for k in range(1, n)]
    width = n - 1
    lifted = [(b << 2) | ((b >> (width - 2)) & 0b11) for b in _generators(n - 1)]
    return lifted + [((1 << width) - 1) << 2]


@lru_cache(maxsize=None)
def generator_group(n: int) -> tuple[int, ...]:
    """Masks of the Abelian parity group that generates the n-party process.

    Odd n: all 2**(n-1) even-parity masks over n positions, ascending, the
    first position being the most significant bit.

    Even n: 2**(n-1) masks over n+1 bits, built from the odd (n-1)-party
    group: each element is ``(beta << 2) | prime`` where ``beta`` runs over
    the plain and the globally-flipped copy of an (n-1)-group mask and
    ``prime`` repeats that mask's first two positions on a doubled block.
    Either way it is the span of the n - 1 masks :func:`_generators` lists.
    Party counts below 3 are refused as :func:`build_w` refuses them.
    """
    _check_party_count(n)
    return tuple(_span(_generators(n)))


class ProcessMatrix:
    """The n-party circular process matrix, as a handle on n alone.

    Constructing it checks the party count and builds nothing else: the
    process is the group sum fixed by the n - 1 generators of
    :func:`generator_group`, so everything else is derived from n.
    ``layout`` and ``operator`` are derived on first read and kept on the
    handle; ``normalization``, the coefficient of every term, and the wire
    names are derived on each read. ``layout``, ``normalization`` (whose
    denominator has n | 1 bits) and the wire names are sized by the 2n
    wires, so each is refused from n >= 2^18, decided from n before
    anything is built. The handle is immutable and compares and hashes
    by n.
    """

    def __init__(self, n: int):
        _check_party_count(n)
        self.__dict__["n"] = n

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a ProcessMatrix")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a ProcessMatrix")

    def __eq__(self, other):
        if type(other) is not ProcessMatrix:
            return NotImplemented
        return self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"ProcessMatrix(n={self.n!r})"

    def _refuse_wires(self, what: str) -> None:
        refuse_over_budget(f"process {what}", self.n, 2 * self.n, "wires")

    @cached_property
    def layout(self) -> WireLayout:
        self._refuse_wires("layout")
        return game_layout(self.n)

    @cached_property
    def operator(self) -> DiagOperator:
        """The normalized sum of the generator group, each element placed
        once on the input side and once, cyclically shifted, on the output
        side. For even n the doubled block sits on the wide wires
        ``O_{n-2}`` and ``I_{n-1}`` and is not split. Placement only copies
        bits, so it is linear over GF(2): the terms are the span of the
        placed generators. The 2^(n-1) terms are refused from n >= 20,
        before any is built, by the work budget.
        """
        n = self.n
        # Decided from n: for a huge n, 1 << (n - 1) is itself a huge integer.
        if n - 1 > WORK_BUDGET_LOG2:
            raise _refusal("build_w", n, f"2^{n - 1} terms")
        k = n | 1  # bits per side: n at odd n, n + 1 at even n
        return _make(self.layout, dict.fromkeys(_span(_place(g, k) for g in _generators(n)), 1), k)

    @property
    def normalization(self) -> Fraction:
        self._refuse_wires("normalization")
        return Fraction(1, 1 << (self.n | 1))

    @property
    def input_wires(self) -> tuple[str, ...]:
        self._refuse_wires("input_wires")
        return tuple(f"I{k}" for k in range(self.n))

    @property
    def output_wires(self) -> tuple[str, ...]:
        self._refuse_wires("output_wires")
        return tuple(f"O{k}" for k in range(self.n))


def _place(g: int, k: int) -> int:
    """A group mask over k positions placed on a layout ``I_0.., O_0..``
    with k bits per side: unchanged on the inputs and rotated one position
    left on the outputs, so position j lands on ``I_j`` and on the output
    of party j - 1. At even n the doubled block's two positions land
    together on ``I_{n-1}`` and ``O_{n-2}``."""
    return (g << k) | ((g << 1) & ((1 << k) - 1)) | (g >> (k - 1))


def _check_party_count(n: int) -> None:
    """Refuse the party counts no circular process serves."""
    if n == 2:
        raise UnsupportedPartyCount(
            "two parties are unsupported: the doubled-register channel cannot "
            "signal on its own, and winning requires mutual signaling"
        )
    if n < 2:
        raise ValueError(f"party count must be >= 2, got {n}")


@lru_cache(maxsize=None)
def build_w(n: int) -> ProcessMatrix:
    """The n-party circular process matrix, for any n >= 3.

    Returns the :class:`ProcessMatrix` handle, which refuses party counts
    below 3 and builds no layout and no term until they are read: a caller
    that needs only ``n`` or the loops (:func:`loop_decomposition`) is not
    refused on size. Reading ``operator`` builds the 2^(n-1) terms, and
    refuses them from n >= 20 by the work budget.
    """
    return ProcessMatrix(n)


def naive_even_w(n: int) -> DiagOperator:
    """The invalid direct analogue of the odd construction at even n.

    Uses all even-parity masks on n single-bit positions; the resulting
    sum contains the all-sigma_z element, whose term leaves no party
    receiving without also sending -- exactly the closed signaling cycle
    that creates a logical paradox. Returned for negative testing only.
    """
    if n % 2 or n < 4:
        raise ValueError(f"naive_even_w needs an even n >= 4, got {n}")
    wires = [Wire(k, "I") for k in range(n)] + [Wire(k, "O") for k in range(n)]
    layout = WireLayout(wires)
    # The even-parity masks are spanned by (1 << j) | 1, as in generator_group.
    placed = [_place((1 << j) | 1, n) for j in range(1, n)]
    return _make(layout, dict.fromkeys(_span(placed), 1), n)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class BilinearCheck(NamedTuple):
    checked: int
    failed: int


class ValidationReport(NamedTuple):
    """All logical-consistency checks of a candidate process object.

    Every check is reported instead of failing fast, so negative tests can
    assert which specific condition breaks.
    """

    nonneg: bool
    channel_norm: bool
    bilinear: BilinearCheck
    term_structure: bool
    signaling: tuple[tuple[bool, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        checks = {
            "nonneg": self.nonneg,
            "channel_norm": self.channel_norm,
            "bilinear_norm": not self.bilinear.failed,
            "term_structure": self.term_structure,
        }
        return [name for name, ok in checks.items() if not ok]

    def to_json(self) -> dict:
        return {
            "nonneg": self.nonneg,
            "channel_norm": self.channel_norm,
            "bilinear_norm": {
                "checked": self.bilinear.checked,
                "failed": self.bilinear.failed,
            },
            "term_structure": self.term_structure,
            "signaling": [list(row) for row in self.signaling],
        }


def _party_plan(layout: WireLayout) -> list[tuple[int, int, int, int]]:
    """``(o_field, i_field, wo, wi)`` of each party in party order: the
    masks and widths of its wires ``O_p`` and ``I_p``. Raises
    ``LayoutError`` unless the wires are exactly those of parties 0..n-1."""
    seen: dict[int, set[str]] = {}
    for w in layout.wires:
        if w.kind not in ("I", "O") or not isinstance(w.party, int):
            raise LayoutError(f"wire {w.name} is not an I/O party wire")
        seen.setdefault(w.party, set()).add(w.kind)
    parties = sorted(seen)
    if parties != list(range(len(parties))):
        raise LayoutError(f"party indices must be 0..n-1, got {parties}")
    for p, kinds in seen.items():
        if kinds != {"I", "O"}:
            raise LayoutError(f"party {p} lacks an I or O wire")
    return [(layout.field_mask(f"O{p}"), layout.field_mask(f"I{p}"),
             layout.field(f"O{p}")[1], layout.field(f"I{p}")[1]) for p in parties]


# The bilinear check enumerates every tuple of deterministic local channels
# up to this many parties, and draws this many seeded tuples beyond.
EXHAUSTIVE_LIMIT = 5
SAMPLE_COUNT = 1000
# validate_process refuses files needing 2**(WORK_BUDGET_LOG2 + 1) or more
# table tuples, drawn table entries or nonnegativity entries, and the
# process operator, conditional_distribution, loop_decomposition, the game
# and the causal witness refuse as many terms, products, row words or
# entries.
WORK_BUDGET_LOG2 = 18


_OVER_BUDGET = f"over the budget: work reaching 2^{WORK_BUDGET_LOG2 + 1} is refused"


def _refusal(what: str, n: int, need: str) -> ValueError:
    return ValueError(f"{what} refused: n={n} needs {need}, {_OVER_BUDGET}")


def refuse_over_budget(what: str, n: int, entries: int, unit: str) -> None:
    """Refuse work sized ``entries`` for n parties, before any of it is
    built, once it reaches 2**(WORK_BUDGET_LOG2 + 1)."""
    if entries >> (WORK_BUDGET_LOG2 + 1):
        raise _refusal(what, n, f"{entries} {unit}")


def _check_work(plan: list[tuple[int, int, int, int]], rank: int, survivors: list[int]) -> int:
    """Refuse, before any of it is done, validate work over the budget: the
    tuples of local tables enumerated up to ``EXHAUSTIVE_LIMIT`` parties,
    the table entries drawn beyond it, the nonnegativity transform, and the
    checked tuples times the surviving terms each of them contracts.
    Return the number of tuples the bilinear check reports.

    A draw of party p fills a table of ``2**wi`` entries, so the draws cost
    ``SAMPLE_COUNT * sum_p 2**wi`` entries. They are sized only when a
    non-identity term survives: otherwise no table is drawn."""
    def refuse_over(log2: int, what: str) -> None:
        if log2 > WORK_BUDGET_LOG2:
            raise ValueError(f"validate refused: it needs at least 2^{log2} {what}, "
                             f"{_OVER_BUDGET}")

    if len(plan) <= EXHAUSTIVE_LIMIT:
        # Party p has 2**(wo * 2**wi) tables; capping wi keeps the exponent
        # itself small for a wide input wire, and still over the budget.
        tables = sum(wo << min(wi, 64) for _, _, wo, wi in plan)
        refuse_over(tables, "tuples of local tables")
        checked = 1 << tables
    else:
        if any(survivors):
            entries = SAMPLE_COUNT * sum(1 << min(wi, 64) for _, _, _, wi in plan)
            refuse_over(entries.bit_length() - 1, "drawn table entries")
        checked = SAMPLE_COUNT
    refuse_over(rank, "nonnegativity entries")
    refuse_over((checked * len(survivors)).bit_length() - 1, "contracted terms")
    return checked


def _term_pass(op: DiagOperator, plan: list[tuple[int, int, int, int]]) -> tuple[list[int], tuple]:
    """The surviving masks and the signaling matrix, in one pass over the
    terms (see :func:`validate_process`). A party sends in a term whose
    mask touches its output and receives in one whose mask touches its
    input; a term survives when no party receives without sending. Row j,
    column i of the matrix says whether some term has party j sending and
    party i receiving.
    """
    parties = range(len(plan))
    fields = [(1 << p, o_field, i_field) for p, (o_field, i_field, _, _) in enumerate(plan)]
    survivors = []
    senders = {}  # receiving-party bits -> OR of the sending-party bits
    for mask in op.nums:
        send = receive = 0
        for bit, o_field, i_field in fields:
            if mask & o_field:
                send |= bit
            if mask & i_field:
                receive |= bit
        if not receive & ~send:
            survivors.append(mask)
        senders[receive] = senders.get(receive, 0) | send
    reached_by = [0] * len(plan)
    for receive, send in senders.items():
        for i in parties:
            if receive >> i & 1:
                reached_by[i] |= send
    signaling = tuple(
        tuple(bool(reached_by[i] >> j & 1) for i in parties) for j in parties
    )
    return survivors, signaling


def validate_process(process: ProcessMatrix | DiagOperator, seed: int = 0) -> ValidationReport:
    """Run all logical-consistency checks on a process object.

    * ``nonneg``: every dense entry is >= 0;
    * ``channel_norm``: tracing out all inputs leaves the identity on the
      outputs (each conditional distribution is normalized);
    * ``bilinear_norm``: for tuples of deterministic local channels
      ``f_i: I_i -> O_i``, the total outcome probability is 1; exhaustive
      up to ``EXHAUSTIVE_LIMIT`` parties, ``SAMPLE_COUNT`` tuples drawn
      with ``seed`` beyond (:func:`_drawn_tables`: the stream
      ``randrange(2**wo)`` gives, one draw per table entry);
    * ``term_structure``: every non-identity parity term leaves some party
      receiving without sending (sigma_z on its input, identity on its
      output), which rules out closed signaling cycles;
    * ``signaling``: matrix over ordered pairs (sender j, recipient i) of
      whether some term links ``O_j`` to ``I_i``.

    The checks after ``nonneg`` rest on one lemma (Oreshkov, Costa &
    Brukner 2012; Baumeler & Wolf 2016). Party p's table ``o = t_p[v]`` is
    the channel on ``(O_p, I_p)`` whose coefficient at the local mask s is
    the character ``chi_p(s) = sum_v (-1)^(s_O . t_p[v] + s_I . v)`` over
    ``2**(wo + wi)``. Monomials are orthogonal under the trace and the
    parties' widths add up to the layout's, so a tuple's total probability
    is ``sum_s nums[s] * prod_p chi_p(s)`` over ``2**op.log2den``, in
    integers. When party p receives without sending, ``chi_p(s) = sum_v
    (-1)^(s_I . v) = 0``. One pass over the terms (:func:`_term_pass`)
    keeps the others, the survivors, and builds ``signaling``.
    ``term_structure`` says no non-identity term survives, and each tuple is
    valued from the survivors alone (:func:`_tuple_value`).

    When only the identity survives, every table has ``chi_p(0) =
    2**wi``, so every tuple has the total ``nums[0] * 2**|I|``: one integer test,
    ``nums[0] << |I| == 2**log2den``, decides all tuples at any n, ``seed``
    is not used and ``checked`` stays the count the enumeration or the
    draws would reach. Tracing out the inputs keeps the terms that touch no
    input, each of them a survivor, scaled by ``2**|I|``: ``channel_norm``
    holds iff every non-identity survivor touches an input and the same
    integer test holds. No operator is built.

    For t terms, n parties, s survivors and k distinct tables the checks
    after ``nonneg`` cost O(t·n + k·s·2^wi + tuples·s·n), and O(t·n) when
    only the identity survives: each party's characters are computed once
    per distinct table it meets and kept in one dict for the call.

    Raises ``ValueError`` up front for a negative ``seed`` (``random.Random``
    seeds -s like s, so it would alias a positive seed), ``LayoutError``
    unless the wires are the ``I_p`` and ``O_p`` of parties 0..n-1, and
    ``ValueError`` before any check when the bilinear check, its
    contractions or the nonnegativity transform would exceed the work
    budget.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    op = process.operator if isinstance(process, ProcessMatrix) else process
    plan = _party_plan(op.layout)
    survivors, signaling = _term_pass(op, plan)
    rows = gf2_echelon(op.nums)
    checked = _check_work(plan, len(rows), survivors)
    inputs = sum(i_field for _, i_field, _, _ in plan)  # disjoint fields: their union
    unit_identity = op.nums.get(0, 0) << inputs.bit_count() == 1 << op.log2den
    term_structure = not any(survivors)
    if term_structure:
        failed = 0 if unit_identity else checked
    else:
        failed = _bilinear_check(op, plan, seed, survivors)
    return ValidationReport(
        nonneg=is_nonnegative(op, rows),
        channel_norm=unit_identity and all(m & inputs for m in survivors if m),
        bilinear=BilinearCheck(checked=checked, failed=failed),
        term_structure=term_structure,
        signaling=signaling,
    )


def _tuple_value(op: DiagOperator, plan: list[tuple[int, int, int, int]], masks: Iterable[int]):
    """``value(tables)``: the numerator, over ``2**op.log2den``, of
    ``sum_s nums[s] * prod_p chi_p(s)`` on the terms ``masks`` of ``op``.
    Each party keeps one dict from table to its character vector, filled
    on the first tuple holding that table and kept for the calls of this
    ``value`` alone. Entry ``v -> t[v]`` of party p is the layout index
    holding ``t[v]`` on ``O_p`` and ``v`` on ``I_p``, so a mask meets it on
    p's wires alone."""
    masks = list(masks)
    nums = [op.nums[m] for m in masks]
    known = [{} for _ in plan]  # per party: table -> its characters on masks
    # o * o_low | v * i_low places o on O_p and v on I_p
    lows = [(o_field & -o_field, i_field & -i_field) for o_field, i_field, _, _ in plan]

    def value(tables: Sequence[tuple[int, ...]]) -> int:
        chis = list(map(dict.get, known, tables))
        if None in chis:
            for p, table in enumerate(tables):
                if chis[p] is None:
                    o_low, i_low = lows[p]
                    entries = [o * o_low | v * i_low for v, o in enumerate(table)]
                    chis[p] = known[p][table] = [
                        sum(-1 if (s & e).bit_count() & 1 else 1 for e in entries) for s in masks
                    ]
        return sum(map(math.prod, zip(nums, *chis)))
    return value


def _drawn_tables(plan: list[tuple[int, int, int, int]], seed: int):
    """``SAMPLE_COUNT`` tuples of local tables drawn with ``seed``: party by
    party, entry ``v`` of party p is a draw below ``2**wo``, which is
    ``getrandbits(wo + 1)`` redrawn while it is ``>= 2**wo``. That is the
    stream ``randrange(2**wo)`` gives, at every width, without its call
    frames."""
    getrandbits = random.Random(seed).getrandbits
    shapes = [(wo + 1, 1 << wo, range(1 << wi)) for _, _, wo, wi in plan]
    for _ in range(SAMPLE_COUNT):
        tables = []
        for bits, bound, entries in shapes:
            table = []
            for _ in entries:
                r = getrandbits(bits)
                while r >= bound:
                    r = getrandbits(bits)
                table.append(r)
            tables.append(tuple(table))
        yield tables


def _bilinear_check(op, plan, seed, survivors) -> int:
    """The number of tuples of deterministic local tables, every tuple up
    to ``EXHAUSTIVE_LIMIT`` parties and the tuples of
    :func:`_drawn_tables` beyond, whose total outcome probability, valued
    on the ``survivors`` (see :func:`validate_process`), is not 1. Each
    party's characters cost O(s·2^wi) once per distinct table, and a tuple
    then O(s·n), for s survivors."""
    value = _tuple_value(op, plan, survivors)
    if len(plan) <= EXHAUSTIVE_LIMIT:
        combos = itertools.product(*(
            itertools.product(range(1 << wo), repeat=1 << wi) for _, _, wo, wi in plan
        ))
    else:
        combos = _drawn_tables(plan, seed)
    one = 1 << op.log2den
    return sum(value(tables) != one for tables in combos)


def conditional_distribution(
    process: ProcessMatrix,
    outputs: Sequence[int] | Mapping[str, int],
) -> dict[tuple[int, ...], Fraction]:
    """Exact input distribution produced by a complete output assignment.

    ``outputs`` gives one value per output wire (in party order, or as a
    name-keyed mapping); the result maps input-wire value tuples to their
    probabilities, omitting zero entries.

    The output point mass is a product over the output wires, so the
    process is conditioned on it one wire at a time: each step feeds the
    2 or 4 terms of one wire's point mass to the current operator through
    :func:`~acausal.diagop.channel_apply`, which traces that wire out. The
    terms of the process have distinct input parts, so no step grows the
    term count, and the call forms ``terms * sum_k 2**|O_k|`` products, not
    ``terms * 2**|O|``. The 2^(n-1) terms times ``sum_k 2**|O_k|``, which
    is 2n at odd n and 2n + 2 at even n, are sized from n before the
    handle's ``layout`` or ``operator`` is read: once they reach the work
    budget (from n = 16) the call is refused with ``ValueError``, and no
    term is built. The assignment is checked in full before the first step.
    """
    n = process.n
    per_term = 2 * n if n % 2 else 2 * n + 2
    # per_term << (n - 1) reaches 2^(WORK_BUDGET_LOG2 + 1) iff its floor
    # log2 does; decided without forming it, which at a huge n is huge.
    if n - 2 + per_term.bit_length() > WORK_BUDGET_LOG2:
        raise _refusal("conditional distribution", n, f"2^{n - 1} * {per_term} term products")
    o_layout = process.layout.restrict(process.output_wires)
    if isinstance(outputs, Mapping):
        assignment = dict(outputs)
    else:
        if len(outputs) != n:
            raise ValueError(f"need {n} output values, got {len(outputs)}")
        assignment = {f"O{k}": v for k, v in enumerate(outputs)}
    o_layout.pack(assignment)  # LayoutError or ValueError before any step
    result = process.operator
    for w in o_layout.wires:
        result = channel_apply(result, point_mass(WireLayout([w]), assignment[w.name]))
    dense = to_dense(result)
    out_layout = result.layout
    return {
        out_layout.unpack(idx): value
        for idx, value in enumerate(dense)
        if value
    }


# ---------------------------------------------------------------------------
# loop decomposition
# ---------------------------------------------------------------------------

class LoopChannel(NamedTuple):
    """One deterministic circular channel: party k's output is carried to
    party k+1's input with the edge's flip pattern XORed on.

    ``edge_flips[k]`` is the local flip mask applied on the edge from
    party k to party ``(k+1) % n`` (all bits of the sending wire are
    carried).
    """

    n: int
    edge_flips: tuple[int, ...]
    weight: Fraction

    def flip_into(self, receiver: int) -> int:
        return self.edge_flips[(receiver - 1) % self.n]

    def apply(self, outputs: Sequence[int]) -> tuple[int, ...]:
        """Input values produced from a complete tuple of output values.
        Raises ``ValueError`` unless there is one output value per party."""
        if len(outputs) != self.n:
            raise ValueError(f"need {self.n} output values, got {len(outputs)}")
        return tuple(
            outputs[(j - 1) % self.n] ^ self.flip_into(j) for j in range(self.n)
        )


def _gf2_kernel(vectors: Iterable[int], width: int) -> list[int]:
    """All d with even-parity overlap against every vector, as bit masks.

    Each bit below ``width`` that is no pivot of :func:`gf2_echelon` is
    free and gives one basis vector d by back-substitution: d starts as
    the free bit alone, and row p holds no bit above its pivot, so going
    through the pivots in ascending order, bit p is set iff d meets row p
    oddly."""
    rows = gf2_echelon(vectors)
    pivots = sorted(rows)
    free = [b for b in range(width) if b not in rows]
    basis = []
    for f in free:
        d = 1 << f
        for p in pivots:
            if (rows[p] & d).bit_count() & 1:
                d |= 1 << p
        basis.append(d)
    return sorted(_span(basis))


@lru_cache(maxsize=None)
def loop_decomposition(n: int) -> tuple[LoopChannel, ...]:
    """The circular-channel mixture whose operator equals ``build_w(n)``.

    The wiring is always the circular identity (party k's output feeds
    party k+1's input, bit for bit); the admissible flip patterns are
    derived, not assumed: they are exactly the GF(2) vectors orthogonal to
    every input-side mask of the generator group, that is, to its n - 1
    generators, which :func:`_place` puts on the inputs unchanged. Odd n
    yields two loops (identity and all-edges-flip), even n yields four.
    No term of ``build_w(n)`` is built. The elimination reads the 64-bit
    words of the n - 1 generator rows, of up to n + 1 bits each, once to
    insert them and once more per free bit (one at odd n, two at even n)
    to back-substitute; that count is decided from n before any row is
    built and refused with ``ValueError`` once it reaches the work budget:
    n <= 5759 at odd n and n <= 4694 at even n answer, and n = 4696 is the
    first refused.
    """
    _check_party_count(n)
    # Generator k has k + 1 bits (k = 1..n-1) at odd n; at even n the
    # lifted ones have k + 3 (k = 1..n-2) and the last n + 1. words(L)
    # sums ceil(j / 64) over j = 1..L.
    def words(length: int) -> int:
        q, r = divmod(length, 64)
        return (q + 1) * (32 * q + r)

    if n % 2:
        reads = 2 * (words(n) - 1)
    else:
        reads = 3 * (words(n + 1) - 3 + -(-(n + 1) // 64))
    refuse_over_budget("loop decomposition", n, reads, "64-bit row words read")
    sub = game_layout(n).restrict(f"I{k}" for k in range(n))
    flips = _gf2_kernel(_generators(n), sub.width)
    weight = Fraction(1, len(flips))
    loops = []
    for d in flips:
        per_edge = tuple(sub.extract(d, f"I{(k + 1) % n}") for k in range(n))
        loops.append(LoopChannel(n=n, edge_flips=per_edge, weight=weight))
    return tuple(loops)


def loop_operator(loops: Sequence[LoopChannel]) -> DiagOperator:
    """Dense operator induced by a loop mixture (support enumeration).

    This is an independent construction path from the group sum: it never
    touches parity terms, only the deterministic channels' graphs.
    """
    if not loops:
        raise ValueError("need at least one loop")
    n = loops[0].n
    layout = game_layout(n)
    o_names = [f"O{k}" for k in range(n)]
    i_names = [f"I{k}" for k in range(n)]
    o_layout = layout.restrict(o_names)
    i_layout = layout.restrict(i_names)
    o_width = o_layout.width
    dense = [Fraction(0)] * (1 << layout.width)
    for o_idx in range(1 << o_width):
        o_vals = o_layout.unpack(o_idx)
        for loop in loops:
            i_vals = loop.apply(o_vals)
            i_idx = i_layout.pack({f"I{k}": v for k, v in enumerate(i_vals)})
            dense[(i_idx << o_width) | o_idx] += loop.weight
    return from_dense(layout, dense)
