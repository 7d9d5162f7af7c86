"""Shared brute-force oracles and random generators for the test suite.

The oracles deliberately avoid the library's fast paths: dense entries are
summed term by term with the sign rule instead of the parity transform, and
total probabilities are accumulated over explicit joint assignments. The
pairing oracles contract every term of W with one term of each party's
operator (its table put through ``from_dense``), independently of the loop
mixture the game evaluators run on and of the character sums the
bilinear check values tables with.
The causal enumeration oracle values a protocol shell by walking every
(m, inputs) row, independently of the closed form ``causal._evaluate``
uses. The protocol enumeration lists every first party and order rule at
n = 2, 3, independently of the per-key optimum ``brute_force_causal``
takes, and the recursive-model oracle searches a wider class of causal
strategies than the package models. The sampler oracle asks the strategy
for every party's behavior on every shot, draws through ``randrange`` (or
deals a fixed choice where a behavior has several) and walks each loop
from party 0 inline, independently of the path parity, the per-m plans
and the shared ``_walk`` that ``sample_game`` uses. The dense
CSV oracle formats every row with its own f-string, independently of the
1,000-row templates ``dense_csv`` fills. The GF(2) oracles keep their
echelon basis reduced on every insertion and read kernels and dense
coordinates straight off those rows, independently of the unreduced
elimination, the back-substitution and the local reduction the package
uses.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from acausal.causal import _evaluate
from acausal.diagop import (
    DiagOperator,
    Wire,
    WireLayout,
    _dense_tables,
    _spare_twos,
    from_dense,
)
from acausal.game import RNG_NAME, SampleResult, _check_game_size, winning_behavior
from acausal.process import build_w, loop_decomposition


def mask_fields(layout: WireLayout, mask: int, wires: Sequence[str]) -> int:
    """Extract and repack the mask bits of the listed wires, first wire
    most significant, one wire at a time."""
    packed = 0
    for name in wires:
        shift, w = layout.field(name)
        packed = (packed << w) | ((mask >> shift) & ((1 << w) - 1))
    return packed


def dense_oracle(op: DiagOperator) -> list[Fraction]:
    """Diagonal entries computed entry by entry from the sign rule."""
    out = []
    for b in range(1 << op.layout.width):
        total = Fraction(0)
        for mask, c in op.terms.items():
            total += -c if (b & mask).bit_count() & 1 else c
        out.append(total)
    return out


def dense_csv_oracle(op: DiagOperator) -> str:
    """Dense CSV text written one row at a time: the header, then one
    f-string per row from the rank-route tables, each line ending in a
    newline."""
    vals, high, low = _dense_tables(op)
    texts = []
    for v in vals:
        shift = _spare_twos((v,), op.log2den)
        texts.append(f"{v >> shift},{op.log2den - shift}")
    lines = ["index,numerator,log2_denominator"]
    for i, y in enumerate(high):
        lines += [f"{x},{texts[y ^ z]}" for x, z in enumerate(low, i * len(low))]
    return "\n".join(lines) + "\n"


def total_probability_oracle(op: DiagOperator, tables, dense=None) -> Fraction:
    """Total outcome probability of deterministic channels fed through a
    process operator: its dense entries (``dense``, or the sign-rule
    oracle's) summed over every joint assignment of the inputs, each
    party's output set by its table."""
    layout = op.layout
    dense = dense_oracle(op) if dense is None else dense
    inputs = [f"I{p}" for p in range(len(tables))]
    total = Fraction(0)
    for values in itertools.product(*(range(1 << layout.field(i)[1]) for i in inputs)):
        assignment = dict(zip(inputs, values))
        assignment.update((f"O{p}", t[v]) for p, (t, v) in enumerate(zip(tables, values)))
        total += dense[layout.pack(assignment)]
    return total


def behavior_ops(beh) -> tuple[DiagOperator, DiagOperator]:
    """A local behavior's two tables as diagonal operators over its wires
    ``(O_i, I_i)``."""
    den = 1 << beh.log2den
    return tuple(from_dense(beh.layout, [Fraction(v, den) for v in t]) for t in beh.tables)


def contract(op: DiagOperator, keys, factors) -> Fraction:
    """``trace(op * (factors[0] (x) factors[1] (x) ...))``, factor i on the
    wires of party i of ``keys`` (see :func:`_pairing_keys`). Monomials are orthogonal under the trace,
    so each term of ``op`` pairs with one term of every factor; a term
    missing from some factor pairs with zero."""
    log2den = op.log2den + sum(f.log2den for f in factors)
    total = 0
    for num, local in keys:
        for factor, key in zip(factors, local):
            num *= factor.nums.get(key, 0)
        total += num
    return Fraction(total << op.layout.width, 1 << log2den)


def _pairing_keys(op: DiagOperator, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each term of ``op`` as its numerator and its mask restricted to
    every party's wires ``(O_i, I_i)``: the keys :func:`contract` reads."""
    groups = [(f"O{i}", f"I{i}") for i in range(n)]
    return [(num, tuple(mask_fields(op.layout, mask, g) for g in groups))
            for mask, num in op.nums.items()]


def pairing_outcome_oracle(w, behaviors) -> dict[tuple[int, ...], Fraction]:
    """Joint outcome distribution by pairing every term of W with one term
    of each party's operator, outcome tuple by outcome tuple."""
    n = w.n
    keys = _pairing_keys(w.operator, n)
    dist = {}
    for packed in range(1 << n):
        xs = tuple((packed >> (n - 1 - i)) & 1 for i in range(n))
        factors = [behavior_ops(behaviors[i])[xs[i]] for i in range(n)]
        dist[xs] = contract(w.operator, keys, factors)
    return dist


def pairing_success_oracle(n: int, strategy) -> list[Fraction]:
    """Per-m success probabilities by pairing W's terms against every
    (m, inputs) contraction, with the guesser's operator for the target
    outcome and everyone else's outcome-summed channel."""
    op = build_w(n).operator
    keys = _pairing_keys(op, n)
    per_m = []
    for m in range(n):
        # ops[i][a]: party i's operators for input bit a, built once per m
        ops = [[behavior_ops(strategy(n, m, i, a)) for a in (0, 1)] for i in range(n)]
        win = Fraction(0)
        for a_idx in range(1 << n):
            a_bits = [(a_idx >> (n - 1 - i)) & 1 for i in range(n)]
            target = (a_idx.bit_count() - a_bits[m]) & 1
            factors = []
            for i in range(n):
                x0, x1 = ops[i][a_bits[i]]
                if i == m:
                    factors.append((x0, x1)[target])
                else:  # the channel, summed over the outcome
                    factors.append(DiagOperator(x0.layout, {
                        k: x0.terms.get(k, 0) + x1.terms.get(k, 0)
                        for k in x0.terms.keys() | x1.terms.keys()}))
            win += contract(op, keys, factors)
        per_m.append(win / (1 << n))
    return per_m


def sampler_oracle(n: int, shots: int, seed: int, strategy=None,
                   choice: str | None = None) -> SampleResult:
    """Seeded sampler rebuilding every party's table on every shot.

    Draws in the order ``sample_game`` documents, so both must return the
    same record for the same seed. With ``choice`` "first" or "last", a
    behavior with several choices at an input value deals that one of its
    outcome lookup there, with no draw: the stream the default strategy's
    shots read, which draw no choice.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if choice not in (None, "first", "last"):
        raise ValueError(f"choice must be None, 'first' or 'last', got {choice!r}")
    _check_game_size(n)
    strategy = strategy or winning_behavior
    loops = loop_decomposition(n)
    nloops = len(loops)
    rng = random.Random(seed)
    lookups = {}  # a behavior's lookup is a pure function of its tables
    wins = losses = 0
    per_m_wins = [0] * n
    per_m_shots = [0] * n
    for _ in range(shots):
        m = rng.randrange(n)
        a_idx = rng.getrandbits(n)
        a_bits = [(a_idx >> (n - 1 - i)) & 1 for i in range(n)]
        loop = loops[rng.randrange(nloops)]
        tables = []
        for i in range(n):
            beh = strategy(n, m, i, a_bits[i])
            if beh not in lookups:
                lookups[beh] = beh.outcome_lookup()
            lookup, scale = lookups[beh]
            table = []
            for choices in lookup:
                if len(choices) == 1:
                    table.append(choices[0][:2])
                elif choice is not None:
                    table.append(choices[0 if choice == "first" else -1][:2])
                else:
                    r = rng.randrange(1 << scale)
                    acc = 0
                    for x, o, num in choices:
                        acc += num
                        if r < acc:
                            table.append((x, o))
                            break
            tables.append(table)
        target = (a_idx.bit_count() - a_bits[m]) & 1
        per_m_shots[m] += 1
        for cand in range(len(tables[0])):
            v = cand
            xm = -1
            for j in range(n):
                x, o = tables[j][v]
                if j == m:
                    xm = x
                v = o ^ loop.flip_into((j + 1) % n)
            if v == cand:
                if xm == target:
                    wins += 1
                    per_m_wins[m] += 1
                else:
                    losses += 1
    return SampleResult(
        n=n,
        shots=shots,
        seed=seed,
        rng=RNG_NAME,
        wins=wins,
        losses=losses,
        per_m_wins=tuple(per_m_wins),
        per_m_shots=tuple(per_m_shots),
    )


def causal_enumeration_oracle(
    n: int, first: int, orders
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact value of a protocol shell under optimal deterministic outputs.

    For each information set of the guesser the conditional-majority
    output is optimal (everything else being deterministic and the unseen
    inputs uniform), so each set contributes its majority count.
    """
    counts: dict[tuple, list[int]] = {}
    for m in range(n):
        for a_idx in range(1 << n):
            a = [(a_idx >> (n - 1 - i)) & 1 for i in range(n)]
            order = orders[(m, a[first])]
            pos = order.index(m)
            transcript = tuple((p, a[p]) for p in order[:pos])
            target = (sum(a) - a[m]) & 1
            key = (m, a[m], transcript)
            counts.setdefault(key, [0, 0])[target] += 1
    per_m_wins = [0] * n
    for key, (c0, c1) in counts.items():
        per_m_wins[key[0]] += max(c0, c1)
    per_m = tuple(Fraction(wins, 1 << n) for wins in per_m_wins)
    return sum(per_m) / n, per_m


def enumerate_protocol_values(
    n: int, fixed_order: bool = False
) -> Iterator[tuple[Fraction, int, tuple]]:
    """Exact values of every deterministic protocol shell.

    Yields ``(value, first, order_assignment)`` over all choices of first
    party and order rule, the rules in lexicographic order; with
    ``fixed_order`` the rule is restricted to a single order used for
    every (m, a_first). Feasible for n <= 3 only.
    """
    if n not in (2, 3):
        raise ValueError(f"the enumeration is refused for n={n}")
    domain = [(m, a) for m in range(n) for a in (0, 1)]
    for first in range(n):
        rest = [p for p in range(n) if p != first]
        tails = list(itertools.permutations(rest))
        if fixed_order:
            assignments = (itertools.repeat(tail, len(domain)) for tail in tails)
        else:
            assignments = itertools.product(tails, repeat=len(domain))
        for assignment in assignments:
            orders = {
                key: (first, *tail) for key, tail in zip(domain, assignment)
            }
            value, _ = _evaluate(n, first, orders)
            yield value, first, tuple(orders.items())


def recursive_causal_optimum(n: int) -> Fraction:
    """Best success probability over recursive causal strategies.

    Backward induction over the transcript tree: the first party is fixed
    independently of m; each next party may be chosen from m and every
    input seen so far; the guesser, once activated, answers with the
    majority of the target parity over the inputs she has not seen.
    Counts are input rows of one m, 2**n in all.
    """

    def guess(seen: frozenset) -> int:
        unseen = n - 1 - len(seen)
        parity = sum(a for _, a in seen) & 1
        counts = [0, 0]
        for bits in range(1 << unseen):
            counts[(parity + bits.bit_count()) & 1] += 1
        return 2 * max(counts)  # both values of the guesser's own input

    def activate(m: int, seen: frozenset, p: int) -> int:
        if p == m:
            return guess(seen)
        return sum(best(m, seen | {(p, a)}) for a in (0, 1))

    @lru_cache(maxsize=None)
    def best(m: int, seen: frozenset) -> int:
        done = {p for p, _ in seen}
        return max(activate(m, seen, p) for p in range(n) if p not in done)

    wins = max(
        sum(activate(m, frozenset(), first) for m in range(n))
        for first in range(n)
    )
    return Fraction(wins, n << n)


def random_layout(rng: random.Random, max_width: int = 12) -> WireLayout:
    budget = rng.randint(1, max_width)
    wires = []
    k = 0
    while budget:
        w = min(budget, rng.randint(1, 3))
        wires.append(Wire(k, rng.choice("IO"), w))
        budget -= w
        k += 1
    return WireLayout(wires)


def random_operator(rng: random.Random, max_width: int = 12,
                    max_terms: int = 6) -> DiagOperator:
    layout = random_layout(rng, max_width)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mask = rng.randrange(1 << layout.width)
        terms[mask] = Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 4))
    return DiagOperator(layout, terms)


def random_party_operator(rng: random.Random, max_table_bits: int = 10,
                          max_terms: int = 12) -> DiagOperator:
    """A random operator on 1 to 3 parties with 1- or 2-bit wires in
    shuffled order, whose tuples of local deterministic tables number at
    most ``2**max_table_bits``."""
    while True:
        parties = rng.randint(1, 3)
        widths = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(parties)]
        if sum(wo << wi for wo, wi in widths) <= max_table_bits:
            break
    wires = [w for p, (wo, wi) in enumerate(widths)
             for w in (Wire(p, "O", wo), Wire(p, "I", wi))]
    rng.shuffle(wires)
    layout = WireLayout(wires)
    terms = {rng.randrange(1 << layout.width): Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 4))
             for _ in range(rng.randint(1, max_terms))}
    return DiagOperator(layout, terms)


def random_dyadic_distribution(rng: random.Random, k: int,
                               grain: int = 8) -> list[Fraction]:
    """A length-k probability vector with denominators dividing ``grain``."""
    bins = [0] * k
    for _ in range(grain):
        bins[rng.randrange(k)] += 1
    return [Fraction(b, grain) for b in bins]


def group_oracle(n: int) -> tuple[int, ...]:
    """The generator group by enumeration: the even-parity filter over all
    2**n masks for odd n, and the plain and flipped copies of the
    (n-1)-party group for even n."""
    if n % 2:
        return tuple(m for m in range(1 << n) if m.bit_count() % 2 == 0)
    base = group_oracle(n - 1)
    width = n - 1
    flip_all = (1 << width) - 1

    def prime(beta: int) -> int:
        return (beta >> (width - 2)) & 0b11

    plain = [(b << 2) | prime(b) for b in base]
    barred = [((b ^ flip_all) << 2) | prime(b) for b in base]
    return tuple(plain + barred)


def mask_from_fields(layout: WireLayout, fields: Mapping[str, int]) -> int:
    """Assemble a global mask from per-wire local masks, each in the
    in-field bit order (the wire's first bit most significant)."""
    mask = 0
    for name, local in fields.items():
        shift, w = layout.field(name)
        if not 0 <= local < (1 << w):
            raise ValueError(f"local mask {local} out of range for wire {name}")
        mask |= local << shift
    return mask


def _bit(value: int, width: int, pos: int) -> int:
    """Bit of ``value`` at 0-based position ``pos``, first position = MSB."""
    return (value >> (width - 1 - pos)) & 1


def odd_term_fields(n: int, gamma: int) -> dict[str, int]:
    """Wire placement of one odd-n group mask: position k lands on ``I_k``
    and on ``O_{k-1 mod n}``."""
    fields = {}
    for k in range(n):
        fields[f"I{k}"] = _bit(gamma, n, k)
        fields[f"O{k}"] = _bit(gamma, n, (k + 1) % n)
    return fields


def even_term_fields(n: int, element: int) -> dict[str, int]:
    """Wire placement of one even-n group element ``(beta << 2) | prime``."""
    beta, prime = element >> 2, element & 0b11
    width = n - 1
    fields = {}
    for k in range(n - 1):
        fields[f"I{k}"] = _bit(beta, width, k)
    fields[f"I{n - 1}"] = prime
    for j in range(n - 2):
        fields[f"O{j}"] = _bit(beta, width, j + 1)
    fields[f"O{n - 2}"] = prime
    fields[f"O{n - 1}"] = _bit(beta, width, 0)
    return fields


def is_group(masks) -> bool:
    """Whether a set of masks contains 0 and is closed under XOR."""
    return 0 in masks and all(x ^ y in masks for x in masks for y in masks)


def all_subgroups(masks) -> set[frozenset[int]]:
    """Every XOR-closed subset (containing 0) of the span of the masks."""
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        sub = frontier.pop()
        for v in masks:
            if v not in sub:
                bigger = frozenset(sub | {x ^ v for x in sub})
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return seen


def reduced_echelon_oracle(vectors) -> dict[int, int]:
    """Reduced echelon basis of the GF(2) span of bit vectors: each row
    keyed by its pivot, its highest set bit, and every pivot set in its
    own row only. The reduced form is unique, so two vector sets span the
    same space iff their oracle rows are equal."""
    rows: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p not in rows:
                break
            v ^= rows[p]
        if v:
            # v is new: clear the lower pivots from it, then its pivot p
            # from the rows above.
            for q, r in rows.items():
                if v >> q & 1:
                    v ^= r
            for q, r in list(rows.items()):
                if r >> p & 1:
                    rows[q] = r ^ v
            rows[p] = v
    return rows


def reduced_kernel_oracle(vectors, width: int) -> list[int]:
    """Every d below ``2**width`` with even-parity overlap against each
    vector, ascending: each free bit f of the reduced rows, plus the
    pivots whose rows hold f, spans them."""
    rows = reduced_echelon_oracle(vectors)
    span = [0]
    for f in range(width):
        if f not in rows:
            d = (1 << f) | sum(1 << p for p, r in rows.items() if r >> f & 1)
            span += [s ^ d for s in span]
    return sorted(span)


def rank_transform_oracle(op: DiagOperator) -> tuple[list[int], list[int]]:
    """``_rank_transform(op)`` read off the reduced rows: the masks in
    pivot coordinates, each distinct entry summed term by term with the
    sign rule, and the coordinates whose rows hold each layout bit."""
    rows = reduced_echelon_oracle(op.nums)
    pivots = sorted(rows)

    def coordinates(mask: int) -> int:
        return sum((mask >> p & 1) << j for j, p in enumerate(pivots))

    coeffs = [(coordinates(mask), v) for mask, v in op.nums.items()]
    vals = [sum(-v if (c & y).bit_count() & 1 else v for c, v in coeffs)
            for y in range(1 << len(pivots))]
    cols = [sum((rows[p] >> b & 1) << j for j, p in enumerate(pivots))
            for b in range(op.layout.width)]
    return vals, cols
