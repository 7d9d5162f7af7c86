import itertools
import random
import time
from fractions import Fraction

import pytest

from acausal import diagop, process
from acausal.diagop import (
    DiagOperator,
    LayoutError,
    Wire,
    WireLayout,
    gf2_echelon,
    is_nonnegative,
    partial_trace,
    to_dense,
)
from acausal.process import (
    BilinearCheck,
    UnsupportedPartyCount,
    _gf2_kernel,
    _party_plan,
    _term_pass,
    _tuple_value,
    build_w,
    conditional_distribution,
    game_layout,
    generator_group,
    loop_decomposition,
    loop_operator,
    naive_even_w,
    validate_process,
)
from conftest import (
    dense_oracle,
    even_term_fields,
    group_oracle,
    mask_from_fields,
    odd_term_fields,
    random_party_operator,
    total_probability_oracle,
)

F = Fraction


def pattern_mask(layout, pattern):
    """Mask from a left-to-right 1/z pattern over the layout's bits."""
    assert len(pattern) == layout.width
    mask = 0
    for idx, ch in enumerate(pattern):
        if ch == "z":
            mask |= 1 << (layout.width - 1 - idx)
    return mask


# bit order (I0 I1 I2 | O0 O1 O2); the four summands of the three-party object
W3_PATTERNS = ["111111", "1zzzz1", "z1z1zz", "zz1z1z"]

# bit order (I0 I1 I2 I3a I3b | O0 O1 O2a O2b O3); the eight four-party summands
W4_PATTERNS = [
    "1111111111",
    "1zz1zzz1z1",
    "z1zz11zz1z",
    "zz1zzz1zzz",
    "zzz11zz11z",
    "z111z111zz",
    "1z1z1z1z11",
    "11zzz1zzz1",
]


def test_generator_group_three_parties():
    assert generator_group(3) == (0b000, 0b011, 0b101, 0b110)


def test_generator_group_four_parties():
    # the listed elements: (beta over 3 positions) << 2 | (first two positions)
    expected = (
        0b00000,
        0b01101,
        0b10110,
        0b11011,
        0b11100,
        0b10001,
        0b01010,
        0b00111,
    )
    assert generator_group(4) == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_generator_group_is_group(n):
    group = generator_group(n)
    masks = set(group)
    assert len(masks) == 1 << (n - 1)
    assert 0 in masks
    assert all(a ^ b in masks for a in masks for b in masks)
    width = n if n % 2 else n + 1
    if n % 2:
        layout = WireLayout([Wire("env", f"P{k}") for k in range(n)])
    else:
        layout = WireLayout(
            [Wire("env", f"P{k}") for k in range(n - 1)] + [Wire("env", "D", 2)]
        )
    assert layout.width == width
    assert is_nonnegative(DiagOperator(layout, dict.fromkeys(masks, 1)))


@pytest.mark.parametrize("n", range(3, 13))
def test_generator_group_equals_enumeration_oracle(n):
    assert generator_group(n) == group_oracle(n)


@pytest.mark.parametrize("n", range(3, 12))
def test_build_w_terms_are_the_placed_oracle_elements(n):
    w = build_w(n)
    place = odd_term_fields if n % 2 else even_term_fields
    placed = [mask_from_fields(w.layout, place(n, g)) for g in group_oracle(n)]
    assert list(w.operator.nums) == placed
    assert w.operator.terms == dict.fromkeys(placed, F(1, 1 << (n if n % 2 else n + 1)))


@pytest.mark.parametrize("n", range(4, 11, 2))
def test_naive_even_w_equals_even_parity_filter(n):
    op = naive_even_w(n)
    masks = [
        mask_from_fields(op.layout, odd_term_fields(n, gamma))
        for gamma in range(1 << n)
        if gamma.bit_count() % 2 == 0
    ]
    assert list(op.nums) == masks
    assert op.terms == dict.fromkeys(masks, F(1, 1 << n))


def test_generator_group_rejects_small_n():
    # the same party-count rule as build_w and loop_decomposition
    with pytest.raises(UnsupportedPartyCount):
        generator_group(2)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^party count must be >= 2, got {n}$") as info:
            generator_group(n)
        assert type(info.value) is ValueError


def test_build_w3_literal():
    w = build_w(3)
    assert w.normalization == F(1, 8)
    expected = {pattern_mask(w.layout, p): F(1, 8) for p in W3_PATTERNS}
    assert w.operator.terms == expected


def test_build_w4_literal():
    w = build_w(4)
    assert w.normalization == F(1, 32)
    assert w.layout.field("I3")[1] == 2
    assert w.layout.field("O2")[1] == 2
    expected = {pattern_mask(w.layout, p): F(1, 32) for p in W4_PATTERNS}
    assert w.operator.terms == expected


def test_build_w_rejects_two_parties():
    with pytest.raises(UnsupportedPartyCount):
        build_w(2)
    with pytest.raises(ValueError):
        build_w(1)


def test_build_w_budget_boundary():
    # Uncached, so the 2^18 terms are not kept for the rest of the run.
    assert len(build_w.__wrapped__(19).operator.nums) == 1 << 18
    for n in (20, 40, 10**9):
        start = time.perf_counter()
        w = build_w(n)
        with pytest.raises(ValueError, match=fr"^build_w refused: n={n} needs 2\^{n - 1} terms"):
            w.operator
        assert time.perf_counter() - start < 1.0


def test_build_w_builds_nothing_until_read():
    start = time.perf_counter()
    w = build_w(10**9)
    assert vars(w) == {"n": 10**9}  # no layout, no term
    with pytest.raises(AttributeError):
        w.n = 4
    assert time.perf_counter() - start < 1.0
    w = build_w.__wrapped__(5)
    assert w.layout == game_layout(5) and vars(w).keys() == {"n", "layout"}
    assert w.operator is w.operator and w.operator.layout is w.layout


@pytest.mark.parametrize("name", ("layout", "input_wires", "output_wires", "normalization"))
def test_process_wire_properties_refused_from_n(name):
    # sized by the 2n wires, refused from 2n = 2^19 before anything is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match=fr"^process {name} refused: n={10**9} needs {2 * 10**9} wires"):
        getattr(build_w.__wrapped__(10**9), name)
    with pytest.raises(ValueError, match=f"^process {name} refused: n={1 << 18} needs"):
        getattr(build_w.__wrapped__(1 << 18), name)
    assert time.perf_counter() - start < 1.0
    assert getattr(build_w.__wrapped__(725), name)


@pytest.mark.parametrize("n", range(3, 9))
def test_w_trace_is_output_register_size(n):
    w = build_w(n)
    o_width = sum(w.layout.field(name)[1] for name in w.output_wires)
    assert sum(to_dense(w.operator)) == 1 << o_width


@pytest.mark.parametrize("n", range(3, 9))
def test_channel_normalization(n):
    w = build_w(n)
    traced = partial_trace(w.operator, w.input_wires)
    assert traced == DiagOperator(w.layout.restrict(w.output_wires), {0: 1})


def test_w3_channel_normalization_by_dense_summation():
    # independent oracle: sum the 64 brute-force entries over the inputs
    w = build_w(3)
    dense = dense_oracle(w.operator)
    for o_idx in range(8):
        assert sum((dense[(i_idx << 3) | o_idx] for i_idx in range(8)),
                   F(0)) == 1


def test_dense_entries_small_cases():
    # brute-force entry evaluation, independent of the transform path
    w3 = build_w(3)
    assert set(dense_oracle(w3.operator)) == {F(0), F(1, 2)}
    w5 = build_w(5)
    values = set(dense_oracle(w5.operator))
    assert values == {F(0), F(1, 2)}
    assert to_dense(w5.operator) == dense_oracle(w5.operator)
    w6 = build_w(6)
    assert set(dense_oracle(w6.operator)) == {F(0), F(1, 4)}


def test_w3_case_table():
    w = build_w(3)
    for o_idx in range(8):
        o = [(o_idx >> 2) & 1, (o_idx >> 1) & 1, o_idx & 1]
        dist = conditional_distribution(w, o)
        straight = (o[2], o[0], o[1])
        flipped = (o[2] ^ 1, o[0] ^ 1, o[1] ^ 1)
        assert dist == {straight: F(1, 2), flipped: F(1, 2)}


def test_w4_case_table():
    w = build_w(4)
    for o0 in range(2):
        for o1 in range(2):
            for o2 in range(4):
                for o3 in range(2):
                    dist = conditional_distribution(w, (o0, o1, o2, o3))
                    branches = {
                        (o3, o0, o1, o2),
                        (o3 ^ 1, o0, o1 ^ 1, o2 ^ 0b01),
                        (o3, o0 ^ 1, o1 ^ 1, o2 ^ 0b10),
                        (o3 ^ 1, o0 ^ 1, o1, o2 ^ 0b11),
                    }
                    assert dist == {b: F(1, 4) for b in branches}


@pytest.mark.parametrize("n", range(3, 7))
def test_conditional_support_is_uniform(n):
    w = build_w(n)
    o_layout = w.layout.restrict(w.output_wires)
    expected_support = 2 if n % 2 else 4
    weight = F(1, expected_support)
    for o_idx in range(1 << o_layout.width):
        dist = conditional_distribution(w, dict(zip(w.output_wires,
                                                    o_layout.unpack(o_idx))))
        assert len(dist) == expected_support
        assert set(dist.values()) == {weight}


def test_conditional_requires_complete_assignment():
    with pytest.raises(ValueError):
        conditional_distribution(build_w(3), (0, 0))


def _refuse(*args):
    raise AssertionError("built work the budget refuses")


@pytest.mark.parametrize("n", (16, 17, 10**9))
def test_conditional_refuses_products_over_the_budget(monkeypatch, n):
    # 2^(n-1) terms times the 2 or 4 point-mass terms of each output wire:
    # 2^20 products at n = 16, 491,520 at n = 15. Sized from n, so the
    # handle builds no term, and the refusal comes before the assignment
    # is read: 10**9 parties get 17 zeros, not a list of 10**9.
    w = build_w.__wrapped__(n)  # a fresh handle: no other test's terms on it
    monkeypatch.setattr(diagop, "multiply", _refuse)
    monkeypatch.setattr(process, "point_mass", _refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^conditional distribution refused: n={n} needs "):
        conditional_distribution(w, [0] * min(n, 17))
    assert time.perf_counter() - start < 1.0
    assert "operator" not in vars(w)


def _one_shot(w, o_idx):
    """The conditional through one point mass on every output wire at once."""
    o_layout = w.layout.restrict(w.output_wires)
    result = diagop.channel_apply(w.operator, diagop.point_mass(o_layout, o_idx))
    return {result.layout.unpack(idx): p for idx, p in enumerate(to_dense(result)) if p}


@pytest.mark.parametrize("n", range(3, 10))
def test_conditional_wire_by_wire_equals_one_point_mass(n):
    w = build_w(n)
    o_layout = w.layout.restrict(w.output_wires)
    rows = range(1 << o_layout.width)
    if n >= 8:
        rows = random.Random(n).sample(rows, 6)
    for o_idx in rows:
        assert conditional_distribution(w, o_layout.unpack(o_idx)) == _one_shot(w, o_idx)


@pytest.mark.parametrize("n", (10, 11, 12, 13, 15))
def test_conditional_equals_the_loops_up_to_the_budget(n):
    # n = 15 is the largest n the budget accepts
    w = build_w(n)
    o_layout = w.layout.restrict(w.output_wires)
    rng = random.Random(n)
    for _ in range(2):
        o = o_layout.unpack(rng.randrange(1 << o_layout.width))
        assert conditional_distribution(w, o) == {
            loop.apply(o): loop.weight for loop in loop_decomposition(n)}


@pytest.mark.parametrize("n, products", ((8, 2304), (9, 4608)))
def test_conditional_multiplies_each_output_wire_once(monkeypatch, n, products):
    # 2^(n-1) terms times sum_k 2^|O_k|: 128 * (7 * 2 + 4) at n = 8 and
    # 256 * 9 * 2 at n = 9, against 2^(n-1) * 2^|O| in one point mass
    counted = []
    multiply = diagop.multiply

    def counting(a, b):
        counted.append(len(a.nums) * len(b.nums))
        return multiply(a, b)

    monkeypatch.setattr(diagop, "multiply", counting)
    conditional_distribution(build_w(n), [1] * n)
    assert sum(counted) == products
    assert len(counted) == n


@pytest.mark.parametrize("outputs, error", (
    ((0, 0), ValueError),  # wrong length
    ((0, 0, 2), ValueError),  # out of range
    ({"O0": 0, "O1": 0}, LayoutError),  # a wire missing from the mapping
    ({"O0": 0, "O1": 0, "O2": 0, "O3": 0}, LayoutError),  # an unknown wire
))
def test_conditional_checks_the_assignment_before_any_work(monkeypatch, outputs, error):
    w = build_w(3)
    monkeypatch.setattr(diagop, "multiply", _refuse)
    monkeypatch.setattr(process, "point_mass", _refuse)
    with pytest.raises(error):
        conditional_distribution(w, outputs)


def test_conditional_below_the_budget_equals_the_loops():
    rng = random.Random(48)
    w = build_w(9)
    for _ in range(4):
        o = [rng.randrange(2) for _ in range(9)]
        assert conditional_distribution(w, o) == {
            loop.apply(o): loop.weight for loop in loop_decomposition(9)}


@pytest.mark.parametrize("n", range(3, 9))
def test_validate_passes_for_built_processes(n):
    report = validate_process(build_w(n))
    assert report.passed, report.failures()
    assert report.bilinear.failed == 0
    # full signaling coverage: every other party can reach every recipient
    for i in range(n):
        for j in range(n):
            if i != j:
                assert report.signaling[j][i]


def test_validate_uniform_channelless_object():
    n = 3
    layout = game_layout(n)
    i_width = 3
    op = DiagOperator(layout, {0: F(1, 1 << i_width)})
    report = validate_process(op)
    assert report.passed
    assert all(not any(row) for row in report.signaling)


def test_naive_even_w_contains_all_sender_term():
    op = naive_even_w(4)
    full = (1 << op.layout.width) - 1
    assert full in op.terms
    with pytest.raises(ValueError):
        naive_even_w(5)
    with pytest.raises(ValueError):
        naive_even_w(2)


def test_naive_even_w_fails_validation():
    op = naive_even_w(4)
    report = validate_process(op)
    assert not report.passed
    assert report.term_structure is False
    assert report.bilinear.failed > 0
    # the all-forwarding tuple over-counts: oracle total is 2, not 1
    forward = [(0, 1)] * 4
    assert total_probability_oracle(op, forward) == 2


def test_bilinear_counts_match_oracle_on_naive_w4():
    op = naive_even_w(4)
    report = validate_process(op)
    failures = 0
    for t0 in range(4):
        for t1 in range(4):
            for t2 in range(4):
                for t3 in range(4):
                    tables = [
                        (t0 & 1, (t0 >> 1) & 1),
                        (t1 & 1, (t1 >> 1) & 1),
                        (t2 & 1, (t2 >> 1) & 1),
                        (t3 & 1, (t3 >> 1) & 1),
                    ]
                    if total_probability_oracle(op, tables) != 1:
                        failures += 1
    assert failures == report.bilinear.failed
    assert report.bilinear.checked == 256


def test_validate_passes_build_w_past_the_dense_route():
    # The dense nonnegativity route needed 2**22 to 2**26 entries here.
    start = time.perf_counter()
    for n in range(10, 13):
        assert validate_process(build_w(n)).passed
    assert time.perf_counter() - start < 20.0


def test_validate_refuses_work_over_the_budget():
    wide = WireLayout([Wire(0, "I", 5), Wire(1, "I"), Wire(0, "O"), Wire(1, "O")])
    with pytest.raises(ValueError, match=r"2\^34 tuples"):
        validate_process(DiagOperator(wide, {0: F(1, 64)}))
    # Six parties, a 10-bit I0 and a surviving term on O1 alone: 1000 draws
    # fill 2^10 + 5·2 table entries each.
    sampled = WireLayout([Wire(k, kind, 10 if (k, kind) == (0, "I") else 1)
                          for kind in "IO" for k in range(6)])
    drawn = {0: F(1, 1 << 15), sampled.field_mask("O1"): F(1, 1 << 15)}
    with pytest.raises(ValueError, match=r"2\^19 drawn table entries"):
        validate_process(DiagOperator(sampled, drawn))
    two_bit = WireLayout([Wire(k, kind, 2) for kind in "IO" for k in range(6)])
    independent = dict.fromkeys([0] + [1 << k for k in range(20)], 1)
    with pytest.raises(ValueError, match=r"2\^20 nonnegativity entries"):
        validate_process(DiagOperator(two_bit, independent))



def test_budget_messages_name_the_limit_they_enforce():
    # Work is refused once it reaches 2^19, so 2^19 - 1 entries, more
    # than 2^18, pass, and every refusal says so.
    limit = r"over the budget: work reaching 2\^19 is refused$"
    process.refuse_over_budget("game", 7, (1 << 19) - 1, "entries")
    with pytest.raises(ValueError, match=r"^game refused: n=7 needs 524288 entries, " + limit):
        process.refuse_over_budget("game", 7, 1 << 19, "entries")
    wide = WireLayout([Wire(0, "I", 5), Wire(1, "I"), Wire(0, "O"), Wire(1, "O")])
    with pytest.raises(ValueError, match=r"^validate refused: it needs at least 2\^34 tuples "
                                         r"of local tables, " + limit):
        validate_process(DiagOperator(wide, {0: F(1, 64)}))

@pytest.mark.parametrize("wide, inputs", [("O", 6), ("I", 15)])
def test_validate_accepts_a_wide_wire_when_only_the_identity_survives(wide, inputs):
    # Six parties, a 10-bit wire on party 0: no table is drawn when only
    # the identity survives, so neither file is sized by draws. The first
    # was once refused for 1000 draws of 2^(10 + 1) dense channel entries.
    layout = WireLayout([Wire(k, kind, 10 if (k, kind) == (0, wide) else 1)
                         for kind in "IO" for k in range(6)])
    start = time.perf_counter()
    report = validate_process(DiagOperator(layout, {0: F(1, 1 << inputs)}))
    assert time.perf_counter() - start < 1.0
    assert report.passed, report.failures()
    assert (report.bilinear.checked, report.bilinear.failed) == (1000, 0)


def test_validate_refuses_contracted_terms_over_the_budget():
    # Six parties, 2-bit wires: 1000 drawn tuples times 2^10 surviving
    # terms (masks on the outputs alone, rank 10).
    two_bit = WireLayout([Wire(k, kind, 2) for kind in "IO" for k in range(6)])
    outputs = dict.fromkeys(range(1 << 10), F(1, 1 << 24))
    with pytest.raises(ValueError, match=r"2\^19 contracted terms"):
        validate_process(DiagOperator(two_bit, outputs))
    # The earlier refusals keep their order: rank 20 names nonnegativity.
    inputs = dict.fromkeys([1 << (12 + k) for k in range(10)], F(1, 1 << 24))
    with pytest.raises(ValueError, match=r"2\^20 nonnegativity entries"):
        validate_process(DiagOperator(two_bit, outputs | inputs))


def _signaling_scan(op, parties):
    """The signaling matrix by one scan over the terms per ordered pair."""
    i_fields = [op.layout.field_mask(f"I{p}") for p in parties]
    o_fields = [op.layout.field_mask(f"O{p}") for p in parties]
    return tuple(
        tuple(any(m & o_fields[j] and m & i_fields[i] for m in op.nums) for i in parties)
        for j in parties
    )


def _receives_without_sending(layout, mask, parties):
    return any(mask & layout.field_mask(f"I{p}")
               and not mask & layout.field_mask(f"O{p}") for p in parties)


def test_term_pass_matches_pairwise_scan():
    rng = random.Random(41)
    operators = [random_party_operator(rng) for _ in range(200)]
    operators += [build_w(n).operator for n in range(3, 9)] + [naive_even_w(4)]
    for op in operators:
        parties = list(range(len(op.layout.wires) // 2))
        survivors, signaling = _term_pass(op, _party_plan(op.layout))
        assert signaling == _signaling_scan(op, parties)
        assert survivors == [m for m in op.nums
                             if not _receives_without_sending(op.layout, m, parties)]


def _all_tables(op, parties):
    return itertools.product(*(
        itertools.product(range(1 << op.layout.field(f"O{p}")[1]),
                          repeat=1 << op.layout.field(f"I{p}")[1])
        for p in parties
    ))


def test_pruned_contraction_equals_full_on_every_table_tuple():
    # the integer character sums on the survivors alone, on every term, and
    # the explicit sum over joint assignments agree on every table tuple
    rng = random.Random(42)
    pruned_away = tuples = 0
    for _ in range(60):
        op = random_party_operator(rng)
        parties = list(range(len(op.layout.wires) // 2))
        plan = _party_plan(op.layout)
        survivors, _ = _term_pass(op, plan)
        pruned_away += len(op.nums) - len(survivors)
        pruned, full = _tuple_value(op, plan, survivors), _tuple_value(op, plan, op.nums)
        dense = dense_oracle(op)
        for tables in _all_tables(op, parties):
            tuples += 1
            value = pruned(tables)
            assert value == full(tables)
            assert F(value, 1 << op.log2den) == total_probability_oracle(op, tables, dense)
    assert pruned_away and tuples > 4000


def test_exhaustive_bilinear_counts_match_oracle_on_random_operators():
    rng = random.Random(43)
    for _ in range(25):
        op = random_party_operator(rng, max_table_bits=6, max_terms=6)
        totals = [total_probability_oracle(op, tables)
                  for tables in _all_tables(op, range(len(op.layout.wires) // 2))]
        report = validate_process(op)
        assert report.bilinear.checked == len(totals)
        assert report.bilinear.failed == sum(t != 1 for t in totals)


def _shuffled_party_layout(rng, widths):
    """The wires ``O_p`` and ``I_p`` of parties of the given ``(wo, wi)``
    widths, in shuffled order."""
    wires = [w for p, (wo, wi) in enumerate(widths)
             for w in (Wire(p, "O", wo), Wire(p, "I", wi))]
    rng.shuffle(wires)
    return WireLayout(wires)


def _identity_survivor_operator(rng, widths, identity_num):
    """An operator on parties of the given ``(wo, wi)`` widths, in shuffled
    wire order, whose terms besides the identity all have a party that
    receives without sending. The identity coefficient is
    ``identity_num / 2**|I|``, and absent when ``identity_num`` is None."""
    layout = _shuffled_party_layout(rng, widths)
    parties = range(len(widths))
    masks = {rng.randrange(1, 1 << layout.width) for _ in range(8)}
    terms = {m: F(rng.randint(-4, 4), 1 << rng.randint(0, 5)) for m in masks
             if _receives_without_sending(layout, m, parties)}
    if identity_num is not None:
        terms[0] = F(identity_num, 1 << sum(wi for _, wi in widths))
    return DiagOperator(layout, terms)


def test_identity_only_bilinear_counts_match_oracle_up_to_five_parties():
    # Only the identity can survive, so one evaluation stands for every
    # tuple; the oracle values each tuple from the dense entries.
    rng = random.Random(44)
    w3 = build_w(3).operator
    cases = [w3, build_w(5).operator,
             DiagOperator(w3.layout, {**w3.terms, 0: w3.terms[0] + F(1, 1 << 6)})]
    cases.append(DiagOperator(game_layout(3), {}))
    for count in range(1, 6):
        for identity_num in (1, 3, None):
            while True:  # 2^8 table tuples, 2^10 for the five 1-bit parties
                widths = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(count)]
                if sum(wo << wi for wo, wi in widths) <= max(8, 2 * count):
                    break
            cases.append(_identity_survivor_operator(rng, widths, identity_num))
    outcomes = set()
    for op in cases:
        parties = list(range(len(op.layout.wires) // 2))
        assert not any(_term_pass(op, _party_plan(op.layout))[0])
        dense = dense_oracle(op)
        totals = [total_probability_oracle(op, tables, dense)
                  for tables in _all_tables(op, parties)]
        report = validate_process(op)
        assert report.bilinear.checked == len(totals)
        assert report.bilinear.failed == sum(t != 1 for t in totals)
        outcomes.add(report.bilinear.failed == 0)
    assert outcomes == {True, False}


def _drawn_counts(op, seed):
    """The ``BilinearCheck`` of the seeded draws beyond five parties, each
    entry drawn with ``randrange`` and each tuple valued on every term of
    ``op``."""
    parties = list(range(len(op.layout.wires) // 2))
    widths = [(op.layout.field(f"O{p}")[1], op.layout.field(f"I{p}")[1]) for p in parties]
    value = _tuple_value(op, _party_plan(op.layout), op.nums)
    rng = random.Random(seed)
    values = [value([tuple(rng.randrange(1 << wo) for _ in range(1 << wi)) for wo, wi in widths])
              for _ in range(1000)]
    return BilinearCheck(checked=len(values), failed=sum(v != 1 << op.log2den for v in values))


def test_identity_only_bilinear_counts_match_seeded_draws_at_six_and_seven_parties():
    rng = random.Random(45)
    w7 = build_w(7).operator
    cases = [build_w(6).operator, w7,
             DiagOperator(w7.layout, {m: c * F(3, 4) for m, c in w7.terms.items()}),
             DiagOperator(game_layout(6), {})]
    for identity_num in (1, 1, 5, None):
        widths = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(rng.randint(6, 7))]
        cases.append(_identity_survivor_operator(rng, widths, identity_num))
    outcomes = set()
    for op in cases:
        assert not any(_term_pass(op, _party_plan(op.layout))[0])
        for seed in (0, 3):
            report = validate_process(op, seed=seed)
            assert report.bilinear == _drawn_counts(op, seed)
            outcomes.add(report.bilinear.failed == 0)
    assert outcomes == {True, False}


def _surviving_operator(rng, widths):
    """An operator on parties of ``widths = [(wo, wi), ...]``, in shuffled
    wire order, with the identity coefficient ``1 / 2**|I|``, random terms
    and two terms on the outputs alone, which survive: its tables are
    drawn beyond five parties."""
    layout = _shuffled_party_layout(rng, widths)
    outputs = sum(layout.field_mask(f"O{p}") for p in range(len(widths)))
    masks = {rng.randrange(1, 1 << layout.width) for _ in range(6)}
    masks |= {rng.randrange(1, 1 << layout.width) & outputs or outputs for _ in range(2)}
    terms = {m: F(rng.choice((-3, -1, 1, 3)), 1 << rng.randint(2, 5)) for m in masks}
    terms[0] = F(1, 1 << sum(wi for _, wi in widths))
    return DiagOperator(layout, terms)


def test_drawn_bilinear_counts_match_randrange_draws_on_surviving_terms():
    # every table is drawn and valued: the draws below 2**wo for 1- and
    # 2-bit outputs take one word each, those below 2**33 two words
    rng = random.Random(46)
    cases = [naive_even_w(6), naive_even_w(8)]
    for count in (6, 7, 6, 7):
        cases.append(_surviving_operator(
            rng, [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(count)]))
    for count in (6, 7):
        widths = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(count)]
        widths[rng.randrange(count)] = (33, rng.randint(1, 2))
        cases.append(_surviving_operator(rng, widths))
    for op in cases:
        assert any(_term_pass(op, _party_plan(op.layout))[0])
        for seed in (0, 3):
            report = validate_process(op, seed=seed)
            assert report.bilinear == _drawn_counts(op, seed)
            # some drawn tuples pass and some fail, so the counts tell
            # the draws apart
            assert 0 < report.bilinear.failed < 1000, report.bilinear


def test_validate_calls_no_randrange(monkeypatch):
    expected = {n: _drawn_counts(naive_even_w(n), n) for n in (6, 8)}

    def refuse(*args):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    for n, drawn in expected.items():
        assert validate_process(naive_even_w(n), seed=n).bilinear == drawn


@pytest.mark.parametrize("seed", (-1, -5, -(1 << 70)))
def test_validate_refuses_a_negative_seed(seed):
    # refused before any check, also where the seed would not be used
    for op in (naive_even_w(8), build_w(3), DiagOperator(WireLayout([Wire("env", "X", 1)]), {})):
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            validate_process(op, seed=seed)


def test_validate_draws_no_table_when_only_the_identity_survives(monkeypatch):
    Random = random.Random

    def refuse(seed):
        raise AssertionError(f"drew tables with seed {seed}")

    monkeypatch.setattr(process.random, "Random", refuse)
    for n in range(6, 13):
        report = validate_process(build_w(n), seed=n)
        assert report.passed, report.failures()
        assert (report.bilinear.checked, report.bilinear.failed) == (1000, 0)
    seeds = []
    monkeypatch.setattr(process.random, "Random",
                        lambda seed: seeds.append(seed) or Random(seed))
    report = validate_process(naive_even_w(6), seed=5)
    assert seeds == [5]
    assert report.bilinear.checked == 1000 and report.bilinear.failed


@pytest.mark.parametrize("n", (3, 4, 9, 12))
def test_validate_eliminates_once(monkeypatch, n):
    # the rank sizes the work check and the same rows feed is_nonnegative
    w = build_w(n)
    assert w.operator.nums  # built before counting starts
    calls = []

    def counting(vectors):
        calls.append(vectors)
        return gf2_echelon(vectors)

    monkeypatch.setattr(process, "gf2_echelon", counting)
    monkeypatch.setattr(diagop, "gf2_echelon", counting)
    assert validate_process(w).passed
    assert len(calls) == 1


def _traced_identity_oracle(op):
    """``channel_norm`` as tracing out the inputs and comparing the result
    with the identity operator on the outputs."""
    layout = op.layout
    inputs = [w.name for w in layout.wires if w.kind == "I"]
    outputs = [w.name for w in layout.wires if w.kind == "O"]
    return partial_trace(op, inputs) == DiagOperator(layout.restrict(outputs), {0: 1})


def _near_valid(rng, op):
    """``op`` without its input-free terms and with the identity
    coefficient 2^-|I|, then, half the time, one term added or changed."""
    i_mask = sum(op.layout.field_mask(w.name) for w in op.layout.wires if w.kind == "I")
    terms = {m: c for m, c in op.terms.items() if m & i_mask}
    terms[0] = F(1, 1 << i_mask.bit_count())
    if rng.random() < 0.5:
        m = rng.randrange(1 << op.layout.width)
        terms[m] = terms.get(m, 0) + F(rng.choice((-1, 1)), 1 << rng.randint(0, 4))
    return DiagOperator(op.layout, terms)


def test_channel_norm_equals_traced_identity():
    rng = random.Random(46)
    cases = []
    for k in range(2400):
        op = random_party_operator(rng, max_table_bits=6)
        cases.append(_near_valid(rng, op) if k % 3 == 0 else op)
    cases += [build_w(n).operator for n in range(3, 13)]
    cases += [naive_even_w(n) for n in range(4, 11, 2)]
    w3 = build_w(3).operator
    cases.append(DiagOperator(w3.layout, {**w3.terms, 0x1e: -w3.terms[0x1e]}))  # golden w3neg
    verdicts = []
    for op in cases:
        expected = _traced_identity_oracle(op)
        assert validate_process(op).channel_norm == expected
        verdicts.append(expected)
    assert sum(verdicts) > 500 and not all(verdicts)


def test_validate_builds_no_operator(monkeypatch):
    rng = random.Random(47)
    cases = [build_w(n) for n in range(3, 11)] + [naive_even_w(n) for n in (4, 6, 8)]
    cases += [random_party_operator(rng) for _ in range(200)]
    expected = [validate_process(op, seed=3) for op in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("validate_process built an operator")

    monkeypatch.setattr(diagop, "partial_trace", refuse)
    monkeypatch.setattr(process, "partial_trace", refuse, raising=False)
    monkeypatch.setattr(WireLayout, "restrict", refuse)
    assert [validate_process(op, seed=3) for op in cases] == expected


@pytest.mark.parametrize("n", range(3, 17))
def test_build_w_keeps_only_the_identity_term(n):
    op = build_w(n).operator
    assert _term_pass(op, _party_plan(op.layout))[0] == [0]


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_naive_even_w_keeps_identity_and_all_sigma_z(n):
    op = naive_even_w(n)
    full = (1 << op.layout.width) - 1
    assert sorted(_term_pass(op, _party_plan(op.layout))[0]) == [0, full]


def test_validate_passes_build_w_where_sampling_took_seconds():
    # Contracting every term took 0.7 s at n = 13 and doubled with n.
    start = time.perf_counter()
    for n in range(13, 17):
        report = validate_process(build_w(n))
        assert report.passed, report.failures()
        assert (report.bilinear.checked, report.bilinear.failed) == (1000, 0)
    assert time.perf_counter() - start < 10.0


def test_gf2_elimination_equals_brute_force():
    rng = random.Random(31)
    for _ in range(300):
        width = rng.randint(1, 8)
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 6))]
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        rows = gf2_echelon(vectors)
        assert 1 << len(rows) == len(span)
        assert all(r.bit_length() - 1 == p for p, r in rows.items())
        # reduced: each pivot is set in its own row only
        assert all([q for q in rows if r >> q & 1] == [p] for p, r in rows.items())
        row_span = {0}
        for r in rows.values():
            row_span |= {s ^ r for s in row_span}
        assert row_span == span
        kernel = [d for d in range(1 << width)
                  if all((d & v).bit_count() % 2 == 0 for v in vectors)]
        assert _gf2_kernel(vectors, width) == kernel


def test_validate_rejects_unpartitioned_layout():
    layout = WireLayout([Wire("env", "X"), Wire("env", "Y")])
    with pytest.raises(LayoutError):
        validate_process(DiagOperator(layout, {0: F(1, 2)}))


def test_loops_three_parties():
    loops = loop_decomposition(3)
    assert [l.edge_flips for l in loops] == [(0, 0, 0), (1, 1, 1)]
    assert all(l.weight == F(1, 2) for l in loops)


@pytest.mark.parametrize("n", range(3, 9))
def test_loop_weights_sum_to_one(n):
    assert sum((l.weight for l in loop_decomposition(n)), F(0)) == 1


def test_loops_four_parties_match_flip_patterns():
    loops = loop_decomposition(4)
    assert all(l.weight == F(1, 4) for l in loops)
    flips = {l.edge_flips for l in loops}
    # identity; flips into I1+I2+first wide bit; flips into I2+I0+second
    # wide bit; and their composition
    assert flips == {
        (0, 0, 0, 0),
        (1, 1, 2, 0),
        (0, 1, 1, 1),
        (1, 0, 3, 1),
    }


@pytest.mark.parametrize("outputs", ((0, 1, 1, 1, 1), (0, 1)))
def test_loop_refuses_an_output_tuple_of_another_length(outputs):
    loop = loop_decomposition(3)[1]
    with pytest.raises(ValueError, match=f"^need 3 output values, got {len(outputs)}$"):
        loop.apply(outputs)


@pytest.mark.parametrize("n", range(3, 7))
def test_loop_operator_equals_built_process(n):
    assert loop_operator(loop_decomposition(n)) == build_w(n).operator


def test_loop_operator_matches_sign_rule_oracle():
    op = loop_operator(loop_decomposition(3))
    assert to_dense(op) == dense_oracle(build_w(3).operator)


@pytest.mark.parametrize("n", (3, 5))
def test_broken_loop_gives_deterministic_chain(n):
    # fix one party's output; conditioned on the branch revealed by the
    # successor's received bit, every later message is the deterministic
    # forward of its predecessor's output
    w = build_w(n)
    o_layout = w.layout.restrict(w.output_wires)
    rng = random.Random(20)
    for breaker in range(n):
        for constant in (0, 1):
            for _ in range(4):
                o = [rng.randrange(2) for _ in range(n)]
                o[breaker] = constant
                dist = conditional_distribution(w, o)
                assert len(dist) == 2
                succ = (breaker + 1) % n
                seen_beta = set()
                for atom in dist:
                    beta = atom[succ] ^ constant
                    seen_beta.add(beta)
                    for j in range(n):
                        assert atom[j] == o[(j - 1) % n] ^ beta
                assert seen_beta == {0, 1}
