import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from acausal import diagop
from acausal.diagop import (
    DiagOperator,
    FormatError,
    LayoutError,
    Wire,
    WireLayout,
    channel_apply,
    dense_csv,
    from_dense,
    gf2_echelon,
    is_nonnegative,
    multiply,
    operator_from_json,
    operator_to_json,
    parse_dense_csv,
    partial_trace,
    point_mass,
    to_dense,
)
from acausal.process import build_w, naive_even_w
from conftest import (
    dense_csv_oracle,
    dense_oracle,
    is_group,
    mask_fields,
    mask_from_fields,
    random_dyadic_distribution,
    random_layout,
    random_operator,
)

F = Fraction


def bit_layout(*names):
    return WireLayout([Wire("env", name) for name in names])


def test_layout_positions_and_packing():
    layout = WireLayout([Wire(0, "I"), Wire(1, "I", 2), Wire(0, "O")])
    assert layout.width == 4
    assert layout.field("I0") == (3, 1)
    assert layout.field("I1") == (1, 2)
    assert layout.field("O0") == (0, 1)
    idx = layout.pack({"I0": 1, "I1": 0b10, "O0": 0})
    assert idx == 0b1100
    assert layout.unpack(idx) == (1, 2, 0)
    with pytest.raises(LayoutError):
        WireLayout([Wire(0, "I"), Wire(0, "I")])
    with pytest.raises(LayoutError):
        Wire(0, "I", 0)
    with pytest.raises(LayoutError):
        layout.field("I9")


def test_multiply_involution():
    rng = random.Random(1)
    for _ in range(40):
        layout = random_operator(rng, max_width=8).layout
        mono = DiagOperator(layout, {rng.randrange(1 << layout.width): 1})
        assert multiply(mono, mono) == DiagOperator(layout, {0: 1})


def test_multiply_xor_masks():
    layout = bit_layout("A", "B", "C")
    g1 = DiagOperator(layout, {0b011: 1})
    g2 = DiagOperator(layout, {0b101: 1})
    assert multiply(g1, g2).terms == {0b110: F(1)}


def test_multiply_identity_is_neutral():
    rng = random.Random(2)
    for _ in range(20):
        a = random_operator(rng, max_width=8)
        assert multiply(a, DiagOperator(a.layout, {0: 1})) == a


def test_multiply_layout_mismatch():
    with pytest.raises(LayoutError):
        multiply(DiagOperator(bit_layout("X"), {0: 1}), DiagOperator(bit_layout("Y"), {0: 1}))


def test_partial_trace_of_conditional_is_identity():
    # random valid conditional distribution P(X|Y), trace out X
    rng = random.Random(4)
    layout = WireLayout([Wire("env", "X", 2), Wire("env", "Y", 2)])
    for _ in range(10):
        dense = [F(0)] * 16
        for y in range(4):
            for x, p in enumerate(random_dyadic_distribution(rng, 4)):
                dense[(x << 2) | y] = p
        cond = from_dense(layout, dense)
        assert partial_trace(cond, ["X"]) == DiagOperator(layout.restrict(["Y"]), {0: 1})


def test_partial_trace_all_wires_equals_trace():
    rng = random.Random(5)
    for _ in range(20):
        a = random_operator(rng, max_width=8)
        scalar = partial_trace(a, [w.name for w in a.layout.wires])
        assert scalar.layout.width == 0
        assert scalar.terms.get(0, F(0)) == sum(to_dense(a))


def test_partial_trace_unknown_wire():
    with pytest.raises(LayoutError):
        partial_trace(DiagOperator(bit_layout("X"), {0: 1}), ["nope"])


def test_partial_trace_matches_dense_oracle():
    rng = random.Random(6)
    for _ in range(15):
        a = random_operator(rng, max_width=8)
        if len(a.layout.wires) < 2:
            continue
        traced_wire = a.layout.wires[rng.randrange(len(a.layout.wires))].name
        result = partial_trace(a, [traced_wire])
        dense = dense_oracle(a)
        shift, w = a.layout.field(traced_wire)
        expected = []
        for idx in range(1 << result.layout.width):
            # reinsert every traced value at the removed field
            lo = idx & ((1 << shift) - 1)
            hi = idx >> shift
            total = F(0)
            for v in range(1 << w):
                total += dense[(hi << (shift + w)) | (v << shift) | lo]
            expected.append(total)
        assert to_dense(result) == expected


def test_partial_trace_repacks_like_mask_fields():
    # interleaved wires of width 1-3, traced on the empty set, every wire,
    # non-adjacent subsets and random ones, against a wire-by-wire repack
    rng = random.Random(62)
    for _ in range(150):
        a = random_operator(rng, max_width=14, max_terms=20)
        names = list(a.layout.names)
        subsets = ([], names, names[::2], names[1::2],
                   rng.sample(names, rng.randint(0, len(names))))
        for traced in subsets:
            kept = [name for name in names if name not in traced]
            traced_mask = sum(a.layout.field_mask(name) for name in traced)
            traced_width = sum(a.layout.field(name)[1] for name in traced)
            expected = {mask_fields(a.layout, mask, kept): v
                        for mask, v in a.nums.items() if not mask & traced_mask}
            out_layout = a.layout.restrict(kept)
            assert partial_trace(a, traced) == diagop._make(
                out_layout, expected, a.log2den - traced_width)


def test_channel_apply_point_masses():
    layout = WireLayout([Wire("env", "X"), Wire("env", "Y")])
    state0 = point_mass(WireLayout([Wire("env", "Y")]), 0)
    ident = from_dense(layout, [1, 0, 0, 1])  # P(x|y) = [x == y]
    flip = from_dense(layout, [0, 1, 1, 0])  # P(x|y) = [x == y ^ 1]
    out = channel_apply(ident, state0)
    assert to_dense(out) == [F(1), F(0)]
    out = channel_apply(flip, state0)
    assert to_dense(out) == [F(0), F(1)]


def test_channel_apply_matches_composition_oracle():
    rng = random.Random(7)
    for _ in range(20):
        wx, wy = rng.randint(1, 2), rng.randint(1, 2)
        layout = WireLayout([Wire("env", "X", wx), Wire("env", "Y", wy)])
        dense = [F(0)] * (1 << (wx + wy))
        cols = []
        for y in range(1 << wy):
            col = random_dyadic_distribution(rng, 1 << wx)
            cols.append(col)
            for x, p in enumerate(col):
                dense[(x << wy) | y] = p
        channel = from_dense(layout, dense)
        state_vec = random_dyadic_distribution(rng, 1 << wy)
        state = from_dense(WireLayout([Wire("env", "Y", wy)]), state_vec)
        out = channel_apply(channel, state)
        expected = [
            sum((cols[y][x] * state_vec[y] for y in range(1 << wy)), F(0))
            for x in range(1 << wx)
        ]
        assert to_dense(out) == expected
        assert sum(to_dense(out)) == 1
        assert is_nonnegative(out)


def test_channel_apply_places_interleaved_state_wires():
    # channel (Y1, X, Y0), state (Y0, Y1): the state's wires come in the
    # other order and sit on both sides of the output wire
    rng = random.Random(71)
    for _ in range(20):
        wy1, wx, wy0 = (rng.randint(1, 2) for _ in range(3))
        layout = WireLayout([Wire("env", "Y1", wy1), Wire("env", "X", wx),
                             Wire("env", "Y0", wy0)])
        state_layout = WireLayout([Wire("env", "Y0", wy0), Wire("env", "Y1", wy1)])
        cols = {(y0, y1): random_dyadic_distribution(rng, 1 << wx)
                for y0 in range(1 << wy0) for y1 in range(1 << wy1)}
        dense = [F(0)] * (1 << layout.width)
        for (y0, y1), col in cols.items():
            for x, p in enumerate(col):
                dense[layout.pack({"Y1": y1, "X": x, "Y0": y0})] = p
        state_vec = random_dyadic_distribution(rng, 1 << state_layout.width)
        out = channel_apply(from_dense(layout, dense), from_dense(state_layout, state_vec))
        assert out.layout == layout.restrict(["X"])
        expected = [
            sum((col[x] * state_vec[state_layout.pack({"Y0": y0, "Y1": y1})]
                 for (y0, y1), col in cols.items()), F(0))
            for x in range(1 << wx)
        ]
        assert to_dense(out) == expected


def test_channel_apply_missing_wires():
    with pytest.raises(LayoutError):
        channel_apply(
            DiagOperator(bit_layout("X"), {0: 1}), point_mass(bit_layout("Y"), 0)
        )


def test_channel_apply_width_mismatch():
    channel = DiagOperator(WireLayout([Wire("env", "X"), Wire("env", "Y", 2)]), {0: 1})
    with pytest.raises(LayoutError, match="Y"):
        channel_apply(channel, point_mass(bit_layout("Y"), 0))


def test_dense_roundtrip_500_random_operators():
    rng = random.Random(8)
    for _ in range(500):
        a = random_operator(rng, max_width=12)
        assert from_dense(a.layout, to_dense(a)) == a


def test_dense_matches_sign_rule_oracle():
    rng = random.Random(9)
    for _ in range(40):
        a = random_operator(rng, max_width=10)
        assert to_dense(a) == dense_oracle(a)


def test_monomial_entry_semantics():
    rng = random.Random(10)
    for _ in range(30):
        width = rng.randint(1, 10)
        layout = WireLayout([Wire("env", "R", width)])
        mask = rng.randrange(1 << width)
        dense = to_dense(DiagOperator(layout, {mask: 1}))
        for b in range(1 << width):
            expected = -1 if (b & mask).bit_count() & 1 else 1
            assert dense[b] == expected
    assert sum(to_dense(DiagOperator(layout, {0: 1}))) == 1 << width
    if mask:
        assert sum(to_dense(DiagOperator(layout, {mask: 1}))) == 0


def test_from_dense_fastest_bit_pattern():
    # sigma_z on the fastest-varying (last-declared) bit alternates entries
    layout = bit_layout("A", "B")
    op = from_dense(layout, [1, -1, 1, -1])
    assert op.terms == {mask_from_fields(layout, {"B": 1}): F(1)}


def test_zero_width_scalars():
    scalar = WireLayout([])
    op = DiagOperator(scalar, {0: F(3, 4)})
    assert to_dense(op) == [F(3, 4)]
    assert sum(to_dense(op)) == F(3, 4)
    assert from_dense(scalar, [F(3, 4)]) == op


def test_point_mass_entries():
    layout = bit_layout("A", "B")
    pm = point_mass(layout, 2)
    assert to_dense(pm) == [F(0), F(0), F(1), F(0)]
    assert sum(to_dense(pm)) == 1


def test_is_nonnegative():
    layout = bit_layout("X")
    assert is_nonnegative(DiagOperator(layout, {0: 1}))
    assert not is_nonnegative(DiagOperator(layout, {0b1: 1}))


def oracle_nonnegative(op):
    return all(v >= 0 for v in dense_oracle(op))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_is_nonnegative_equals_dense_oracle(rng):
    op = random_operator(rng)
    assert is_nonnegative(op) == oracle_nonnegative(op)
    # Lifted by its most negative entry, the operator touches zero.
    lift = -min(dense_oracle(op), default=0)
    lifted = DiagOperator(op.layout, {**op.terms, 0: op.terms.get(0, 0) + lift})
    assert is_nonnegative(lifted) and oracle_nonnegative(lifted)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_is_nonnegative_on_full_rank_vectors(rng):
    layout = random_layout(rng, max_width=8)
    values = [F(rng.randint(0, 8), 1 << rng.randint(0, 3)) for _ in range(1 << layout.width)]
    op = from_dense(layout, values)
    assume(len(gf2_echelon(op.nums)) == layout.width)
    assert is_nonnegative(op) and oracle_nonnegative(op)
    values[rng.randrange(len(values))] = F(-rng.randint(1, 8), 1 << rng.randint(0, 3))
    op = from_dense(layout, values)
    assert not is_nonnegative(op) and not oracle_nonnegative(op)


def timed_nonnegative(op):
    start = time.perf_counter()
    result = is_nonnegative(op)
    assert time.perf_counter() - start < 1.0
    return result


def test_is_nonnegative_on_the_group_sums():
    for n in range(3, 17):
        assert timed_nonnegative(build_w(n).operator)
    for n in range(4, 11, 2):
        assert timed_nonnegative(naive_even_w(n))


def test_is_nonnegative_transforms_2_to_the_rank_entries(monkeypatch):
    lengths = []
    wht = diagop._wht
    monkeypatch.setattr(diagop, "_wht", lambda vec: lengths.append(len(vec)) or wht(vec))
    layout = WireLayout([Wire("env", "R", 40)])
    a, b = (1 << 39) | 0b101, (1 << 20) | (1 << 7)
    # Entries 1 +- 1 +- 1 +- 1, down to -2 where both parities are odd.
    op = DiagOperator(layout, {0: 1, a: 1, b: 1, a ^ b: -1})
    assert not timed_nonnegative(op)
    assert timed_nonnegative(DiagOperator(layout, {0: 3, a: 1, b: 1, a ^ b: -1}))
    assert lengths == [4, 4]


def test_non_dyadic_rejected():
    with pytest.raises(ValueError):
        DiagOperator(bit_layout("X"), {0: F(1, 3)})


def test_abelian_psd_trivial_groups():
    layout = bit_layout("A", "B")
    assert is_group({0, 0b11})
    total = DiagOperator(layout, {0: 1, 0b11: 1})
    assert is_nonnegative(total)
    assert to_dense(total) == [F(2), F(0), F(0), F(2)]

    one = bit_layout("X")
    assert is_group({0, 1})
    assert is_nonnegative(DiagOperator(one, {0: 1, 1: 1}))

    assert not is_group({1})
    assert not is_nonnegative(DiagOperator(one, {1: 1}))


def test_group_implies_nonneg_on_random_sets():
    rng = random.Random(11)
    layout = WireLayout([Wire("env", "R", 5)])
    for _ in range(60):
        masks = {0} | {rng.randrange(32) for _ in range(rng.randint(0, 4))}
        if is_group(masks):
            assert is_nonnegative(DiagOperator(layout, dict.fromkeys(masks, 1)))


def test_json_roundtrip():
    rng = random.Random(13)
    for _ in range(25):
        a = random_operator(rng, max_width=10)
        assert operator_from_json(operator_to_json(a)) == a


def test_dense_csv_roundtrip():
    rng = random.Random(14)
    a = random_operator(rng, max_width=8)
    lines = dense_csv(a).splitlines()
    assert lines[0] == "index,numerator,log2_denominator"
    assert parse_dense_csv(lines) == to_dense(a)


def nonzero_dyadic(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 8), 1 << rng.randint(0, 5))


def dense_route_operators(rng, width):
    """Operators on ``width`` bits: empty, identity-only, rank-deficient
    masks and full-rank masks, with negative numerators and mixed
    denominators."""
    layout = WireLayout([Wire("env", "R", width)] if width else [])
    span = [0]
    for _ in range(min(width, 3)):
        v = rng.randrange(1 << width)
        span += [s ^ v for s in span]
    full = [1 << b for b in range(width)] + [rng.randrange(1 << width) for _ in range(4)]
    return [DiagOperator(layout, {}), DiagOperator(layout, {0: nonzero_dyadic(rng)}),
            DiagOperator(layout, {m: nonzero_dyadic(rng) for m in span}),
            DiagOperator(layout, {m: nonzero_dyadic(rng) for m in full})]


@pytest.mark.parametrize("width", range(13))
def test_dense_route_matches_the_sign_rule_oracle(width):
    # 1 to 4,096 CSV rows: one partial 1,000-row block up to width 9, then
    # full blocks, the crossings at rows 999/1000/1001 and a partial last one
    rng = random.Random(100 + width)
    ranks = set()
    for _ in range(3):
        for a in dense_route_operators(rng, width):
            ranks.add(len(gf2_echelon(a.nums)))
            dense = to_dense(a)
            assert dense == dense_oracle(a)
            text = dense_csv(a)
            assert text == dense_csv_oracle(a)
            assert parse_dense_csv(text.splitlines()) == dense
    assert {0, width} <= ranks and (width < 4 or len(ranks) > 2)


def test_dense_export_transforms_2_to_the_rank_entries(monkeypatch):
    lengths = []
    wht = diagop._wht
    monkeypatch.setattr(diagop, "_wht", lambda vec: lengths.append(len(vec)) or wht(vec))
    w = build_w(8).operator
    assert w.layout.width == 18 and len(gf2_echelon(w.nums)) == 7
    lines = dense_csv(w).splitlines()
    dense = to_dense(w)
    assert lengths == [1 << 7, 1 << 7]
    assert len(lines) == (1 << 18) + 1 and len(dense) == 1 << 18
    assert set(dense) == {0, F(1, 4)}


def test_dense_csv_equals_the_per_row_oracle_on_the_processes():
    for op in [build_w(n).operator for n in range(3, 10)] + [naive_even_w(n) for n in (4, 6, 8)]:
        assert dense_csv(op) == dense_csv_oracle(op)


def test_parse_dense_csv_skips_the_header_only_as_the_first_line():
    header = "index,numerator,log2_denominator"
    assert parse_dense_csv(["", f" {header} ", "0,1,0", "", "1,1,2"]) == [1, F(1, 4)]
    assert parse_dense_csv(["0,1,0"]) == [1]
    for lines, bad in (([header, "0,1,0", "indexes are fun", "1,1,0"], 3),
                       (["0,1,0", header, "1,1,0"], 2),
                       (["", header, "", header, "0,1,0"], 4),
                       ([header + ",x", "0,1,0"], 1),
                       (["indexes are fun", "0,1,0"], 1)):
        with pytest.raises(FormatError, match=f"^line {bad}: "):
            parse_dense_csv(lines)


@pytest.mark.parametrize("row", ["0,1", "0,1,0,5", "0,x,0", "0,1,-1", "1,1,0"])
def test_dense_csv_malformed_row_raises_format_error(row):
    lines = ["index,numerator,log2_denominator", row]
    with pytest.raises(FormatError, match="^line 2: "):
        parse_dense_csv(lines)


def test_parsers_refuse_log2den_over_the_bound():
    bound = diagop.MAX_LOG2DEN
    assert parse_dense_csv([f"0,3,{bound}"]) == [F(3, 1 << bound)]

    def document(log2den):
        # a shared denominator would shift the first numerator by log2den bits
        return {"layout": [{"party": 0, "kind": "I", "width": 1}],
                "terms": [{"mask": "0x0", "num": 1, "log2den": 0},
                          {"mask": "0x1", "num": 1, "log2den": log2den}]}

    assert operator_from_json(document(bound)).log2den == bound
    start = time.perf_counter()
    for log2den in (bound + 1, 40_000_000_000):
        with pytest.raises(FormatError, match=f"^line 1: log2den must lie in 0..{bound}, "):
            parse_dense_csv([f"0,1,{log2den}"])
        with pytest.raises(FormatError, match=f"^terms\\[1\\]: log2den must lie in 0..{bound}, "):
            operator_from_json(document(log2den))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("second", ["0x03", "0x0003"])
def test_operator_file_with_a_repeated_mask_is_refused(second):
    doc = {"layout": [{"party": 0, "kind": "I", "width": 2}],
           "terms": [{"mask": "0x0", "num": 1, "log2den": 2},
                     {"mask": "0x3", "num": 1, "log2den": 2},
                     {"mask": second, "num": -1, "log2den": 2}]}
    with pytest.raises(FormatError, match=r"^terms\[2\]: .*terms\[1\]"):
        operator_from_json(doc)


CSV_LOG2DENS = (st.integers(-3, 40) | st.integers(diagop.MAX_LOG2DEN - 2, diagop.MAX_LOG2DEN + 2)
                | st.integers(10**9, 10**12))
CSV_ROW = st.builds("{},{},{}".format, st.integers(-1, 4), st.integers(-10**6, 10**6),
                    CSV_LOG2DENS)
INDEXED_ROWS = st.lists(st.tuples(st.integers(-10**6, 10**6), CSV_LOG2DENS), max_size=5).map(
    lambda rows: [f"{i},{num},{k}" for i, (num, k) in enumerate(rows)])


@settings(max_examples=300, deadline=None)
@given(rows=INDEXED_ROWS | st.lists(CSV_ROW | st.text(max_size=12), max_size=6),
       header=st.booleans())
def test_parse_dense_csv_returns_a_list_or_raises_format_error(rows, header):
    lines = ["index,numerator,log2_denominator"] * header + rows
    try:
        values = parse_dense_csv(lines)
    except FormatError:
        return
    data = [line.strip() for line in lines if line.strip()]
    if data[:1] == ["index,numerator,log2_denominator"]:
        data = data[1:]
    assert isinstance(values, list) and len(values) == len(data)
    assert all(isinstance(v, Fraction) for v in values)
