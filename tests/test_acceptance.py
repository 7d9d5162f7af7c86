"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its stated wall-clock budget."""

import random
import time
from fractions import Fraction

from acausal.diagop import (
    DiagOperator,
    Wire,
    WireLayout,
    from_dense,
    is_nonnegative,
    partial_trace,
    to_dense,
)
from acausal.game import (
    outcome_distribution,
    sample_game,
    success_probability_exact,
    winning_behavior,
)
from acausal.causal import (
    brute_force_causal,
    causal_bound,
    forwarding_strategy_success,
    repeated_success,
)
from acausal.process import (
    build_w,
    conditional_distribution,
    loop_decomposition,
    loop_operator,
    naive_even_w,
    validate_process,
)
from conftest import all_subgroups, is_group, random_operator
from test_process import W3_PATTERNS, W4_PATTERNS, pattern_mask

F = Fraction


class criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
            print(f"PASS criterion {self.number} [{self.label}] "
                  f"({elapsed:.2f}s < {self.budget}s)")
        else:
            print(f"FAIL criterion {self.number} [{self.label}]")
        return False


def test_criterion_1_w3_literal():
    with criterion(1, "W_3 literal and case table", 1.0):
        w = build_w(3)
        assert w.normalization == F(1, 8)
        assert w.operator.terms == {
            pattern_mask(w.layout, p): F(1, 8) for p in W3_PATTERNS
        }
        for o_idx in range(8):
            o = [(o_idx >> 2) & 1, (o_idx >> 1) & 1, o_idx & 1]
            dist = conditional_distribution(w, o)
            assert dist == {
                (o[2], o[0], o[1]): F(1, 2),
                (o[2] ^ 1, o[0] ^ 1, o[1] ^ 1): F(1, 2),
            }


def test_criterion_2_w4_literal():
    with criterion(2, "W_4 literal and case table", 1.0):
        w = build_w(4)
        assert w.normalization == F(1, 32)
        assert w.operator.terms == {
            pattern_mask(w.layout, p): F(1, 32) for p in W4_PATTERNS
        }
        for o_idx in range(32):
            o0, o1 = (o_idx >> 4) & 1, (o_idx >> 3) & 1
            o2, o3 = (o_idx >> 1) & 0b11, o_idx & 1
            dist = conditional_distribution(w, (o0, o1, o2, o3))
            assert dist == {
                (o3, o0, o1, o2): F(1, 4),
                (o3 ^ 1, o0, o1 ^ 1, o2 ^ 0b01): F(1, 4),
                (o3, o0 ^ 1, o1 ^ 1, o2 ^ 0b10): F(1, 4),
                (o3 ^ 1, o0 ^ 1, o1, o2 ^ 0b11): F(1, 4),
            }


def test_criterion_3_certain_winning():
    with criterion(3, "certain winning and closed-form marginals", 30.0):
        for n in (*range(3, 9), 16, 64):
            result = success_probability_exact(n)
            assert result.per_m == tuple([F(1)] * n)
            assert result.p_succ == 1
        for n in (3, 4):
            w = build_w(n)
            for m in range(n):
                for a_idx in range(1 << n):
                    a = tuple((a_idx >> (n - 1 - i)) & 1 for i in range(n))
                    behaviors = [
                        winning_behavior(n, m, i, a[i]) for i in range(n)
                    ]
                    dist = outcome_distribution(w, behaviors)
                    parity = (sum(a) - a[m]) % 2
                    for xm in (0, 1):
                        marginal = sum(
                            (p for x, p in dist.items() if x[m] == xm), F(0)
                        )
                        expected = F(1 + (-1) ** ((xm + parity) % 2), 2)
                        assert marginal == expected


def test_criterion_4_causal_gap():
    with criterion(4, "causal bound met and tight", 60.0):
        assert brute_force_causal(2).value == causal_bound(2) == F(3, 4)
        assert brute_force_causal(3).value == causal_bound(3) == F(5, 6)
        for n in (16, 64):
            assert brute_force_causal(n).value == causal_bound(n)
        for n in (*range(3, 9), 16, 64):
            assert forwarding_strategy_success(n).value == causal_bound(n)


def test_criterion_5_invalid_even_construction():
    with criterion(5, "naive even construction rejected", 10.0):
        bad = validate_process(naive_even_w(4))
        assert bad.term_structure is False
        assert bad.bilinear.failed >= 1
        good = validate_process(build_w(4))
        assert good.passed
        assert good.bilinear.failed == 0


def test_criterion_6_oracle_equivalence():
    with criterion(6, "loop oracle equality and sampler agreement", 60.0):
        for n in range(3, 9):
            loops = loop_decomposition(n)
            assert loop_operator(loops) == build_w(n).operator
            sampled = sample_game(n, 100000, seed=2026)
            assert abs(sampled.estimate - 1.0) <= 0.01
            assert sampled.losses == 0


def assert_group_sum_dichotomy(layout, group):
    """A subgroup's sum is nonnegative, with dense values 0 and |G| only."""
    assert is_group(group)
    total = DiagOperator(layout, dict.fromkeys(group, 1))
    assert is_nonnegative(total)
    assert set(to_dense(total)) <= {F(0), F(len(group))}


def test_criterion_7_property_suites():
    with criterion(7, "property suites", 60.0):
        # (a) dense/parity roundtrip on 500 random operators
        rng = random.Random(77)
        for _ in range(500):
            op = random_operator(rng, max_width=12)
            assert from_dense(op.layout, to_dense(op)) == op

        # (b) group-sum dichotomy: all subgroups on up to 5 wires, plus
        # 200 random subgroups on 6 wires
        for wires in range(2, 6):
            layout = WireLayout([Wire("env", "R", wires)])
            even = [m for m in range(1 << wires) if m.bit_count() % 2 == 0]
            subgroups = all_subgroups(even)
            if wires == 5:
                assert len(subgroups) == 67
            for group in subgroups:
                assert_group_sum_dichotomy(layout, group)
        layout6 = WireLayout([Wire("env", "R", 6)])
        even6 = [m for m in range(64) if m.bit_count() % 2 == 0]
        for _ in range(200):
            span = {0}
            for v in rng.sample(even6, rng.randint(1, 5)):
                span |= {x ^ v for x in span}
            assert_group_sum_dichotomy(layout6, span)

        # (c) channel normalization for every built process
        for n in range(3, 9):
            w = build_w(n)
            traced = partial_trace(w.operator, w.input_wires)
            assert traced == DiagOperator(w.layout.restrict(w.output_wires), {0: 1})

        # (d) repetition drives the causal ceiling below one percent
        assert repeated_success(3, 26) < F(1, 100)
        values = [repeated_success(3, r) for r in range(1, 27)]
        assert all(b < a for a, b in zip(values, values[1:]))
