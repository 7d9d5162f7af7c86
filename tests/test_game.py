import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from acausal import diagop, game
from acausal.diagop import DiagOperator, LayoutError, Wire, WireLayout, to_dense
from acausal.game import (
    GameRound,
    LocalBehavior,
    behavior_from_table,
    outcome_distribution,
    sample_game,
    success_probability_exact,
    wide_code,
    winning_behavior,
)
from acausal.process import UnsupportedPartyCount, build_w, loop_decomposition
import conftest
from conftest import behavior_ops, pairing_outcome_oracle, pairing_success_oracle, sampler_oracle

F = Fraction


def sign(bit):
    return -1 if bit & 1 else 1


def test_game_round_validation():
    r = GameRound(n=3, m=1, inputs=(1, 0, 1))
    assert r.target == 0
    given = [1, 0, 1]
    listed = GameRound(n=3, m=1, inputs=given)
    given[1] = 1
    assert type(listed.inputs) is tuple
    assert listed == r and hash(listed) == hash(r)
    with pytest.raises(ValueError):
        GameRound(n=3, m=3, inputs=(0, 0, 0))
    with pytest.raises(ValueError):
        GameRound(n=3, m=0, inputs=(0, 0))
    with pytest.raises(ValueError):
        GameRound(n=3, m=0, inputs=(0, 2, 0))
    with pytest.raises(ValueError):
        GameRound(n=3, m=0, inputs=[0, 2, 0])
    for n in (-3, 0):
        with pytest.raises(ValueError, match=f"^party count must be >= 2, got {n}$"):
            GameRound(n=n, m=0, inputs=(1,))


def test_wide_code_matches_four_party_table():
    assert {m: wide_code(4, m) for m in range(4)} == {
        0: "first",
        1: "both",
        2: "ignore",
        3: "second",
    }


def test_winning_behavior_single_bit_structure():
    # starter (i = m+1) pins its output to the bare input bit; everyone
    # else forwards input-xor-outcome; all read the outcome off the input
    for a in (0, 1):
        starter = winning_behavior(3, 0, 1, a)
        other = winning_behavior(3, 0, 2, a)
        for x in (0, 1):
            assert behavior_ops(starter)[x].terms == {
                0b00: F(1, 4),
                0b01: F(sign(x), 4),
                0b10: F(sign(a), 4),
                0b11: F(sign(a) * sign(x), 4),
            }
            assert behavior_ops(other)[x].terms == {
                0b00: F(1, 4),
                0b01: F(sign(x), 4),
                0b10: F(sign(a ^ x), 4),
                0b11: F(sign(a ^ x) * sign(x), 4),
            }


def test_winning_behavior_is_tensor_of_factors():
    # the strategy operator splits into an output factor and an input factor
    for (m, i, a, x) in [(0, 1, 1, 0), (2, 0, 0, 1), (1, 2, 1, 1)]:
        beh = winning_behavior(3, m, i, a)
        a_eff = a if i == (m + 1) % 3 else a ^ x
        q_o = {0: F(1, 2), 1: F(sign(a_eff), 2)}
        q_i = {0: F(1, 2), 1: F(sign(x), 2)}
        op = behavior_ops(beh)[x]
        assert op.layout == WireLayout([Wire(i, "O"), Wire(i, "I")])
        assert op.terms == {(mo << 1) | mi: co * ci
                            for mo, co in q_o.items() for mi, ci in q_i.items()}


def test_wide_sender_operators_match_table():
    # party 2 of four: two-bit output, one-bit input; masks (mo << 1) | mi
    for a in (0, 1):
        for x in (0, 1):
            expected_o = {
                0: {0: F(1, 4), 0b10: F(sign(a ^ x), 4)},
                1: {0: F(1, 4), 0b11: F(sign(a), 4)},
                2: {0: F(1, 4)},
                3: {0: F(1, 4), 0b01: F(sign(a ^ x), 4)},
            }
            for m, o_terms in expected_o.items():
                terms = {}
                for mo, co in o_terms.items():
                    for mi, ci in {0: F(1, 2), 1: F(sign(x), 2)}.items():
                        terms[(mo << 1) | mi] = co * ci
                beh = winning_behavior(4, m, 2, a)
                assert behavior_ops(beh)[x].terms == terms, (m, a, x)


def test_wide_receiver_operators_match_table():
    # party 3 of four: one-bit output, two-bit input; masks (mo << 2) | mi
    for a in (0, 1):
        for x in (0, 1):
            cases = {
                0: ({0: F(1, 2), 1: F(sign(a ^ x), 2)},
                    {0: F(1, 2), 0b10: F(sign(x), 2)}),
                1: ({0: F(1, 2), 1: F(sign(a ^ x), 2)},
                    {0: F(1, 2), 0b11: F(sign(x), 2)}),
                2: ({0: F(1, 2), 1: F(sign(a), 2)},
                    {0: F(1, 2)}),
                3: ({0: F(1, 2), 1: F(sign(a ^ x), 2)},
                    {0: F(1, 2), 0b01: F(sign(x), 2)}),
            }
            for m, (o_terms, i_terms) in cases.items():
                terms = {}
                for mo, co in o_terms.items():
                    for mi, ci in i_terms.items():
                        terms[(mo << 2) | mi] = co * ci
                beh = winning_behavior(4, m, 3, a)
                assert behavior_ops(beh)[x].terms == terms, (m, a, x)


@pytest.mark.parametrize("n", range(3, 9))
def test_winning_behaviors_are_normalized(n):
    for m in range(n):
        for i in range(n):
            for a in (0, 1):
                lookup, log2den = winning_behavior(n, m, i, a).outcome_lookup()
                assert all(sum(p for *_, p in choices) == 1 << log2den
                           for choices in lookup)


def lookup_from_ops(beh):
    """Outcome lookup derived from the operators of ``behavior_ops`` through
    the rank-route ``to_dense``: exact entries over their largest
    denominator."""
    wo, wi = (w.width for w in beh.layout.wires)
    dense = [to_dense(op) for op in behavior_ops(beh)]
    den = max(p.denominator for vec in dense for p in vec)
    lookup = [
        [(x, o, int(vec[(o << wi) | v] * den))
         for x, vec in enumerate(dense) for o in range(1 << wo) if vec[(o << wi) | v]]
        for v in range(1 << wi)
    ]
    return lookup, den.bit_length() - 1


@pytest.mark.parametrize("n", range(3, 13))
def test_outcome_lookup_equals_the_ops_view(n):
    for m in range(n):
        for i in range(n):
            for a in (0, 1):
                beh = winning_behavior(n, m, i, a)
                assert beh.outcome_lookup() == lookup_from_ops(beh), (m, i, a)


def test_behavior_constructor_reduces_and_refuses():
    layout = WireLayout([Wire(0, "O"), Wire(0, "I")])
    beh = LocalBehavior(0, layout, [[2, 0, 0, 2], [0, 2, 2, 0]], log2den=2)
    assert (beh.tables, beh.log2den) == (((1, 0, 0, 1), (0, 1, 1, 0)), 1)
    for tables, message in (
        ([[1, 0, 0, 0], [0, 0, 0, 0]], "is not normalized at input 1"),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], "is not normalized at input 0"),
        ([[2, 0, 0, 1], [-1, 1, 0, 0]], "has a negative weight at input 0"),
    ):
        with pytest.raises(ValueError, match=f"^behavior of party 0 {message}$"):
            LocalBehavior(0, layout, tables)
    good = [[1, 0, 0, 1], [0, 1, 1, 0]]
    for wires in (
        [Wire(0, "I"), Wire(0, "O")],  # (I, O) order
        [Wire(1, "O"), Wire(1, "I")],  # another party's wires
        [Wire(0, "O", 2)],  # one wire
    ):
        with pytest.raises(LayoutError, match=r"^party 0 behavior must sit on its wires \(O0, I0\)"):
            LocalBehavior(0, WireLayout(wires), good)
    with pytest.raises(ValueError, match="one table per outcome"):
        LocalBehavior(0, layout, [[1, 0, 0, 1]])
    with pytest.raises(LayoutError, match="need 4 entries"):
        LocalBehavior(0, layout, [[1, 0, 0], [0, 1, 1, 0]])
    with pytest.raises(ValueError, match="log2den must be >= 0"):
        LocalBehavior(0, layout, [[1, 0, 0, 1], [0, 1, 1, 0]], log2den=-1)
    for entry in ((2, 0), (-1, 0), (0, 2), (0, -1)):
        with pytest.raises(ValueError, match="^table entry 1 needs a bit x and a 1-bit o$"):
            behavior_from_table(0, 1, 1, [(0, 0), entry])


def test_game_builds_no_diag_operator(monkeypatch):
    # every evaluator reads the integer tables; patching diagop._make also
    # refuses from_dense, which game no longer imports
    w = build_w(6)
    winning_behavior.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the game built a DiagOperator")

    monkeypatch.setattr(DiagOperator, "__init__", refuse)
    monkeypatch.setattr(diagop, "_make", refuse)
    assert success_probability_exact(9).p_succ == 1
    assert sample_game(8, 200, 0).wins == 200
    behaviors = [winning_behavior(6, 2, i, i & 1) for i in range(6)]
    assert sum(outcome_distribution(w, behaviors).values()) == 1


def test_winning_behavior_argument_errors():
    with pytest.raises(UnsupportedPartyCount):
        winning_behavior(2, 0, 0, 0)
    with pytest.raises(ValueError):
        winning_behavior(3, 3, 0, 0)
    with pytest.raises(ValueError):
        winning_behavior(3, 0, 5, 0)
    with pytest.raises(ValueError):
        winning_behavior(3, 0, 0, 2)


def three_party_formula(m, a, x):
    """The fully expanded three-party outcome distribution, case by case."""
    a0, a1, a2 = a
    x0, x1, x2 = x
    if m == 0:
        signs = [
            (x0 + x1 + x2 + a0 + a1),
            (x0 + a1 + a2),
            (x1 + x2 + a0 + a2),
        ]
    elif m == 1:
        signs = [
            (x0 + x2 + a0 + a1),
            (x0 + x1 + x2 + a1 + a2),
            (x1 + a0 + a2),
        ]
    else:
        signs = [
            (x2 + a0 + a1),
            (x0 + x1 + a1 + a2),
            (x0 + x1 + x2 + a0 + a2),
        ]
    return F(1 + sum(sign(s) for s in signs), 8)


def test_three_party_distribution_matches_expansion():
    w = build_w(3)
    for m in range(3):
        for a_idx in range(8):
            a = ((a_idx >> 2) & 1, (a_idx >> 1) & 1, a_idx & 1)
            behaviors = [winning_behavior(3, m, i, a[i]) for i in range(3)]
            dist = outcome_distribution(w, behaviors)
            assert sum(dist.values()) == 1
            for x, p in dist.items():
                assert p == three_party_formula(m, a, x), (m, a, x)


@pytest.mark.parametrize("n", (3, 4))
def test_marginals_match_closed_form(n):
    w = build_w(n)
    for m in range(n):
        for a_idx in range(1 << n):
            a = tuple((a_idx >> (n - 1 - i)) & 1 for i in range(n))
            behaviors = [winning_behavior(n, m, i, a[i]) for i in range(n)]
            dist = outcome_distribution(w, behaviors)
            for xm in (0, 1):
                marginal = sum(
                    (p for x, p in dist.items() if x[m] == xm), F(0)
                )
                parity = (sum(a) - a[m]) % 2
                assert marginal == F(1 + sign(xm + parity), 2)


def test_constant_behaviors_give_point_distribution():
    # nobody reads anything: the outcome distribution is a product point
    # mass, identical for every referee value and every input assignment
    w = build_w(3)
    consts = (1, 0, 1)
    behaviors = [
        behavior_from_table(i, 1, 1, [(consts[i], 0), (consts[i], 0)])
        for i in range(3)
    ]
    assert outcome_distribution(w, behaviors) == {consts: F(1)}


def test_outcome_distribution_party_mismatch():
    w = build_w(3)
    behaviors = [winning_behavior(3, 0, i, 0) for i in (0, 2, 1)]
    with pytest.raises(Exception):
        outcome_distribution(w, behaviors)


@pytest.mark.parametrize("n", (3, 4))
def test_success_probability_is_certain(n):
    result = success_probability_exact(n)
    assert result.per_m == tuple([F(1)] * n)
    assert result.p_succ == 1


def test_success_probability_rejects_two_parties():
    calls = (
        lambda n: winning_behavior(n, 0, 0, 0),
        lambda n: success_probability_exact(n),
        lambda n: sample_game(n, 10, 0),
    )
    for call in calls:
        with pytest.raises(UnsupportedPartyCount,
                           match="^the parity game has no 2-party strategy$"):
            call(2)
        for n in (0, 1):
            with pytest.raises(ValueError,
                               match=f"^party count must be >= 2, got {n}$") as info:
                call(n)
            assert type(info.value) is ValueError


# --- alternative strategies for the sampler/exact cross-check -------------

def _widths(n, i):
    even = n % 2 == 0
    return (2 if even and i == n - 2 else 1), (2 if even and i == n - 1 else 1)


@lru_cache(maxsize=None)
def constant_strategy(n, m, i, a_i):
    wo, wi = _widths(n, i)
    return behavior_from_table(i, wo, wi, [(0, 0)] * (1 << wi))


@lru_cache(maxsize=None)
def read_strategy(n, m, i, a_i):
    # outcome mirrors the top input bit, output stays constant
    wo, wi = _widths(n, i)
    table = [(v >> (wi - 1), 0) for v in range(1 << wi)]
    return behavior_from_table(i, wo, wi, table)


@lru_cache(maxsize=None)
def late_starter_strategy(n, m, i, a_i):
    # forwarding chain whose injection point sits one party too late
    wo, wi = _widths(n, i)
    table = []
    for v in range(1 << wi):
        x = v >> (wi - 1)
        send = a_i if i == (m + 2) % n else a_i ^ x
        table.append((x, send * ((1 << wo) - 1) if wo == 2 else send))
    return behavior_from_table(i, wo, wi, table)


@lru_cache(maxsize=None)
def mixed_strategy(n, m, i, a_i):
    # a quarter of one random table plus three quarters of another that
    # differs in every outcome: the sampler draws at every input value
    wo, wi = _widths(n, i)
    rng = random.Random(f"mixed {n} {m} {i} {a_i}")
    light = [(rng.getrandbits(1), rng.getrandbits(wo)) for _ in range(1 << wi)]
    heavy = [(x ^ 1, rng.getrandbits(wo)) for x, _ in light]
    b_light, b_heavy = (behavior_from_table(i, wo, wi, t) for t in (light, heavy))
    tables = [[p + 3 * q for p, q in zip(tl, th)]
              for tl, th in zip(b_light.tables, b_heavy.tables)]
    return LocalBehavior(i, b_light.layout, tables, log2den=2)


@lru_cache(maxsize=None)
def wide_den_strategy(n, m, i, a_i):
    # two tables that differ in every outcome, mixed with an odd weight over
    # 2**33 .. 2**40: every draw asks getrandbits for 34 to 41 bits, two MT
    # words, and is redrawn about half the time
    wo, wi = _widths(n, i)
    rng = random.Random(f"wide {n} {m} {i} {a_i}")
    log2den = rng.randrange(33, 41)
    first = [(rng.getrandbits(1), rng.getrandbits(wo)) for _ in range(1 << wi)]
    second = [(x ^ 1, rng.getrandbits(wo)) for x, _ in first]
    b_first, b_second = (behavior_from_table(i, wo, wi, t) for t in (first, second))
    p = rng.randrange(1, 1 << log2den, 2)
    q = (1 << log2den) - p
    tables = [[p * u + q * v for u, v in zip(t1, t2)]
              for t1, t2 in zip(b_first.tables, b_second.tables)]
    return LocalBehavior(i, b_first.layout, tables, log2den)


def test_constant_strategy_value_is_half():
    for n in (3, 4):
        result = success_probability_exact(n, strategy=constant_strategy)
        assert result.p_succ == F(1, 2)


@pytest.mark.parametrize(
    "strategy", (constant_strategy, read_strategy, late_starter_strategy)
)
def test_distribution_normalized_for_any_strategy(strategy):
    for n in (3, 4):
        w = build_w(n)
        for m in (0, n - 1):
            behaviors = [strategy(n, m, i, i & 1) for i in range(n)]
            dist = outcome_distribution(w, behaviors)
            assert sum(dist.values()) == 1
            assert all(p >= 0 for p in dist.values())


@pytest.mark.parametrize(
    "strategy", (constant_strategy, read_strategy, late_starter_strategy, mixed_strategy)
)
@pytest.mark.parametrize("n", (3, 4))
def test_sampler_agrees_with_exact(strategy, n):
    shots = 20000
    exact = success_probability_exact(n, strategy=strategy).p_succ
    sampled = sample_game(n, shots, seed=123, strategy=strategy)
    p = float(exact)
    bound = 4 * math.sqrt(p * (1 - p) / shots) + 1 / shots
    assert abs(sampled.estimate - p) <= bound
    assert sum(sampled.per_m_shots) == shots


def test_sampler_deterministic_and_zero_loss():
    first = sample_game(3, 2000, seed=9)
    second = sample_game(3, 2000, seed=9)
    assert first == second
    assert first.losses == 0
    assert first.wins == 2000
    single = sample_game(4, 1, seed=5)
    assert single == sample_game(4, 1, seed=5)
    assert single.wins == 1


def test_sampler_reaches_64_parties_without_building_w():
    build_w.cache_clear()
    loop_decomposition.cache_clear()
    misses = build_w.cache_info().misses
    assert len(loop_decomposition(64)) == 4
    result = sample_game(64, 1000, seed=1)
    assert (result.wins, result.losses) == (1000, 0)
    assert build_w.cache_info().misses == misses


STRATEGIES = (winning_behavior, constant_strategy, read_strategy, late_starter_strategy)
STRATEGY_IDS = ("winning", "constant", "read", "late_starter")
ORACLE_SIZES = (*range(3, 13), 16, 33, 64)


@pytest.mark.parametrize(
    ("strategy", "n"),
    [(strategy, n) for strategy in (None, *STRATEGIES) for n in ORACLE_SIZES]
    + [(mixed_strategy, n) for n in (*range(3, 9), 16)],
    ids=[f"{name}-{n}" for name in ("default", *STRATEGY_IDS) for n in ORACLE_SIZES]
    + [f"mixed-{n}" for n in (*range(3, 9), 16)],
)
def test_sampler_equals_oracle(strategy, n):
    # the default route reads path parity and draws no choice; every
    # strategy passed, winning_behavior included, is walked
    for seed in range(3):
        result = sample_game(n, 1500, seed, strategy)
        if strategy is None:
            assert_default_oracles(result, n, 1500, seed)
        else:
            assert result == sampler_oracle(n, 1500, seed, strategy)


def assert_default_oracles(result, n, shots, seed):
    """The default route's record equals the oracle's for the paper's
    strategy dealing the first and the last choice wherever a behavior has
    several, with no draw, and at odd n, where it has no choice to draw,
    the drawing oracle's as well."""
    for choice in ("first", "last", None) if n % 2 else ("first", "last"):
        assert result == sampler_oracle(n, shots, seed, choice=choice)


def test_fixed_choice_oracles_read_no_choice_draw():
    # n = 4: the wide parties have several choices, so the drawing oracle
    # reads further into the stream and deals other shots than the fixed ones
    first, last = (sampler_oracle(4, 2000, 5, choice=c) for c in ("first", "last"))
    drawn = sampler_oracle(4, 2000, 5)
    assert first == last != drawn
    assert first.per_m_shots != drawn.per_m_shots
    assert (first.wins, drawn.wins) == (2000, 2000)


def test_default_sampler_route_compiles_and_walks_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("compiled a walk")

    monkeypatch.setattr(game, "_walk", refuse)  # the oracle walks inline
    for n in (3, 4, 16):
        assert_default_oracles(sample_game(n, 500, 1), n, 500, 1)
    result = sample_game(511, 1000, 0)
    assert (result.wins, result.losses, sum(result.per_m_shots)) == (1000, 0, 1000)
    with pytest.raises(AssertionError, match="^compiled a walk$"):
        sample_game(3, 1, 0, winning_behavior)


@pytest.mark.parametrize("n", (5, 7, 9))
def test_default_sampler_route_counts_odd_loops_as_losses(monkeypatch, n):
    # G^perp = {identity, flip on edge k}: the winning strategy loses every
    # shot on the flipped loop unless the guesser is k (see
    # test_path_parity_names_the_odd_loop)
    identity = loop_decomposition(n)[0]
    for k in range(n):
        flipped = identity._replace(edge_flips=tuple(int(e == k) for e in range(n)))
        for module in (game, conftest):
            monkeypatch.setattr(module, "loop_decomposition",
                                lambda _, loops=(identity, flipped): loops)
        result = sample_game(n, 600, k)
        assert_default_oracles(result, n, 600, k)
        assert result.losses > 0
        odd_loops = game._path_parity(n)
        lost = [shots - wins for shots, wins in zip(result.per_m_shots, result.per_m_wins)]
        assert all(odd_loops(m, None) or not lost[m] for m in range(n))


@pytest.mark.parametrize("n", (3, 4, 33))
def test_sampler_draws_over_two_words_equal_oracle(n):
    dens = {wide_den_strategy(n, m, i, a).log2den
            for m in range(n) for i in range(n) for a in (0, 1)}
    assert min(dens) >= 33 and max(dens) <= 40
    for seed in range(3):
        assert (sample_game(n, 1000, seed, wide_den_strategy)
                == sampler_oracle(n, 1000, seed, wide_den_strategy))


def test_sampler_calls_no_randrange(monkeypatch):
    expected = {(n, strategy): sampler_oracle(n, 500, 3, strategy)
                for n in (3, 4, 16) for strategy in (winning_behavior, mixed_strategy)}

    def refuse(*args):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    for (n, strategy), result in expected.items():
        assert sample_game(n, 500, 3, strategy) == result


@pytest.mark.parametrize("n", (3, 16))
def test_sampler_refuses_shots_over_the_budget(n):
    start = time.perf_counter()
    for shots in (1 << 19, 10**12):
        with pytest.raises(ValueError, match=f"^sample refused: n={n} needs {shots} shots"):
            sample_game(n, shots, 0)
    assert time.perf_counter() - start < 1.0


def test_sampler_refuses_walked_party_steps_of_a_caller_strategy(built_behaviors):
    # a caller's shot walks every party: 3000 shots at n = 511 are
    # 1,533,000 steps, refused before any behavior is dealt
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^sample refused: n=511 needs 1533000 walked party steps"):
        sample_game(511, 3000, 0, winning_behavior)
    assert time.perf_counter() - start < 1.0
    assert built_behaviors == []


@pytest.mark.parametrize("seed", (-1, -5, -(1 << 70)))
def test_sampler_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        sample_game(5, 100, seed)


def test_sampler_shares_no_tables_across_calls():
    # same (n, seed) and wires, different tables: a table kept from the
    # previous call would change the transcript
    n, seed = 6, 4
    for strategy in (late_starter_strategy, winning_behavior, mixed_strategy, read_strategy):
        assert sample_game(n, 800, seed, strategy) == sampler_oracle(n, 800, seed, strategy)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_mixed_strategy_is_not_certain(n):
    # so the oracle comparison above covers losing shots as well, at even n
    # where the wide receiver guesses with four start values
    result = sample_game(n, 2000, 0, mixed_strategy)
    assert result.losses > 0
    exact = success_probability_exact(n, strategy=mixed_strategy)
    assert 0 < exact.p_succ < 1


def test_sampler_raises_on_first_shot_of_a_malformed_m():
    # party 0's behavior for one input bit has a negative weight; the only
    # shot deals party 0 the other bit, so only the per-m deal of both bits sees it
    n, seed = 3, 0
    rng = random.Random(seed)
    rng.randrange(n)
    bad_bit = 1 - ((rng.getrandbits(n) >> (n - 1)) & 1)

    def strategy(n, m, i, a_i):
        good = read_strategy(n, m, i, a_i)
        if (i, a_i) != (0, bad_bit):
            return good
        t0, t1 = good.tables
        tables = [[p + 2 * q for p, q in zip(t0, t1)], [-q for q in t1]]
        return LocalBehavior(i, good.layout, tables, good.log2den)

    assert sampler_oracle(n, 1, seed, strategy).shots == 1
    with pytest.raises(ValueError, match="^behavior of party 0 has a negative weight"):
        sample_game(n, 1, seed, strategy)


def test_unnormalized_behavior_is_refused_by_both_evaluators():
    # tables three times too large: without the constructor's check the
    # exact evaluator would read per_m = (3, 3, 3)
    def strategy(n, m, i, a_i):
        good = read_strategy(n, m, i, a_i)
        return LocalBehavior(i, good.layout, [[3 * p for p in t] for t in good.tables],
                             good.log2den)

    for call in (lambda: success_probability_exact(3, strategy),
                 lambda: sample_game(3, 1, 0, strategy)):
        with pytest.raises(ValueError, match="^behavior of party 0 is not normalized at input 0$"):
            call()


def test_sampler_rejects_behavior_on_wrong_wires():
    def strategy(n, m, i, a_i):
        if i == n - 1:  # the wide receiver answers on a one-bit input
            return behavior_from_table(i, 1, 1, [(0, 0), (0, 0)])
        return winning_behavior(n, m, i, a_i)

    with pytest.raises(LayoutError, match="party 3 behavior must sit on"):
        sample_game(4, 1, 0, strategy)


@pytest.mark.parametrize("n", (512, 2048))
def test_game_refuses_behaviors_over_the_budget(n):
    # the default strategy deals no behavior, in its value and in its
    # samples; a caller's strategy still goes through the dealer's budget
    start = time.perf_counter()
    for call in (lambda: success_probability_exact(n, winning_behavior),
                 lambda: sample_game(n, 1, 0, winning_behavior)):
        with pytest.raises(ValueError, match=f"^game refused: n={n} needs"):
            call()
    assert time.perf_counter() - start < 1.0



def test_game_budget_refuses_from_2_19_behaviors():
    # 2·400^2 = 320,000 behaviors lie above 2^18 but below the 2^19 at
    # which the game is refused.
    game._dealer(400, winning_behavior)
    with pytest.raises(ValueError, match=r"work reaching 2\^19 is refused$"):
        game._dealer(512, winning_behavior)


@pytest.fixture
def built_behaviors(monkeypatch):
    """The party of every LocalBehavior constructed while the test runs."""
    built = []
    init = LocalBehavior.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(LocalBehavior, "__init__", counting)
    winning_behavior.cache_clear()  # a path through it would rebuild all 2n^2
    return built


def test_game_budget_refuses_before_building_a_behavior(built_behaviors):
    for call in (lambda: success_probability_exact(512, winning_behavior),
                 lambda: sample_game(512, 1, 0, winning_behavior)):
        with pytest.raises(ValueError, match="^game refused: n=512 needs 524288 local behaviors"):
            call()
    assert built_behaviors == []


# --- the default strategy, read off path parity ---------------------------

@pytest.mark.parametrize("n", (*range(3, 21), 33, 64))
def test_default_strategy_equals_winning_behavior(n):
    # the default value and samples are read off path parity; an explicit
    # strategy, winning_behavior included, is walked. At even n the walk
    # draws the wide parties' choices, which no default shot draws.
    assert success_probability_exact(n) == success_probability_exact(n, winning_behavior)
    for seed in range(3):
        result = sample_game(n, 400, seed)
        if n % 2:
            assert result == sample_game(n, 400, seed, winning_behavior)
        else:
            assert_default_oracles(result, n, 400, seed)


@pytest.mark.parametrize("n", (128, 130))
def test_default_strategy_is_certain_at_large_even_n(n):
    # the wide sender's (2, 1) and the wide receiver's (1, 2) tables have
    # eight entries each; sharing them across the two would lose rounds
    result = success_probability_exact(n)
    assert result.per_m == (F(1),) * n
    assert result.p_succ == 1


def test_default_call_builds_behaviors_per_class(built_behaviors):
    # neither default route builds a behavior, at odd or even n
    for n in (39, 40):
        assert success_probability_exact(n).p_succ == 1
        result = sample_game(n, 4000, 0)
        assert all(per_m_shots for per_m_shots in result.per_m_shots)
        assert (result.wins, result.losses) == (4000, 0)
    assert built_behaviors == []


@pytest.mark.parametrize("n", (5, 6))
def test_default_call_after_a_caller_strategy_keeps_no_memo(n):
    for strategy in (mixed_strategy, late_starter_strategy):
        success_probability_exact(n, strategy)
        assert success_probability_exact(n).per_m == tuple(pairing_success_oracle(n, winning_behavior))
        sample_game(n, 600, 2, strategy)
        assert_default_oracles(sample_game(n, 600, 2), n, 600, 2)


@pytest.mark.parametrize("n", (3, 4, 9))
def test_exact_value_contracts_one_chain_per_loop_and_m(monkeypatch, n):
    # the summed-tables half of the win indicator is 1/2 for every valid
    # strategy, so only the signed chain is walked
    calls = []
    walk = game._walk

    def counting(entries, flips):
        calls.append(len(entries))
        return walk(entries, flips)

    monkeypatch.setattr(game, "_walk", counting)
    assert success_probability_exact(n, winning_behavior).p_succ == 1
    assert calls == [n] * (n * len(loop_decomposition(n)))


@pytest.mark.parametrize("n", (3, 4, 511, 725))
def test_default_value_deals_and_walks_nothing(monkeypatch, built_behaviors, n):
    walks = []
    monkeypatch.setattr(game, "_walk", lambda entries, flips: walks.append(flips) or {})
    result = success_probability_exact(n)
    assert result.per_m == (F(1),) * n and result.p_succ == 1
    assert built_behaviors == [] and walks == []


@pytest.mark.parametrize("n", (4, 10, 64))
def test_default_value_sums_the_loops_once(monkeypatch, n):
    # each m's wide code is picked from the game value's own path parity,
    # not from a cold wide_code that would sum the loops again
    built = []
    path_parity = game._path_parity
    monkeypatch.setattr(game, "_path_parity", lambda n: built.append(n) or path_parity(n))
    wide_code.cache_clear()
    assert success_probability_exact(n).p_succ == 1
    assert built == [n]


@pytest.mark.parametrize("n", (5, 7, 9))
def test_path_parity_names_the_odd_loop(monkeypatch, n):
    # G^perp = {identity, flip on edge k} belongs to the valid G whose
    # patterns vanish at edge k. Guesser m's path crosses every edge but
    # edge m, the edge into its starter, so only guesser k wins for sure.
    identity = loop_decomposition(n)[0]
    assert identity.edge_flips == (0,) * n
    for k in range(n):
        flipped = identity._replace(edge_flips=tuple(int(e == k) for e in range(n)))
        monkeypatch.setattr(game, "loop_decomposition", lambda _, loops=(identity, flipped): loops)
        expected = tuple(F(1) if m == k else F(1, 2) for m in range(n))
        assert success_probability_exact(n).per_m == expected
        assert success_probability_exact(n, winning_behavior).per_m == expected
        odd_loops = game._path_parity(n)
        assert [odd_loops(m, None) for m in range(n)] == [0 if m == k else 0b10 for m in range(n)]


def spread_round(n, spread, outcomes):
    """Behaviors for n parties: each of the first ``spread`` weighs its
    first ``outcomes`` (x, o) pairs, in x then o order, equally at every
    input value; the others are deterministic."""
    behaviors = []
    for i in range(n):
        wo, wi = _widths(n, i)
        cells = [(x, o) for x in (0, 1) for o in range(1 << wo)][:outcomes if i < spread else 1]
        tables = [[int((x, j >> wi) in cells) for j in range(1 << (wo + wi))] for x in (0, 1)]
        behaviors.append(LocalBehavior(i, game._party_layout(n, i), tables,
                                       log2den=len(cells).bit_length() - 1))
    return behaviors


def test_outcome_budget_boundary(monkeypatch):
    # the walk's paths, min(2^n, prod_p max_v #entries), are refused before
    # any walk once they reach 2^19; the accepted rounds are not walked
    walks = []
    monkeypatch.setattr(game, "_walk", lambda entries, flips: walks.append(flips) or {})
    for n, spread, outcomes in ((18, 18, 4), (19, 18, 2)):
        assert outcome_distribution(build_w(n), spread_round(n, spread, outcomes)) == {}
    assert len(walks) == len(loop_decomposition(18)) + len(loop_decomposition(19))

    def refuse(entries, flips):
        raise AssertionError("walked a round over the budget")

    monkeypatch.setattr(game, "_walk", refuse)
    for outcomes in (4, 2):
        with pytest.raises(ValueError, match="^outcome distribution refused: n=19 needs 524288 walk paths"):
            outcome_distribution(build_w(19), spread_round(19, 19, outcomes))


@lru_cache(maxsize=None)
def split_strategy(n, m, i, a_i):
    # winning for input bit 1, mixed for input bit 0: a party's two
    # behaviors come over different denominators
    return (winning_behavior if a_i else mixed_strategy)(n, m, i, a_i)


@pytest.mark.parametrize("n", (3, 4, 5, 6, 16))
def test_sampler_with_one_drawing_bit_equals_oracle(n):
    # a party drawing at input bit 0 only: a shot that deals it bit 1 must
    # walk bit 1's fixed table
    for seed in range(3):
        assert sample_game(n, 1500, seed, split_strategy) == sampler_oracle(n, 1500, seed, split_strategy)


@pytest.mark.parametrize(
    "strategy", (*STRATEGIES, mixed_strategy, split_strategy),
    ids=(*STRATEGY_IDS, "mixed", "split"),
)
@pytest.mark.parametrize("n", range(3, 9))
def test_success_probability_equals_pairing_oracle(n, strategy):
    result = success_probability_exact(n, strategy=strategy)
    per_m = pairing_success_oracle(n, strategy)
    assert result.per_m == tuple(per_m)
    assert result.p_succ == sum(per_m) / n


@pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
@pytest.mark.parametrize("n", range(3, 7))
def test_outcome_distribution_equals_pairing_oracle(n, strategy):
    w = build_w(n)
    rng = random.Random(n)
    inputs = [0, (1 << n) - 1, rng.getrandbits(n)]
    for m in range(n):
        for a_idx in inputs:
            a = [(a_idx >> (n - 1 - i)) & 1 for i in range(n)]
            behaviors = [strategy(n, m, i, a[i]) for i in range(n)]
            assert_support_equals_oracle(w, behaviors)


def assert_support_equals_oracle(w, behaviors):
    expected = pairing_outcome_oracle(w, behaviors)
    support = [(xs, p) for xs, p in expected.items() if p]
    assert list(outcome_distribution(w, behaviors).items()) == support


def random_behavior(n, i, rng):
    """Party i's behavior dealing 2**log2den units, log2den 0-2, to random
    (x, o) cells at every input value."""
    wo, wi = _widths(n, i)
    log2den = rng.randrange(3)
    tables = [[0] * (1 << (wo + wi)) for _ in (0, 1)]
    for v in range(1 << wi):
        for _ in range(1 << log2den):
            tables[rng.getrandbits(1)][(rng.getrandbits(wo) << wi) | v] += 1
    return LocalBehavior(i, game._party_layout(n, i), tables, log2den)


@pytest.mark.parametrize("n", range(3, 9))
def test_walk_equals_pairing_oracle_on_random_behaviors(n):
    w = build_w(n)
    rng = random.Random(f"walk {n}")
    for _ in range(3):
        assert_support_equals_oracle(w, [random_behavior(n, i, rng) for i in range(n)])


def test_outcome_distribution_rejects_behavior_on_wrong_wires():
    # party 3 of four reads the two-bit wide register
    behaviors = [winning_behavior(4, 0, i, 0) for i in range(3)]
    behaviors.append(behavior_from_table(3, 1, 1, [(0, 0), (0, 0)]))
    with pytest.raises(LayoutError, match="party 3 behavior must sit on"):
        outcome_distribution(build_w(4), behaviors)


def test_exact_value_reaches_64_parties_without_building_w():
    build_w.cache_clear()
    misses = build_w.cache_info().misses
    result = success_probability_exact(64)
    assert result.per_m == (F(1),) * 64
    assert result.p_succ == 1
    assert build_w.cache_info().misses == misses


def test_sampler_estimate_near_exact():
    result = sample_game(3, 100000, seed=31)
    assert abs(result.estimate - 1.0) <= 0.01
    assert result.losses == 0
    assert result.rng == "mt19937"


def test_game_result_json_shape():
    payload = success_probability_exact(3).to_json()
    assert payload == {
        "n": 3,
        "per_m": [{"num": 1, "log2den": 0}] * 3,
        "p_succ": {"num": 1, "log2den": 0},
    }


def test_game_result_json_writes_a_non_dyadic_average_as_num_den():
    def strategy(n, m, i, a_i):
        if m == 0:
            return behavior_from_table(i, 1, 1, [(0, 0), (0, 0)])
        return winning_behavior(n, m, i, a_i)

    result = success_probability_exact(3, strategy)
    assert result.per_m == (F(1, 2), F(1), F(1)) and result.p_succ == F(5, 6)
    payload = result.to_json()
    assert payload["per_m"] == [{"num": 1, "log2den": 1}] + [{"num": 1, "log2den": 0}] * 2
    assert payload["p_succ"] == {"num": 5, "den": 6}
    assert json.loads(json.dumps(payload)) == payload
