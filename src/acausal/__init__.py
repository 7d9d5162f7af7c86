"""Exact simulator and verifier for classical process matrices without a
global causal order: multi-party circular-channel constructions, the parity
game they win with certainty, and the causal-order baselines they beat."""

from .causal import (
    CausalProtocol,
    CausalValue,
    brute_force_causal,
    causal_bound,
    forwarding_strategy_success,
    repeated_success,
)
from .diagop import (
    DiagOperator,
    LayoutError,
    Wire,
    WireLayout,
    channel_apply,
    from_dense,
    is_nonnegative,
    multiply,
    operator_from_json,
    operator_to_json,
    partial_trace,
    point_mass,
    to_dense,
)
from .game import (
    GameResult,
    GameRound,
    LocalBehavior,
    SampleResult,
    behavior_from_table,
    outcome_distribution,
    sample_game,
    success_probability_exact,
    winning_behavior,
)
from .process import (
    LoopChannel,
    ProcessMatrix,
    UnsupportedPartyCount,
    ValidationReport,
    build_w,
    conditional_distribution,
    game_layout,
    generator_group,
    loop_decomposition,
    loop_operator,
    naive_even_w,
    validate_process,
)

__version__ = "0.1.0"
