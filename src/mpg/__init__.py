"""Mean-payoff game solving: regions, potential certificates, exact values."""

from .backtracking import SolverInternalError, safe_init
from .game import (
    ClosedWalk,
    Edge,
    Game,
    GameError,
    NotASubgameError,
    OverflowGuardError,
    ParseError,
    Player,
    Potential,
    ThresholdMode,
    apply_potential,
    cycle_weight,
    dual_game,
    is_trap,
    parse_game,
    parse_potential,
    preprocess_no_zero_cycles,
    restrict,
    serialize_game,
    serialize_potential,
)
from .generators import GenParams, Model, Rng, gen_random
from .oracles import (
    MINUS_INF,
    PLUS_INF,
    BruteForceResult,
    BudgetExceededError,
    brute_force_infsigma,
    brute_force_solve,
    brute_force_supsigma,
    energy_value_iteration,
    verify_strategy,
)
from .solver import (
    AssertLevel,
    Policy,
    SolveResult,
    SolverConfig,
    Stats,
    ValueResult,
    reduce_game,
    solve_threshold,
    solve_values,
)
from .zones import Zones, compute_zones, is_reduced

__version__ = "0.1.0"
