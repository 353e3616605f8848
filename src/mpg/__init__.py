"""Mean-payoff game solving: regions, potential certificates, exact values."""

from .backtracking import SolverInternalError, safe_init
from .game import (
    Game,
    GameError,
    NotASubgameError,
    OverflowGuardError,
    ParseError,
    Player,
    ThresholdMode,
    apply_potential,
    dual_game,
    parse_game,
    parse_potential,
    preprocess_no_zero_cycles,
    restrict,
    serialize_game,
)
from .generators import GenParams, Model, Rng, gen_random
from .oracles import (
    BruteForceResult,
    BudgetExceededError,
    brute_force_solve,
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
