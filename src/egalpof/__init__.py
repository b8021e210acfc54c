"""Exact egalitarian-welfare toolkit for fair division of indivisible goods.

Instances carry exact rational utilities normalized per agent; solvers
find welfare optima under fairness filters by branch-and-bound (round-robin
by a layered search over its picks); constructive routines round arbitrary
allocations into balanced or round-robin ones with proven egalitarian floors.
"""

from .construct import gen_thm1, gen_thm4, gen_thm5, gen_thm7, pad_instance, thm5_x_feasible
from .errors import (
    BudgetExceeded,
    CrossCheckError,
    EgalpofError,
    EmptyBundle,
    GoodOutOfRange,
    InfeasibleParams,
    NegativeUtility,
    ParamOutOfRange,
    ParseError,
    PreconditionViolated,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    INFINITY,
    Allocation,
    ExtendedValue,
    Instance,
    agent_utilities,
    egalitarian_welfare,
    extended_ratio,
    nash_welfare,
    normalize_instance,
    utilitarian_welfare,
    validate_instance,
)
from .properties import (
    EnvyGraph,
    envy_graph,
    is_balanced,
    is_ef1,
    is_pareto_optimal,
    pareto_optimal_allocations,
)
from .roundrobin import (
    RRSchedule,
    RRTrace,
    balanced_from_mew,
    default_schedule,
    dominating_rr_one_good,
    enumerate_rr_allocations,
    is_rr,
    rr_from_mew,
    run_round_robin,
)
from .serialize import parse_instance_file, write_instance_file
from .solve import (
    Objective,
    PropertyFilter,
    SolveResult,
    max_welfare,
    price_of_fairness,
)
from .verify import VerifyReport, random_instance, run_suite

__version__ = "0.1.0"
