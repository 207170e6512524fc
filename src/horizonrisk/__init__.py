"""Dynamic risk values of investment policies on finite scenario trees,
moving-horizon policy choice, and consistency/dependability verdicts."""

from .errors import (
    DimensionError,
    EmptyConditionalSpace,
    EnumerationLimit,
    HorizonRiskError,
    MismatchedInputs,
    NoUniformMaximizer,
    PrefixMismatch,
    ProbabilityError,
    StructureError,
    TimeOrderError,
    UnknownNode,
)
from .tree import (
    AdaptedProcess,
    ScenarioTree,
    Slice,
    TreeNode,
    build_tree,
    conditional_expectation,
    path_probability,
)
from .market import (
    Event,
    MarketModel,
    Policy,
    PolicySpace,
    conditional_space,
    constant_policy,
    count_stopping_times,
    enumerate_stopping_times,
    is_pasting_closed,
    is_truncation_closed,
    paste,
    stopping_time_space,
    truncate,
    wealth_process,
    zero_policy,
)
from .expectations import (
    PAPER10_KAPPA,
    AxiomReport,
    AxiomVerdict,
    ExpectationOperator,
    axioms_check,
    evaluate,
)
from .horizon import (
    BellmanAdditive,
    ModifiedHorizon,
    PolicyChoice,
    SimpleHorizon,
    Terminal,
    ValueFunction,
    feasible_set,
    run_policy_choice,
    uniform_maximizer,
    value,
    value_process,
)
from .consistency import (
    AcceptabilityReport,
    ConsistencyReport,
    DependabilityReport,
    MonotonicityReport,
    MonotonicityWitness,
    TimeRecord,
    acceptability_check,
    check_dependability,
    check_time_consistency,
    intertemporal_monotonicity,
)
from .files import load_market, load_operator, load_policy, load_space, load_tree
from .instances import ExampleInstance, builtin_example, example_names

__version__ = "0.1.0"
