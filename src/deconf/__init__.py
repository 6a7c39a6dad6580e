"""Estimating average treatment effects from confounded observational data
plus a selectively deconfounded subsample.

The package follows the factorization p[y,t,z] = a[y,t] * q[z|y,t]: with
plentiful confounded data the marginal a is (nearly) free, so the reveal
budget should be spent on the conditional rows q -- and how to split that
budget across the four (y, t) groups is the policy question answered by
the `policies` and `bounds` modules. `simulation` measures the resulting
estimators empirically; `cli` exposes everything as subcommands.
"""

from .bounds import (
    AccuracySpec,
    BoundReport,
    BudgetPlan,
    allocate_budget,
    bound_report,
    finite_feasible,
    lower_bound_w,
    m_base,
    m_policy,
    owsp_vs_nsp_ratio_witness,
    solve_min_m,
    worst_case_M,
)
from .errors import (
    DataFormatError,
    DeconfError,
    DegenerateGroupError,
    ExhaustedError,
    ValidationError,
)
from .estimation import (
    EstimationResult,
    StratifiedResult,
    estimate_deconfounded_only,
    estimate_finite,
    estimate_stratified_ite,
    estimate_with_known_confounded,
)
from .model import (
    GROUPS,
    ConditionalTable,
    ConfoundedDistribution,
    HardInstancePair,
    JointDistribution,
    adversarial_instance,
    ate_exact,
    binary_conditional,
    general_lower_pair,
    group_index,
    hardness_pair,
    joint_from_parts,
    parts_from_joint,
    policy_lower_pair,
    random_instance,
)
from .policies import (
    NAMED_POLICIES,
    PolicyWeights,
    allocate_finite,
    allocate_infinite,
    policy_weights,
)
from .simulation import (
    ErrorCurve,
    ExperimentConfig,
    run_empirical_experiment,
    run_finite_experiment,
    run_infinite_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
