"""Contrastive divergence with annealed step sizes on finite exponential
families, plus exact enumeration-based convergence diagnostics."""

# Bound before the submodules load: ``harness`` records it in config.json.
__version__ = "0.21.0"

from .config import ConfigError, RunConfig, default_config
from .diagnostics import (
    HypothesesUnmetError,
    bias_bound_grid,
    cd_conditional_moments,
    drift_report,
    expected_sq_distance_after_step,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from .harness import diagnose_run, rate_sweep, run_experiment, verify_assumptions
from .kernel import estimate_zeta, m_step_stat_rows, spectral_gap
from .learner import (
    Schedule,
    Trajectory,
    delta_n,
    run_cd,
    run_exact_gradient,
    weighted_average_series,
)
from .model import (
    FiniteExpFamily,
    ParamBox,
    boundary_layer_contains,
    build_fvbm,
    family_from_json,
    fisher_info,
    identifiability_report,
    log_partition,
    mean_parameter,
    state_probs,
)
from .oracle import (
    DataSample,
    MleNonexistenceError,
    TheoryConstants,
    check_constraint_empirical_process,
    check_constraint_mle,
    check_sample,
    check_samples,
    mle,
    root_chi_square_divergence,
    sample_iid,
)
