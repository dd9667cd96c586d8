"""Contrastive divergence with annealed step sizes on finite exponential
families, plus exact enumeration-based convergence diagnostics."""

from .config import ConfigError, RunConfig, default_config
from .diagnostics import (
    HypothesesUnmetError,
    bias_bound_grid,
    cd_conditional_moments,
    check_bias_bound,
    drift_report,
    exact_expected_cd_gradient,
    expected_sq_distance_after_step,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from .harness import diagnose_run, rate_sweep, run_experiment, verify_assumptions
from .kernel import (
    KernelMatrix,
    build_gibbs_random_scan,
    estimate_zeta,
    kernel_distance,
    kernel_power,
    kernel_to_csv,
    m_step_stat_rows,
    m_step_stat_table,
    spectral_gap,
)
from .learner import (
    Schedule,
    Trajectory,
    cd_gradient,
    cd_step,
    delta_n,
    exact_gradient_step,
    run_cd,
    run_exact_gradient,
    weighted_average,
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
    compute_constants,
    mle,
    root_chi_square_divergence,
    sample_iid,
)

__version__ = "0.2.0"
