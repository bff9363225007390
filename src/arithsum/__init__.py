"""Self-verifying series evaluations for arithmetic sums over quadratic
Diophantine solution sets, square indicators, the divisor function, and
the Robin-Lagarias inequality."""

from .indicators import (
    BlockTables,
    block_value,
    q_analytic,
    q_bruteforce,
    q_general_analytic,
    power_series_evaluator,
    q_shifted_analytic,
    zero_identity_residual,
)
from .integrals import (
    IntegralValue,
    QuadratureError,
    integral_i,
    integral_j,
    integral_k,
    quadrature_oracle,
)
from .kernels import (
    HalfPlaneRoot,
    KernelValue,
    half_plane_root,
    kernel_g,
    kernel_t,
    kernel_v,
    mittag_leffler_residual,
)
from .dsums import (
    DiophantineInstance,
    SolutionList,
    WeightSpec,
    alternating_weight,
    divisor_pair_sum_analytic,
    enumerate_solutions,
    reciprocal_weight,
    sum_diff_analytic,
    sum_diff_bruteforce,
    sum_squares_analytic,
    sum_squares_bruteforce,
    unit_sum_diff,
    unit_sum_squares,
    unit_weight,
    weighted_finite_analytic,
    weighted_infinite_analytic,
)
from .series import (
    Evaluation,
    SeriesEvaluator,
    geometric_series_evaluator,
    indicator_series_evaluator,
    invert_series,
    lemma4_residual,
    self_consistency_residual,
    verdict,
)
from .sigma_rh import (
    EULER_GAMMA,
    RHRecord,
    harmonic,
    lagarias_rhs,
    rh_check,
    robin_rhs,
    sigma_analytic,
    sigma_bruteforce,
    sigma_decomposition_residuals,
)

__version__ = "0.1.0"
