"""Walk-type zeta functions, Mahler measures, and the identities between them.

The package simulates 2d-state discrete-time walks (quantum, correlated and
plain random) on d-dimensional tori, evaluates their zeta functions on finite
and infinite lattices, computes logarithmic Mahler measures of Laurent
polynomials by several independent routes, and cross-checks every identity
connecting the two worlds: the one-dimensional walk closed forms, the
flip-flop Grover decomposition, the random-walk correspondence with its
hypergeometric and binomial-series faces, spanning tree constants, and the
recurrence/transience criterion.
"""

from .coins import (
    CUSTOM,
    CoinMatrix,
    F_TYPE,
    GROVER,
    HADAMARD,
    M_TYPE,
    SIMPLE_RW,
    build_coin,
    classify_coin,
    custom_coin,
    flip_flop,
)
from .correspondence import (
    CorrespondenceReport,
    DEFAULT_TOLERANCES,
    TransienceProbe,
    central_binomial_weight,
    closed_walk_count,
    default_suite_params,
    green_series_estimate,
    qw_validity_interval,
    return_probability,
    run_suite,
    spanning_tree_constant,
    stgf,
    transience_probe,
    verify_1d_qw,
    verify_grover,
    verify_rw,
)
from .errors import ComputationError
from .laurent import (
    LaurentPolynomial,
    LaurentSyntaxError,
    eval_laurent,
    format_laurent,
    parse_laurent,
)
from .mahler import (
    MahlerResult,
    hyper_pfq,
    log_cos_identity,
    mahler_closed_ftype,
    mahler_closed_mtype,
    mahler_quadrature,
    mahler_reduced,
    mahler_square_lattice,
    mahler_univariate,
    mahler_walk_1d,
    special_constants,
    zeta_mahler,
)
from .quadrature import QuadratureSpec, set_thread_count
from .walk import (
    MatrixWeight,
    MomentumPoint,
    WalkState,
    delta_state,
    evolve,
    matrix_weight_origin,
    matrix_weight_traces,
    momentum_matrix,
    total_measure,
    uniform_state,
)
from .zeta import (
    SeriesCoefficients,
    compute_series,
    cr_closed_1d_qw,
    cr_finite,
    cr_limit,
    cr_limit_pathsum,
    dense_walk_matrix,
    log_zeta,
    log_zeta_refined,
    log_zeta_series,
    zeta_finite,
    zeta_finite_dense,
    zeta_finite_log_mean,
)

__version__ = "0.1.0"
