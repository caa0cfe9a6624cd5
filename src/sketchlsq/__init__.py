"""Randomized-Hadamard sketching for overdetermined least squares.

Two O(nd log d)-style pipelines approximate min ||Ax - b||: uniform row
sampling after a randomized Hadamard transform, and a sparse random
projection of the transformed problem. The package also ships the
structural-condition diagnostics that certify a draw, a sampled
approximation of A A^T, synthetic problem generators, and a benchmark CLI.
"""

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    FrobeniusTooSmall,
    IndexOutOfRange,
    InvalidEpsilon,
    InvalidGamma,
    InvalidSparsity,
    InvalidSpec,
    NotPowerOfTwo,
    ParseError,
    RaggedRows,
    RankDeficient,
    SketchLsqError,
    SpectralNormTooLarge,
    ZeroMatrix,
    ZeroRhs,
)
from .hadamard import (
    SignDiagonal,
    apply_rht,
    fwht_normalized,
    partial_rht_rows,
    sample_signs,
)
from .linalg import (
    QrFactors,
    condition_number,
    gram_singular_values,
    orthonormal_basis,
    project_out,
    qr_factor,
    solve_exact_ls,
    spectral_norm_sym,
)
from .approx_matmul import (
    ColumnSampler,
    approx_gram,
    c_lower_bound,
    column_probabilities,
    exactly_c,
    gram_error,
    matmul_error,
    rescale_to_unit_spectral,
    require_unit_spectral,
    spectral_norm_estimate,
    theory_sample_size,
    uniform_probabilities,
)
from .problems import KINDS, ProblemSpec, gen_problem
from .rng import stream
from .sketches import (
    SamplingPlan,
    SketchParams,
    SparseProjection,
    apply_sampling,
    apply_sparse_projection,
    draw_sampling_plan,
    draw_sparse_projection,
    identity_plan,
    projection_params,
    sampling_size_r,
)
from .solver import (
    Diagnostics,
    ErrorBounds,
    LsProblem,
    SketchOutcome,
    amplification_trials,
    cgnr_solve,
    exact_outcome,
    gamma_fraction,
    predicted_error_bounds,
    sketch_solve_best_of,
    sketch_solve_projection,
    sketch_solve_sampling,
    verify_conditions,
)

__version__ = "0.1.0"
