"""Gap additive secure polynomial codes for distributed matrix multiplication.

A user multiplies A and B with the help of N untrusted servers, none of
which (nor any T of which, pooling their inputs) learns anything about A
or B.  The package builds the exponent assignments, counts how many
servers each one needs, runs the full encode/evaluate/decode pipeline
over a prime field, and audits the privacy guarantee.
"""

from .codec import (
    BlockShapes,
    CostReport,
    EvaluationPlan,
    ShareBundle,
    cost,
    decode,
    default_field,
    encode,
    find_evaluation_plan,
    server_evaluate,
)
from .degree_table import (
    ExponentAssignment,
    SchemeParams,
    is_decodable,
    is_t_secure_assignment,
    outer_sum,
)
from .errors import (
    BudgetExceededError,
    GaspError,
    ParameterError,
    PlanSearchError,
    SingularMatrixError,
    VerificationError,
)
from .gf import FieldMatrix, PrimeFieldSpec
from .harness import (
    MdsAuditReport,
    SessionTranscript,
    exhaustive_privacy_audit,
    mds_audit,
    run_sdmm,
)
from .schemes import (
    OptimizationResult,
    PolynomialCode,
    RateReport,
    code_for_scheme,
    download_rate,
    format_rate,
    gasp_big,
    gasp_grouped,
    gasp_small,
    grouped_sweep,
    kakar_heuristic,
    n_big_closed,
    n_gap_free,
    n_small_closed,
    optimize_gasp,
    rate_r1,
    rate_r2,
    rate_report,
)

__version__ = "0.1.0"
