"""Dirichlet L-functions, their derivatives, and certified counts of L' zeros."""

from .characters import (
    DirichletCharacter,
    UnitGroupDecomposition,
    enumerate_primitive,
    from_label,
    gauss_sum,
    kronecker_character,
    unit_group,
)
from .errors import (
    BoundaryZeroError,
    DomainError,
    InconclusiveBoundaryError,
    NearZeroError,
    NumericalError,
    PoleError,
    PrecisionLossError,
    UniquenessViolationError,
)
from .lfunc import (
    FunctionalEquationFactor,
    LPoint,
    eval_F,
    eval_G,
    eval_L,
    eval_L_point,
    eval_Lprime,
    eval_logderiv_via_fteq,
    re_logderiv_critical,
)
from .numtypes import ComplexValue, TailBoundedSum
from .report import VerificationReport
from .special import (
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_abs_cos_mean,
    log_integral,
    prime_log_sum,
    prime_tail_bound,
)
from .zeros import (
    Contour,
    Indentation,
    ZeroRecord,
    count_N1,
    count_strip,
    list_zeros,
    locate_trivial_zero,
    winding_count,
)

__version__ = "0.1.0"
