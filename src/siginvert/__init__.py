"""Truncated path signatures, insertion-method inversion, and the
hyperbolic-development checks behind the method's guarantees."""

from .bounds import (
    ErrorComparison,
    RecoveryBoundInput,
    compare_recovery,
    depth_floor,
    probe_slot,
    residual_envelope_bound,
    recovery_error_bound,
)
from .development import (
    BoundReport,
    develop,
    develop_checkpoints,
    f_map,
    k_of_omega,
    norm_lower_bound_check,
    segment_transport,
)
from .errors import (
    AllocationCapError,
    AssumptionViolation,
    InputFormatError,
    NormTooSmall,
    SigInvertError,
)
from .insertion import (
    InversionResult,
    adjoint_contract,
    batch_invert,
    invert_signature,
    solve_slope,
)
from .signature import (
    PiecewiseLinearPath,
    SegmentGeometry,
    batch_signature,
    constant_speed_reparam,
    merge_degenerate,
    path_signature,
    segment_geometry,
)
from .tensor_algebra import (
    TruncatedSignature,
    get_allocation_cap,
    graded_scale,
    set_allocation_cap,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "numpy"


__all__ = [name for name in dir() if not name.startswith("_")]
