"""Truncated path signatures, insertion-method inversion, and the
hyperbolic-development checks behind the method's guarantees."""

import types as _types

from .bounds import (
    ErrorComparison,
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
    batch_invert,
    invert_signature,
)
from .signature import (
    PiecewiseLinearPath,
    SegmentGeometry,
    batch_signature,
    constant_speed_reparam,
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


# the API, not the submodules that importing it binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
