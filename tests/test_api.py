import types

import siginvert


def test_all_names_the_api_and_no_module():
    # a star import binds the API, never a submodule such as signature,
    # whose name a user would expect to be a function
    modules = {name for name, value in vars(siginvert).items()
               if isinstance(value, types.ModuleType)}
    assert modules >= {"bounds", "development", "errors", "insertion",
                       "signature", "tensor_algebra"}
    assert not modules & set(siginvert.__all__)
    public = {name for name in vars(siginvert)
              if not name.startswith("_") and name not in modules}
    assert sorted(public) == siginvert.__all__
    namespace = {}
    exec("from siginvert import *", namespace)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_all_is_the_pinned_api():
    # one way into the slope solve: invert_signature and batch_invert
    assert siginvert.__all__ == [
        "AllocationCapError", "AssumptionViolation", "BoundReport",
        "ErrorComparison", "InputFormatError", "InversionResult",
        "NormTooSmall", "PiecewiseLinearPath", "SegmentGeometry",
        "SigInvertError", "TruncatedSignature", "active_backend",
        "batch_invert", "batch_signature", "compare_recovery",
        "constant_speed_reparam", "depth_floor", "develop",
        "develop_checkpoints", "f_map", "get_allocation_cap", "graded_scale",
        "invert_signature", "k_of_omega", "norm_lower_bound_check",
        "path_signature", "probe_slot", "recovery_error_bound",
        "residual_envelope_bound", "segment_geometry", "segment_transport",
        "set_allocation_cap",
    ]
