import importlib
import json
import tomllib
import types
from pathlib import Path

import siginvert
from siginvert import (
    PiecewiseLinearPath,
    TruncatedSignature,
    invert_signature,
    path_signature,
    segment_geometry,
)


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


def test_array_holders_compare_and_hash_by_identity():
    # the dataclass __eq__ compared arrays: == raised ValueError for two
    # equal-valued paths, results or geometries, and hash raised TypeError
    points = [[0.0, 0.0], [1.0, 0.5], [0.25, 1.5]]
    sig = path_signature(PiecewiseLinearPath(points), 4)
    builders = {
        "PiecewiseLinearPath": lambda: PiecewiseLinearPath(points),
        "InversionResult": lambda: invert_signature(sig),
        "SegmentGeometry": lambda: segment_geometry(PiecewiseLinearPath(points)),
        "TruncatedSignature": lambda: TruncatedSignature(2, list(sig.levels)),
    }
    for name, build in builders.items():
        a, b = build(), build()
        assert type(a).__name__ == name
        assert not a == b and a != b, name
        assert a == a and a in [a] and b not in [a], name
        assert len({a, b}) == 2, name


def test_console_script_runs_the_cli(tmp_path, capsys):
    # the installed siginvert command is this entry point; nothing else in
    # tier-1 reads [project.scripts]
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"siginvert": "siginvert.cli:main"}
    module, _, attr = scripts["siginvert"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    f = tmp_path / "p.csv"
    f.write_text("x1,x2\n0,0\n1,0.5\n")
    assert entry(["sign", str(f), "--depth", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["dim"], record["depth"]) == (2, 2)
