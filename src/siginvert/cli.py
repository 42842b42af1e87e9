"""Command line interface: sign, invert, roundtrip, trend, develop.

Exit codes: 0 success, 2 input error (malformed or unreadable input, or a
bad argument value), 3 numeric guard (norm-too-small or allocation cap),
4 assumption violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import fileio
from .development import norm_lower_bound_check
from .errors import (
    AllocationCapError,
    AssumptionViolation,
    InputFormatError,
    NormTooSmall,
)
from .insertion import invert_signature
from .signature import (
    PiecewiseLinearPath,
    _segment_lengths,
    batch_signature,
    constant_speed_reparam,
    path_signature,
    segment_geometry,
)
from .tensor_algebra import (
    check_allocation,
    get_allocation_cap,
    set_allocation_cap,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_ASSUMPTION = 4

RESAMPLE_POINTS = 200


# -- geometry helpers -----------------------------------------------------


def resample_arclength(points: np.ndarray, count: int) -> np.ndarray:
    """Resample a polyline at ``count`` points equally spaced in arc length."""
    points = np.asarray(points, dtype=np.float64)
    seg = _segment_lengths(np.diff(points, axis=0))
    s = np.concatenate(([0.0], np.cumsum(seg)))
    if s[-1] == 0.0:
        return np.repeat(points[:1], count, axis=0)
    grid = np.linspace(0.0, s[-1], count)
    return np.column_stack(
        [np.interp(grid, s, points[:, j]) for j in range(points.shape[1])]
    )


def roundtrip_errors(path: PiecewiseLinearPath, depth: int) -> tuple[float, float]:
    """Sign, invert anchored at the path's start, arc-length resample both
    curves and report (mean, max) pointwise distance."""
    sig = path_signature(path, depth)
    recon = invert_signature(sig, start=path.points[0])
    a = resample_arclength(path.points, RESAMPLE_POINTS)
    b = resample_arclength(recon.path.points, RESAMPLE_POINTS)
    dist = np.linalg.norm(a - b, axis=1)
    return float(dist.mean()), float(dist.max())


def random_benchmark_path(rng, dim: int, pieces: int = 10) -> PiecewiseLinearPath:
    """A random piecewise linear path with ``pieces`` pieces starting at 0,
    each piece endpoint drawn uniformly in [0, 1]^dim."""
    pts = np.vstack([np.zeros(dim), rng.uniform(0.0, 1.0, size=(pieces, dim))])
    return PiecewiseLinearPath(pts)


# -- subcommands ----------------------------------------------------------


@contextlib.contextmanager
def _output(args):
    """The ``--out`` file, closed on leaving, or stdout without one."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", newline="") as fh:
        yield fh


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise InputFormatError(f"{flag} must be >= {least}, got {value}")


def cmd_sign(args) -> int:
    _require_at_least("--depth", args.depth, 0)
    records = fileio.read_paths_csv(args.input)
    sigs = batch_signature([p for _, p in records], args.depth)
    with _output(args) as out:
        fileio.write_signatures_json(out, [(pid, sig) for (pid, _), sig
                                           in zip(records, sigs)])
    return EXIT_OK


def _parse_start(raw: str | None, dim: int) -> np.ndarray:
    if raw is None:
        check_allocation(dim, 1)  # a depth-0 record can claim any dim
        return np.zeros(dim)
    try:
        vec = np.array([float(f) for f in raw.split(",")])
    except ValueError as exc:
        raise InputFormatError(f"bad --start vector {raw!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise InputFormatError(f"non-finite --start vector {raw!r}")
    if vec.size != dim:
        raise InputFormatError(
            f"--start has {vec.size} components but the signatures have dim {dim}"
        )
    return vec


def cmd_invert(args) -> int:
    sigs = fileio.read_signatures_json(args.input)
    if not sigs:
        raise InputFormatError("no signature records in input")
    dim = sigs[0][1].dim
    start = _parse_start(args.start, dim)
    ok_records, errors = [], {}
    # per-record failures become error rows; other records are unaffected
    for pid, sig in sigs:
        try:
            if sig.dim != dim:
                raise ValueError(
                    f"record dim {sig.dim} differs from batch dim {dim}"
                )
            ok_records.append((pid, invert_signature(sig, start=start).path))
        except (NormTooSmall, ValueError) as exc:
            errors[pid] = str(exc)
    with _output(args) as out:
        fileio.write_paths_csv(out, ok_records, errors, dim=dim)
    return EXIT_OK


def _parse_depths(raw: str) -> list[int]:
    try:
        depths = [int(f) for f in raw.split(",") if f.strip()]
    except ValueError as exc:
        raise InputFormatError(f"bad depth list {raw!r}") from exc
    if not depths:
        raise InputFormatError(f"--depths names no depth: {raw!r}")
    return depths


def cmd_roundtrip(args) -> int:
    depths = _parse_depths(args.depths)
    for depth in depths:
        _require_at_least("each --depths entry", depth, 2)
    paths = fileio.read_paths_csv(args.input)
    # every row is computed before the output opens, so a failure writes nothing
    rows = [[pid, depth, *map(fileio.format_float, roundtrip_errors(path, depth))]
            for pid, path in paths for depth in depths]
    with _output(args) as out:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["id", "depth", "mean_error", "max_error"])
        w.writerows(rows)
    return EXIT_OK


def cmd_trend(args) -> int:
    _require_at_least("--depth", args.depth, 2)
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("trend estimation expects a single path")
    pid, path = paths[0]
    sig = path_signature(path, args.depth)
    recon = invert_signature(sig, start=path.points[0])
    with _output(args) as out:
        fileio.write_paths_csv(out, [(pid, recon.path)])
    return EXIT_OK


def normalize_unit_length(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Constant-speed reparameterization plus scaling to total variation 1.

    A path that cannot be reparameterized, or whose length float64 cannot
    scale to 1, is an AssumptionViolation.
    """
    try:
        path = constant_speed_reparam(path)
    except ValueError as exc:
        raise AssumptionViolation(f"cannot reparameterize: {exc}") from exc
    ell = segment_geometry(path).total_variation
    if 1.0 / ell == math.inf:
        raise AssumptionViolation(
            f"a path of length {ell} cannot be scaled to length 1 in float64"
        )
    return path.scaled(1.0 / ell)


def cmd_develop(args) -> int:
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise InputFormatError(f"--alpha must be finite, got {args.alpha}")
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("develop expects a single path")
    report = norm_lower_bound_check(normalize_unit_length(paths[0][1]),
                                    args.alpha)
    with _output(args) as out:
        json.dump(dataclasses.asdict(report), out, indent=2)
        out.write("\n")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siginvert",
        description="Truncated path signatures and insertion-method inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--max-coeffs", type=int, default=None,
                        help="override the tensor allocation cap")

    p = sub.add_parser("sign", parents=[common],
                       help="truncated signature of CSV path(s), as JSON")
    p.add_argument("input", help="path CSV file")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("invert", parents=[common],
                       help="invert signature JSON back to path CSV")
    p.add_argument("input", help="signature JSON file")
    p.add_argument("--start", help="comma-separated start point (default 0)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="sign+invert error table over several depths")
    p.add_argument("input", help="path CSV file")
    p.add_argument("--depths", required=True, help="e.g. 5,10,20")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("trend", parents=[common],
                       help="smooth a sampled series by sign+invert")
    p.add_argument("input", help="path CSV file with a single path")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("develop", parents=[common],
                       help="hyperbolic-development lower-bound report")
    p.add_argument("input", help="path CSV file with a single path")
    p.add_argument("--alpha", type=float, default=None,
                   help="scaling (default 2 K(omega) / D)")
    p.set_defaults(func=cmd_develop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous_cap = get_allocation_cap()
    try:
        if args.max_coeffs is not None:
            _require_at_least("--max-coeffs", args.max_coeffs, 1)
            set_allocation_cap(args.max_coeffs)
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NormTooSmall, AllocationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    finally:
        set_allocation_cap(previous_cap)


if __name__ == "__main__":
    sys.exit(main())
