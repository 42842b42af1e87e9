"""Command line interface: sign, invert, roundtrip, trend, bench, develop.

Exit codes: 0 success, 2 input format error, 3 numeric guard
(norm-too-small or allocation cap), 4 assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import fileio
from .development import geometry_or_raise, k_of_omega, norm_lower_bound_check
from .errors import (
    AllocationCapError,
    AssumptionViolation,
    InputFormatError,
    NormTooSmall,
)
from .insertion import batch_invert, invert_signature
from .signature import (
    PiecewiseLinearPath,
    constant_speed_reparam,
    merge_degenerate,
    path_signature,
    segment_geometry,
)
from .tensor_algebra import get_allocation_cap, set_allocation_cap

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_ASSUMPTION = 4

RESAMPLE_POINTS = 200


# -- geometry helpers -----------------------------------------------------


def resample_arclength(points: np.ndarray, count: int) -> np.ndarray:
    """Resample a polyline at ``count`` points equally spaced in arc length."""
    points = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
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


def _out_stream(args):
    return open(args.out, "w", newline="") if args.out else sys.stdout


def _close_out(stream):
    if stream is not sys.stdout:
        stream.close()


def cmd_sign(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    records = []
    for pid, path in paths:
        if args.constant_speed:
            path = constant_speed_reparam(path)
        records.append((pid, path_signature(path, args.depth)))
    out = _out_stream(args)
    try:
        fileio.write_signatures_json(out, records)
    finally:
        _close_out(out)
    return EXIT_OK


def _parse_start(raw: str | None, dim: int) -> np.ndarray:
    if raw is None:
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
    homogeneous = all(s.dim == dim and s.depth == sigs[0][1].depth
                      for _, s in sigs)
    if homogeneous:
        try:
            results = batch_invert([s for _, s in sigs],
                                   [start] * len(sigs))
            ok_records = [(pid, r.path) for (pid, _), r in zip(sigs, results)]
        except (NormTooSmall, ValueError):
            homogeneous = False  # isolate the failing record below
    if not homogeneous:
        # per-record failures become error rows; other records are unaffected
        for pid, sig in sigs:
            try:
                if sig.dim != dim:
                    raise ValueError(
                        f"record dim {sig.dim} differs from batch dim {dim}"
                    )
                res = invert_signature(sig, start=start)
                ok_records.append((pid, res.path))
            except (NormTooSmall, ValueError) as exc:
                errors[pid] = str(exc)
    out = _out_stream(args)
    try:
        fileio.write_paths_csv(out, ok_records, errors)
    finally:
        _close_out(out)
    return EXIT_OK


def _parse_depths(raw: str) -> list[int]:
    try:
        return [int(f) for f in raw.split(",") if f.strip()]
    except ValueError as exc:
        raise InputFormatError(f"bad depth list {raw!r}") from exc


def cmd_roundtrip(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    depths = _parse_depths(args.depths)
    out = _out_stream(args)
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["id", "depth", "mean_error", "max_error"])
        for pid, path in paths:
            for depth in depths:
                mean_err, max_err = roundtrip_errors(path, depth)
                w.writerow([pid, depth, fileio.format_float(mean_err),
                            fileio.format_float(max_err)])
    finally:
        _close_out(out)
    return EXIT_OK


def cmd_trend(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("trend estimation expects a single path")
    pid, path = paths[0]
    sig = path_signature(path, args.depth)
    recon = invert_signature(sig, start=path.points[0])
    out = _out_stream(args)
    try:
        fileio.write_paths_csv(out, [(pid, recon.path)])
    finally:
        _close_out(out)
    return EXIT_OK


BENCH_DEFAULTS = {
    "depth": "4,5,6,7,8,9,10,11,12",
    "dim": "2,3,4,5,6,7,8",
    "batch": "1,10,50",
}


def _bench_config(vary: str, value: int) -> tuple[int, int, int]:
    """(dim, depth, batch) for one benchmark row."""
    if vary == "depth":
        return 2, value, 1
    if vary == "dim":
        return value, 4, 1
    return 2, 10, value


def run_bench(vary: str, values, seed: int):
    """Timing rows (vary, value, dim, depth, batch, seconds, status)."""
    rows = []
    for value in values:
        dim, depth, batch = _bench_config(vary, value)
        rng = np.random.default_rng(seed)
        try:
            sigs = [
                path_signature(random_benchmark_path(rng, dim), depth)
                for _ in range(batch)
            ]
        except AllocationCapError:
            rows.append((vary, value, dim, depth, batch, "", "skipped"))
            continue
        batch_invert(sigs)  # warmup (JIT compilation, caches)
        t0 = time.perf_counter()
        batch_invert(sigs)
        seconds = time.perf_counter() - t0
        rows.append((vary, value, dim, depth, batch,
                     f"{seconds:.6f}", "ok"))
    return rows


def cmd_bench(args) -> int:
    raw = args.values if args.values else BENCH_DEFAULTS[args.vary]
    values = _parse_depths(raw)
    rows = run_bench(args.vary, values, args.seed)
    out = _out_stream(args)
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["vary", "value", "dim", "depth", "batch", "seconds", "status"])
        w.writerows(rows)
    finally:
        _close_out(out)
    return EXIT_OK


def normalize_unit_length(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Constant-speed reparameterization plus scaling to total variation 1."""
    path = constant_speed_reparam(merge_degenerate(path))
    ell = segment_geometry(path).total_variation
    return path.scaled(1.0 / ell)


def cmd_develop(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("develop expects a single path")
    _, path = paths[0]
    path = normalize_unit_length(path)
    geom = geometry_or_raise(path)
    alpha = args.alpha
    if alpha is None:
        alpha = 2.0 * k_of_omega(geom.min_angle) / float(geom.lengths.min())
    report = norm_lower_bound_check(path, alpha)
    out = _out_stream(args)
    try:
        json.dump(dataclasses.asdict(report), out, indent=2)
        out.write("\n")
    finally:
        _close_out(out)
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
    p.add_argument("--constant-speed", action="store_true",
                   help="reparameterize first (signature is unchanged)")
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

    p = sub.add_parser("bench", parents=[common],
                       help="inversion timing table over one axis")
    p.add_argument("--vary", choices=["depth", "dim", "batch"], required=True)
    p.add_argument("--values", help="comma-separated values for the axis")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_bench)

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
    if getattr(args, "max_coeffs", None):
        set_allocation_cap(args.max_coeffs)
    try:
        return args.func(args)
    except (InputFormatError, FileNotFoundError) as exc:
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
