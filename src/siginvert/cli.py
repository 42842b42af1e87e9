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
import io
import json
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
from .insertion import _invert_depths, _outcomes, _start_point
from .signature import PiecewiseLinearPath, _segment_lengths, batch_signature
from .tensor_algebra import get_allocation_cap, set_allocation_cap

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_ASSUMPTION = 4

RESAMPLE_POINTS = 200


# -- geometry helpers -----------------------------------------------------


def resample_arclength(points: np.ndarray, count: int) -> np.ndarray:
    """Resample a polyline at ``count`` points equally spaced in arc length.
    An arc length past float64 raises AssumptionViolation."""
    points = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore"):
        s = np.concatenate(([0.0], np.cumsum(
            _segment_lengths(np.diff(points, axis=0)))))
    if s[-1] == np.inf:
        raise AssumptionViolation("a path's arc length overflows float64")
    grid = np.linspace(0.0, s[-1], count)
    return np.column_stack(
        [np.interp(grid, s, points[:, j]) for j in range(points.shape[1])]
    )


def _distances(a: np.ndarray, recon) -> tuple[float, float]:
    """(mean, max) pointwise distance between a path, given as its points
    ``a`` resampled in arc length, and its inversion ``recon``, resampled
    so too.  ``_segment_lengths`` gives the distances, and the mean is
    taken under the power of two of the largest, so neither overflows; both
    scalings are exact."""
    b = resample_arclength(recon.path.points, RESAMPLE_POINTS)
    dist = _segment_lengths(a - b)
    _, exp = np.frexp(dist.max())
    return float(np.ldexp(np.ldexp(dist, -exp).mean(), exp)), float(dist.max())


def roundtrip_errors(path: PiecewiseLinearPath, depth: int) -> tuple[float, float]:
    """``roundtrip``'s row at one depth: the (mean, max) distance between
    the path and its inversion anchored at the path's start."""
    [recon] = _invert_depths(path, [depth], path.points[0])
    return _distances(resample_arclength(path.points, RESAMPLE_POINTS), recon)


def random_benchmark_path(rng, dim: int, pieces: int = 10) -> PiecewiseLinearPath:
    """A random piecewise linear path with ``pieces`` pieces starting at 0,
    each piece endpoint drawn uniformly in [0, 1]^dim."""
    pts = np.vstack([np.zeros(dim), rng.uniform(0.0, 1.0, size=(pieces, dim))])
    return PiecewiseLinearPath(pts)


# -- subcommands ----------------------------------------------------------


@contextlib.contextmanager
def _output(args, whole=True):
    """The ``--out`` file, UTF-8 as the readers expect and closed on
    leaving, or stdout, in the terminal's encoding, without one.  Stdout
    gets the text in one write on leaving, encoded whole before any of it
    is printed, so text the terminal cannot encode prints nothing; with
    ``whole`` False it is written as it comes (``sign``'s ASCII JSON)."""
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    elif whole:
        text = io.StringIO()
        yield text
        sys.stdout.write(text.getvalue())
    else:
        yield sys.stdout


def cmd_sign(args) -> int:
    records = fileio.read_paths_csv(args.input)
    sigs = batch_signature([p for _, p in records], args.depth)
    with _output(args, whole=False) as out:
        fileio.write_signatures_json(out, [(pid, sig) for (pid, _), sig
                                           in zip(records, sigs)])
    return EXIT_OK


def _parse_start(raw: str | None, dim: int) -> np.ndarray:
    try:
        vec = None if raw is None else [float(f) for f in raw.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"bad --start vector {raw!r}") from exc
    return _start_point(vec, dim)


def cmd_invert(args) -> int:
    sigs = fileio.read_signatures_json(args.input)
    if not sigs:
        raise InputFormatError("no signature records in input")
    dim = sigs[0][1].dim
    start = _parse_start(args.start, dim)
    ok_records, errors = [], {}
    # one grouped solve; per-record failures, a dim other than the first
    # record's among them, become error rows, and other records are unaffected
    found = _outcomes([sig for _, sig in sigs], [start] * len(sigs))
    for (pid, _), res in zip(sigs, found):
        if isinstance(res, Exception):
            errors[pid] = str(res)
        else:
            ok_records.append((pid, res.path))
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
    paths = fileio.read_paths_csv(args.input)
    # every row is computed before the output opens, so a failure writes
    # nothing; each path is resampled once, after its inversions
    rows = []
    for pid, path in paths:
        recons = _invert_depths(path, depths, path.points[0])
        a = resample_arclength(path.points, RESAMPLE_POINTS)
        rows += [[pid, depth, *map(fileio.format_float, _distances(a, recon))]
                 for depth, recon in zip(depths, recons)]
    with _output(args) as out:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["id", "depth", "mean_error", "max_error"])
        w.writerows(rows)
    return EXIT_OK


def cmd_trend(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("trend estimation expects a single path")
    pid, path = paths[0]
    [recon] = _invert_depths(path, [args.depth], path.points[0])
    with _output(args) as out:
        fileio.write_paths_csv(out, [(pid, recon.path)])
    return EXIT_OK


def cmd_develop(args) -> int:
    paths = fileio.read_paths_csv(args.input)
    if len(paths) != 1:
        raise InputFormatError("develop expects a single path")
    report = norm_lower_bound_check(paths[0][1], args.alpha)
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
            set_allocation_cap(args.max_coeffs)
        return args.func(args)
    # the library refuses a bad argument value with ValueError
    except (InputFormatError, OSError, ValueError) as exc:
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
