"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone (``prepare``), runs one
job through siginvert's public functions (``job``), and checks the job's
outputs (``check``), returning the job's reconstruction error.  Calls into
the library go through ``tr.call(layer_name, fn, ...)`` so that a traced
run records one span per call; with tracing off the call goes straight
through.  ``counts`` gives the work of one job as computed from the input
sizes, never measured, so it repeats exactly for a seed.

Why these four (inverting from the layer shares of one job):
  cli-batch      many small signatures: per-record overhead in signing and
                 JSON I/O dominates;
  cli-deep       one large signature: memory bandwidth in signing and JSON
                 I/O dominates, so layout and format changes show here;
  lib-roundtrip  in-memory signing at five depths plus the paper's checks,
                 no file I/O: format changes must read "no change" here;
  lib-invert     in-memory inversion of signatures made in set-up: the only
                 workload where the insertion layer does most of the work.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from siginvert import (
    PiecewiseLinearPath,
    batch_invert,
    compare_recovery,
    fileio,
    invert_signature,
    k_of_omega,
    norm_lower_bound_check,
    path_signature,
    segment_geometry,
)
from siginvert import cli
from siginvert.cli import RESAMPLE_POINTS, random_benchmark_path, resample_arclength

# Relative tolerance between two reconstruction errors that must agree:
# repeated jobs, the traced replay, and the value stored for a seed.  It
# admits reordered floating-point sums, not a change of algorithm.
RECON_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of a job is wrong."""


def path_error(points, recon_points) -> float:
    """Mean pointwise distance after arc-length resampling of both curves,
    the measure of ``siginvert.cli.roundtrip_errors``."""
    a = resample_arclength(points, RESAMPLE_POINTS)
    b = resample_arclength(recon_points, RESAMPLE_POINTS)
    return float(np.linalg.norm(a - b, axis=1).mean())


def recon_close(a: float, b: float) -> bool:
    return abs(a - b) <= RECON_RTOL * max(abs(a), abs(b))


def check_level1(level1, points, what: str) -> None:
    """Level 1 of a signature is the path's displacement."""
    points = np.asarray(points)
    disp = points[-1] - points[0]
    scale = 1.0 + float(np.abs(points).max())
    if not np.allclose(np.asarray(level1, dtype=float), disp,
                       rtol=0.0, atol=1e-12 * scale * len(points)):
        raise CheckFailed(f"{what}: level 1 differs from the displacement")


# -- computed counts --------------------------------------------------------

COUNT_NAMES = (
    "fileio.sig_bytes", "fileio.csv_bytes",
    "signature.path_signature.calls", "signature.segments",
    "signature.madds", "signature.bytes",
    "insertion.slots", "insertion.madds", "insertion.bytes",
)


def signing_counts(dim: int, depth: int, segments: int) -> dict:
    """One ``path_signature``: Chen's identity costs sum_m (m+1) d^m
    multiply-adds per concatenation; bytes are the float64 signature it
    returns."""
    per_concat = sum((m + 1) * dim**m for m in range(1, depth + 1))
    return {
        "signature.path_signature.calls": 1,
        "signature.segments": segments,
        "signature.madds": (segments - 1) * per_concat,
        "signature.bytes": 8 * sum(dim**m for m in range(depth + 1)),
    }


def slot_counts(dim: int, degree: int, slots: int) -> dict:
    """``slots`` adjoint contractions of a degree-``degree`` level against
    the level above it: d^(degree+1) multiply-adds and both levels read."""
    return {
        "insertion.slots": slots,
        "insertion.madds": slots * dim ** (degree + 1),
        "insertion.bytes": slots * 8 * (dim**degree + dim ** (degree + 1)),
    }


def inversion_counts(dim: int, depth: int) -> dict:
    """One ``invert_signature`` solves n slots from levels n-1 and n."""
    return slot_counts(dim, depth - 1, depth)


def add_counts(total: dict, part: dict, times: int = 1) -> dict:
    for name, value in part.items():
        total[name] = total.get(name, 0) + times * value
    return total


def segment_count(path: PiecewiseLinearPath) -> int:
    return int(np.count_nonzero(np.any(np.diff(path.points, axis=0), axis=1)))


# -- inputs -------------------------------------------------------------------


def rotation(rng, dim: int) -> np.ndarray:
    """A random orthogonal matrix (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def spiral_3d(rng, segments: int) -> PiecewiseLinearPath:
    """The 3-d spiral of the tier-1 tests, randomly rotated and moved."""
    theta = np.linspace(0.0, 3.0 * math.pi, segments + 1)
    pts = np.column_stack([np.cos(theta), np.sin(theta),
                           theta / (3.0 * math.pi)])
    return PiecewiseLinearPath(pts @ rotation(rng, 3).T + rng.standard_normal(3))


def half_circle(rng, segments: int) -> PiecewiseLinearPath:
    """The unit half-circle of acceptance criterion 4, rotated and moved."""
    theta = np.linspace(0.0, math.pi, segments + 1)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return PiecewiseLinearPath(pts @ rotation(rng, 2).T + rng.standard_normal(2))


def two_segment_path(rng) -> PiecewiseLinearPath:
    """Unit-length constant-speed path with one kink, vertex angle in
    [pi/3, 2pi/3], kink time in [0.4, 0.6]."""
    t1 = rng.uniform(0.4, 0.6)
    turn = math.pi - rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0)
    u1 = np.array([1.0, 0.0])
    u2 = np.array([math.cos(turn), math.sin(turn)])
    pts = np.vstack([np.zeros(2), t1 * u1, t1 * u1 + (1.0 - t1) * u2])
    return PiecewiseLinearPath(pts @ rotation(rng, 2).T, np.array([0.0, t1, 1.0]))


def turning_unit_path(rng, segments: int) -> PiecewiseLinearPath:
    """Unit-length constant-speed planar path whose vertex angles all lie
    in [pi/4, 3pi/4]."""
    widths = np.maximum(rng.dirichlet(np.ones(segments)), 0.05)
    widths /= widths.sum()
    vertex = rng.uniform(math.pi / 4.0, 3.0 * math.pi / 4.0, segments - 1)
    signs = rng.choice([-1.0, 1.0], segments - 1)
    heading = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(
        ([0.0], np.cumsum((math.pi - vertex) * signs)))
    steps = widths[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    times = np.concatenate(([0.0], np.cumsum(widths)))
    times[-1] = 1.0
    return PiecewiseLinearPath(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]),
                               times)


# -- workloads ----------------------------------------------------------------


class CliPipeline:
    """``siginvert sign --depth n`` then ``siginvert invert``, in process
    through ``siginvert.cli.main``, on a seeded path CSV.

    A traced job also replays the layer calls the two commands make, from
    here, so each layer gets its own span.
    """

    def __init__(self, make_paths, depth: int):
        self.make_paths = make_paths
        self.depth = depth

    def prepare(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.paths = [(str(i), p) for i, p in enumerate(self.make_paths(rng))]
        start = self.paths[0][1].points[0]
        if any(not np.array_equal(p.points[0], start) for _, p in self.paths):
            raise ValueError("the paths of one file must share a start point")
        self.start = start
        self.files = {key: os.path.join(workdir, key) for key in (
            "paths.csv", "sigs.json", "recon.csv",
            "replay-sigs.json", "replay-recon.csv")}
        with open(self.files["paths.csv"], "w", newline="") as fh:
            fileio.write_paths_csv(fh, self.paths)
        self.items = len(self.paths)

    def job(self, tr):
        f = self.files
        start = "--start=" + ",".join(repr(float(x)) for x in self.start)
        codes = (
            tr.call("cli.main.sign", cli.main,
                    ["sign", f["paths.csv"], "--depth", str(self.depth),
                     "--out", f["sigs.json"]]),
            tr.call("cli.main.invert", cli.main,
                    ["invert", f["sigs.json"], start, "--out", f["recon.csv"]]),
        )
        outputs = [(codes, f["sigs.json"], f["recon.csv"])]
        if tr.enabled:
            self.replay(tr)
            outputs.append(((0, 0), f["replay-sigs.json"], f["replay-recon.csv"]))
        return outputs

    def replay(self, tr) -> None:
        """The calls ``cmd_sign`` and ``cmd_invert`` make, one span each."""
        f = self.files
        paths = tr.call("fileio.read_paths_csv", fileio.read_paths_csv,
                        f["paths.csv"])
        records = [(pid, tr.call("signature.path_signature", path_signature,
                                 path, self.depth)) for pid, path in paths]
        with open(f["replay-sigs.json"], "w") as fh:
            tr.call("fileio.write_signatures_json", fileio.write_signatures_json,
                    fh, records)
        sigs = tr.call("fileio.read_signatures_json", fileio.read_signatures_json,
                       f["replay-sigs.json"])
        results = tr.call("insertion.batch_invert", batch_invert,
                          [s for _, s in sigs], [self.start] * len(sigs))
        with open(f["replay-recon.csv"], "w", newline="") as fh:
            tr.call("fileio.write_paths_csv", fileio.write_paths_csv, fh,
                    [(pid, r.path) for (pid, _), r in zip(sigs, results)])

    def check(self, outputs) -> float:
        errors = []
        for codes, sig_file, recon_file in outputs:
            if codes != (0, 0):
                raise CheckFailed(f"exit codes {codes}, expected (0, 0)")
            self.check_signatures(sig_file)
            errors.append(self.recon_error(recon_file))
        if not all(recon_close(e, errors[0]) for e in errors):
            raise CheckFailed(f"replay error {errors[1:]} != job error {errors[0]}")
        self.file_bytes = {
            "fileio.sig_bytes": os.path.getsize(self.files["sigs.json"]),
            "fileio.csv_bytes": os.path.getsize(self.files["paths.csv"])
            + os.path.getsize(self.files["recon.csv"]),
        }
        return errors[0]

    def check_signatures(self, sig_file: str) -> None:
        """Read with the standard library, not with siginvert's reader."""
        with open(sig_file) as fh:
            payload = json.load(fh)
        records = payload if isinstance(payload, list) else [payload]
        if [str(r.get("id")) for r in records] != [pid for pid, _ in self.paths]:
            raise CheckFailed(f"{sig_file}: record ids differ from the input")
        for (pid, path), rec in zip(self.paths, records):
            if rec["dim"] != path.dim or rec["depth"] != self.depth:
                raise CheckFailed(f"{sig_file}: record {pid} has wrong dim/depth")
            check_level1(rec["levels"][1], path.points, f"signature {pid}")

    def recon_error(self, recon_file: str) -> float:
        """Worst path error over the records of an ``invert`` output CSV."""
        with open(recon_file, newline="") as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        id_col, err_col = header.index("id"), header.index("error")
        coords = [j for j, h in enumerate(header) if h.startswith("x")]
        recon: dict[str, list] = {}
        for row in rows:
            if row[err_col]:
                raise CheckFailed(f"error row for {row[id_col]}: {row[err_col]}")
            recon.setdefault(row[id_col], []).append([float(row[j]) for j in coords])
        if list(recon) != [pid for pid, _ in self.paths]:
            raise CheckFailed(f"{recon_file}: record ids differ from the input")
        worst = 0.0
        for pid, path in self.paths:
            pts = np.array(recon[pid])
            if pts.shape != (self.depth + 1, path.dim) or not np.all(np.isfinite(pts)):
                raise CheckFailed(f"{recon_file}: bad reconstruction of {pid}")
            worst = max(worst, path_error(path.points, pts))
        return worst

    def counts(self) -> dict:
        total: dict = {}
        for _, path in self.paths:
            add_counts(total, signing_counts(path.dim, self.depth, segment_count(path)))
            add_counts(total, inversion_counts(path.dim, self.depth))
        total.update(self.file_bytes)
        return total


class LibRoundtrip:
    """In-memory sign and invert of the half-circle at several depths
    (the calls ``roundtrip_errors`` makes), then ``compare_recovery`` on a
    two-segment path and ``norm_lower_bound_check`` on turning paths."""

    def __init__(self, segments: int, depths, recovery_depths, turning: int):
        self.segments = segments
        self.depths = tuple(depths)
        self.recovery_depths = tuple(recovery_depths)
        self.turning = turning

    def prepare(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.circle = half_circle(rng, self.segments)
        self.two_segment = two_segment_path(rng)
        self.turning_paths = [turning_unit_path(rng, 1 + i % 5)
                              for i in range(self.turning)]
        self.alphas = []
        for path in self.turning_paths:
            geom = segment_geometry(path)
            self.alphas.append(2.0 * k_of_omega(geom.min_angle)
                               / float(geom.lengths.min()))
        self.items = len(self.depths) + 1 + self.turning

    def job(self, tr):
        inversions = []
        for depth in self.depths:
            sig = tr.call("signature.path_signature", path_signature,
                          self.circle, depth)
            res = tr.call("insertion.invert_signature", invert_signature,
                          sig, start=self.circle.points[0])
            inversions.append((sig, res))
        rows = tr.call("bounds.compare_recovery", compare_recovery,
                       self.two_segment, self.recovery_depths)
        reports = [tr.call("development.norm_lower_bound_check",
                           norm_lower_bound_check, path, alpha)
                   for path, alpha in zip(self.turning_paths, self.alphas)]
        return inversions, rows, reports

    def check(self, outputs) -> float:
        inversions, rows, reports = outputs
        errors = []
        for depth, (sig, res) in zip(self.depths, inversions):
            check_level1(sig.level(1), self.circle.points, f"depth {depth}")
            if not np.all(np.isfinite(res.path.points)):
                raise CheckFailed(f"depth {depth}: non-finite reconstruction")
            errors.append(path_error(self.circle.points, res.path.points))
        if len(rows) != 2 * len(self.recovery_depths) or not all(
                math.isfinite(r.measured) and math.isfinite(r.bound) for r in rows):
            raise CheckFailed("compare_recovery rows are missing or not finite")
        if not all(r.satisfied for r in reports):
            raise CheckFailed("the operator-norm lower bound failed on a path")
        self.rows_satisfied_frac = sum(r.satisfied for r in rows) / len(rows)
        return max(errors)

    def counts(self) -> dict:
        total: dict = {}
        for depth in self.depths:
            add_counts(total, signing_counts(2, depth, segment_count(self.circle)))
            add_counts(total, inversion_counts(2, depth))
        for n in self.recovery_depths:
            add_counts(total, signing_counts(2, n + 1, 2))
            add_counts(total, slot_counts(2, n, 2))
        return total


class LibInvert:
    """``batch_invert`` over signatures signed in set-up, in passes."""

    def __init__(self, groups, passes: int):
        self.groups = tuple(groups)  # (dim, depth, count)
        self.passes = passes

    def prepare(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.batches = []
        for dim, depth, count in self.groups:
            paths = [random_benchmark_path(rng, dim) for _ in range(count)]
            sigs = [path_signature(p, depth) for p in paths]
            for i, (p, s) in enumerate(zip(paths, sigs)):
                check_level1(s.level(1), p.points, f"signature {i}")
            self.batches.append((paths, sigs))
        self.items = self.passes * sum(count for _, _, count in self.groups)

    def job(self, tr):
        return [[tr.call("insertion.batch_invert", batch_invert, sigs)
                 for _, sigs in self.batches] for _ in range(self.passes)]

    def check(self, outputs) -> float:
        first = outputs[0]
        for later in outputs[1:]:
            for a, b in zip(first, later):
                if not all(np.array_equal(x.path.points, y.path.points)
                           for x, y in zip(a, b)):
                    raise CheckFailed("passes over the same signatures differ")
        worst = 0.0
        for (paths, _), results in zip(self.batches, first):
            if len(results) != len(paths):
                raise CheckFailed("batch_invert returned a wrong count")
            for path, res in zip(paths, results):
                if not np.all(np.isfinite(res.path.points)):
                    raise CheckFailed("non-finite reconstruction")
                worst = max(worst, path_error(path.points, res.path.points))
        return worst

    def counts(self) -> dict:
        total: dict = {}
        for dim, depth, count in self.groups:
            add_counts(total, inversion_counts(dim, depth), self.passes * count)
        return total


def make(name: str, size: str):
    """The workload ``name`` at size ``full`` (the benchmark) or ``tiny``
    (the smoke test)."""
    full = size == "full"
    if name == "cli-batch":
        count, depth = (200, 10) if full else (5, 4)
        return CliPipeline(lambda rng: [random_benchmark_path(rng, 2)
                                        for _ in range(count)], depth)
    if name == "cli-deep":
        segments, depth = (30, 12) if full else (6, 5)
        return CliPipeline(lambda rng: [spiral_3d(rng, segments)], depth)
    if name == "lib-roundtrip":
        if full:
            return LibRoundtrip(100, (4, 8, 12, 16, 17), (6, 8, 10, 12, 14), 50)
        return LibRoundtrip(20, (4, 6), (4, 6), 5)
    if name == "lib-invert":
        if full:
            return LibInvert(((2, 14, 100), (3, 9, 100)), passes=12)
        return LibInvert(((2, 6, 5), (3, 5, 5)), passes=2)
    raise ValueError(f"unknown workload {name!r}")
