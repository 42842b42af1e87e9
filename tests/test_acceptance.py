"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (with its runtime) directly to the
terminal, bypassing pytest's capture, so the nine checks can be read off at
a glance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from siginvert import (
    PiecewiseLinearPath,
    batch_invert,
    constant_speed_reparam,
    develop,
    develop_checkpoints,
    invert_signature,
    k_of_omega,
    norm_lower_bound_check,
    path_signature,
    probe_slot,
    residual_envelope_bound,
    segment_geometry,
)
from siginvert.cli import roundtrip_errors
from siginvert.insertion import _adjoint_rows

from conftest import random_path, turning_unit_path, unit_speed_two_segment
from oracles import (
    b_defect,
    basepoint,
    euclidean_norm,
    hyperbolic_distance,
    insertion_apply,
    insertion_chen_split,
    linear_signature,
    minkowski_b,
    permute,
    riemann_oracle,
    tensor_product,
)


@contextmanager
def criterion(capsys, number, label, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s "
              f"(limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
    )


def test_01_adjoint_identity(rng, capsys):
    with criterion(capsys, 1, "adjoint identity", 5.0):
        for d in (1, 2, 3):
            for n in (2, 3, 4, 5):
                sig = path_signature(random_path(rng, 3, d), n).level(n)
                nrm2 = euclidean_norm(sig) ** 2
                for p in range(1, n + 2):
                    for j in range(d):
                        e = np.zeros(d)
                        e[j] = 1.0
                        z = insertion_apply(sig, e, n, p)
                        got = _adjoint_rows([sig], [z], d, n)[0, p - 1]
                        np.testing.assert_allclose(
                            got, nrm2 * e, rtol=1e-12, atol=1e-12 * nrm2
                        )


def test_02_signature_vs_independent_integrator(rng, capsys):
    with criterion(capsys, 2, "signature vs grid integrator", 60.0):
        for _ in range(20):
            path = random_path(rng, 4, 2)
            sig = path_signature(path, 3)
            oracle = riemann_oracle(path, 3, 800)
            for k in range(1, 4):
                scale = euclidean_norm(sig.levels[k])
                diff = float(np.linalg.norm(sig.level(k) - oracle.level(k)))
                assert diff <= 5e-2 * scale


def test_03_exact_linear_recovery(rng, capsys):
    with criterion(capsys, 3, "exact linear recovery", 5.0):
        for d in (1, 2, 3):
            beta = rng.standard_normal(d)
            for n in range(2, 13):
                sig = linear_signature(beta, 1.0, n)
                res = invert_signature(sig)
                grid = np.linspace(0.0, 1.0, n + 1)
                truth = grid[:, None] * beta[None, :]
                assert np.max(np.abs(res.path.points - truth)) < 1e-9


def test_04_half_circle_reconstruction(capsys):
    with criterion(capsys, 4, "half-circle reconstruction", 30.0):
        theta = np.linspace(0.0, math.pi, 101)
        path = PiecewiseLinearPath(
            np.column_stack([np.cos(theta), np.sin(theta)])
        )
        means = [roundtrip_errors(path, depth)[0] for depth in (5, 10, 20)]
        assert means[0] > means[1] > means[2]
        diameter = 2.0
        assert means[2] < 0.2 * diameter


def test_05_residual_envelope(capsys):
    with criterion(capsys, 5, "residual envelope", 60.0):
        for t1 in (1.0 / 3.0, 0.45, 0.5, 0.6, 2.0 / 3.0):
            delta = min(t1, 1.0 - t1)
            for omega in np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, 5):
                path = unit_speed_two_segment(t1, omega)
                geom = segment_geometry(path)
                beta = np.diff(path.points, axis=0) / np.diff(path.times)[:, None]
                for n in range(math.ceil(2.0 / delta), 15):
                    sig = path_signature(path, n + 1)
                    for i in (1, 2):
                        p = probe_slot(path.times[i - 1], path.times[i], n)
                        resid = insertion_apply(
                            sig.level(n), beta[i - 1], n, p
                        ) - (n + 1) * sig.level(n + 1)
                        width = path.times[i] - path.times[i - 1]
                        bound = residual_envelope_bound(
                            geom.total_variation, width, n
                        )
                        assert float(np.linalg.norm(resid)) <= bound


def test_06_development_isometry(rng, capsys):
    with criterion(capsys, 6, "development isometry", 5.0):
        for _ in range(10):
            path = random_path(rng, 4, 3)
            checkpoints = develop_checkpoints(path)
            for g in checkpoints:
                assert b_defect(g) <= 1e-9
            y1 = checkpoints[-1] @ basepoint(3)
            assert abs(minkowski_b(y1, y1) + 1.0) <= 1e-9
        for _ in range(10):
            v = rng.standard_normal(2)
            seg = PiecewiseLinearPath(np.vstack([np.zeros(2), v]))
            y1 = develop(seg) @ basepoint(2)
            assert abs(hyperbolic_distance(basepoint(2), y1)
                       - np.linalg.norm(v)) <= 1e-9


def test_07_operator_norm_lower_bound(rng, capsys):
    with criterion(capsys, 7, "operator-norm lower bound", 10.0):
        for i in range(50):
            segments = 1 + i % 5
            if segments == 1:
                path = PiecewiseLinearPath(
                    np.vstack([np.zeros(2), rng.standard_normal(2)])
                )
                path = constant_speed_reparam(path).scaled(
                    1.0 / segment_geometry(path).total_variation
                )
            else:
                path = turning_unit_path(rng, segments, math.pi / 4.0,
                                         3.0 * math.pi / 4.0)
            geom = segment_geometry(path)
            alpha = 2.0 * k_of_omega(geom.min_angle) / float(geom.lengths.min())
            report = norm_lower_bound_check(path, alpha)
            assert report.satisfied


def test_08_performance(rng, capsys):
    with criterion(capsys, 8, "performance", 120.0):
        # batch of 50 depth-10 planar signatures inverts in under a second
        sigs = [path_signature(random_path(rng, 10, 2), 10)
                for _ in range(50)]
        batch_invert(sigs[:1])  # warm-up (caches)
        t0 = time.perf_counter()
        batch_invert(sigs)
        assert time.perf_counter() - t0 < 1.0

        def best_of(reps, fn):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        # exponential-in-depth trend: each +4 in depth multiplies the
        # kernel work by 2**4, so timings must grow clearly.  Each depth
        # takes the best of 7 rounds of 20 calls (one sub-millisecond call
        # is noise); the depths take turns round by round, so that a slow
        # spell of the machine reaches all of them, and round 1 warms up
        sigs = {depth: path_signature(random_path(rng, 10, 2), depth)
                for depth in (8, 12, 16)}
        per_depth = dict.fromkeys(sigs, math.inf)
        for _ in range(7):
            for depth, sig in sigs.items():
                t0 = time.perf_counter()
                for _ in range(20):
                    invert_signature(sig)
                per_depth[depth] = min(per_depth[depth],
                                       time.perf_counter() - t0)
        assert per_depth[16] > 3.0 * per_depth[12] > 3.0 * per_depth[8]

        # linear-in-batch trend: 40 signatures take roughly 4x as long as
        # 10, with generous slack for timer noise
        deep = [path_signature(random_path(rng, 10, 2), 14)
                for _ in range(40)]
        t10 = best_of(5, lambda: batch_invert(deep[:10]))
        t40 = best_of(5, lambda: batch_invert(deep))
        assert 2.0 * t10 < t40 < 12.0 * t10


def test_09_invariance_suite(rng, capsys):
    with criterion(capsys, 9, "invariance suite", 10.0):
        for _ in range(10):
            path = random_path(rng, 4, 2)
            sig = path_signature(path, 4)

            shifted = path_signature(path.translated(rng.standard_normal(2)), 4)
            reparam = path_signature(constant_speed_reparam(path), 4)
            for k in range(5):
                ref = max(1.0, euclidean_norm(sig.levels[k]))
                assert np.max(np.abs(sig.level(k) - shifted.level(k))) <= 1e-12 * ref
                assert np.max(np.abs(sig.level(k) - reparam.level(k))) <= 1e-12 * ref

            a, b = sig.level(2), sig.level(3)
            prod = tensor_product(a, b, 2)
            assert abs(euclidean_norm(prod)
                       - euclidean_norm(a) * euclidean_norm(b)) \
                <= 1e-12 * max(1.0, euclidean_norm(prod))

            y = rng.standard_normal(2)
            ins = insertion_apply(b, y, 3, 2)
            assert abs(euclidean_norm(ins)
                       - euclidean_norm(b) * float(np.linalg.norm(y))) \
                <= 1e-12 * max(1.0, euclidean_norm(ins))

            perm = permute(b, 2, (3, 1, 2))
            assert abs(euclidean_norm(perm) - euclidean_norm(b)) <= 1e-12

            v = float(rng.uniform(0.2, 0.8))
            split = insertion_chen_split(path, 3, 2, y, v)
            assert np.max(np.abs(split - ins)) <= 1e-12 * max(
                1.0, euclidean_norm(ins)
            )
