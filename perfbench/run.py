"""siginvert benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; siginvert is imported from its
``src`` directory.  The run builds the workload's inputs from the seed,
sets up three times (inputs plus one warm-up job; the median is reported),
then repeats the job for ``--seconds`` seconds, checking every job's outputs.
Before each set-up and each job the process moves to the allowed CPU
that currently runs a short probe fastest (see ``pin_to_fastest_cpu``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` records a span around every call into a layer, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  Lines before the last
describe the run; the last line is the result object.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
EXPECTED = ROOT / "perfbench" / "expected_recon_err.json"
WORKLOADS = ("cli-batch", "cli-deep", "lib-roundtrip", "lib-invert")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_JOBS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    return ap.parse_args(argv)


def provenance(args, siginvert) -> dict:
    src = Path(siginvert.__file__).parent
    digest = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "numpy": numpy.__version__, "python": sys.version.split()[0],
        "backend": siginvert.active_backend(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "env": {v: os.environ.get(v) for v in
                THREAD_VARS + ("SIGINVERT_JOBS", "SIGINVERT_BACKEND")},
    }


def probe_s() -> float:
    """Time a few milliseconds of interpreter work."""
    t0 = time.perf_counter()
    sum(i * i for i in range(20000))
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus) -> int:
    """Pin the process to whichever allowed CPU runs the probe fastest.

    On a shared machine another tenant's load can slow one CPU by up to
    1.7x for seconds at a time while the other runs at full speed.
    Choosing before every job keeps that out of the job's time.
    """
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(probe_s() for _ in range(5))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1]


def stored_recon_err(workload: str, seed: int, size: str):
    if size != "full" or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def metric_specs(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer_values(wl, tracer, specs: dict, workload: str) -> dict:
    """Per-layer metrics of a traced run: the computed counts of one job,
    and for each span name the median over jobs of the time spent in it."""
    import workloads
    from tracing import median_layer
    jobs = tracer.per_job()
    values = dict.fromkeys(workloads.COUNT_NAMES, 0)
    values.update(wl.counts())
    values["insertion.failed"] = 0  # a failed inversion fails the run
    values["bounds.rows_satisfied_frac"] = getattr(wl, "rows_satisfied_frac", 0.0)
    values["trace.job_s"] = statistics.median(j["job_s"] for j in jobs)
    values["trace.overhead_s"] = statistics.median(j["self_s"] for j in jobs)
    values["trace.spans"] = statistics.median(j["spans"] for j in jobs)
    values["cli.glue_s"] = 0.0
    if workload.startswith("cli-"):
        values["cli.glue_s"] = statistics.median(
            sum(v for k, v in j["layers"].items() if k.startswith("cli."))
            - sum(v for k, v in j["layers"].items() if not k.startswith("cli."))
            for j in jobs)
    for name in specs:
        if name.endswith(".s"):
            values[name] = median_layer(jobs, name[:-2])
    return values


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "siginvert" / "__init__.py").is_file():
        print(f"error: no siginvert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import siginvert
    if Path(siginvert.__file__).resolve().parent != (src / "siginvert").resolve():
        print(f"error: siginvert imported from {siginvert.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import NoTracer, Tracer
    import_s = time.perf_counter() - t_start

    specs = metric_specs(args.trace)
    prov = provenance(args, siginvert)
    print("provenance " + json.dumps(prov, sort_keys=True))
    wl = workloads.make(args.workload, args.size)
    tracer = Tracer() if args.trace else NoTracer()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    cpus = sorted(os.sched_getaffinity(0))
    samples: list[float] = []
    attempted = failed = 0
    problem = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            pin_to_fastest_cpu(cpus)
            t0 = time.perf_counter()
            wl.prepare(args.seed, workdir)
            warm_up = wl.job(NoTracer())
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        reference = wl.check(warm_up)
        stored = stored_recon_err(args.workload, args.seed, args.size)
        if stored is not None and not workloads.recon_close(reference, stored):
            raise workloads.CheckFailed(
                f"recon_err {reference!r} differs from the stored {stored!r}")

        t_measure = time.perf_counter()
        while len(samples) < MIN_JOBS or (
                time.perf_counter() - t_measure + statistics.median(samples)
                <= args.seconds):
            attempted += wl.items
            pin_to_fastest_cpu(cpus)
            t0 = time.perf_counter()
            outputs = tracer.job(wl.job, tracer)
            samples.append(time.perf_counter() - t0)
            recon_err = wl.check(outputs)
            if not workloads.recon_close(recon_err, reference):
                raise workloads.CheckFailed(
                    f"recon_err {recon_err!r} differs from the warm-up's {reference!r}")
    except Exception as exc:  # the run reports any failure as its result
        problem = f"{type(exc).__name__}: {exc}"
        failed = getattr(wl, "items", 1)
        attempted = max(attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if problem is None:
        if args.trace:
            span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(span_file, prov)
            print(f"spans {len(tracer.spans)} written to {span_file}")
            values = per_layer_values(wl, tracer, specs, args.workload)
        else:
            values = {
                "setup_s": setup_s,
                "job_s": statistics.median(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "recon_err": reference,
                "ok_frac": 1.0 - failed / attempted,
            }
        missing = set(specs) - set(values)
        if missing:
            problem = f"metrics not produced: {sorted(missing)}"
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in specs.items()}

    print(f"summary workload={args.workload} seed={args.seed} jobs={len(samples)} "
          f"attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted if attempted else None} "
          f"job_s_samples={json.dumps(samples)}")
    if problem:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"correct": problem is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
