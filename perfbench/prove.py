"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads cli-deep --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --out perfbench/baseline/seed-1-10.json \\
        --record-expected

Runs ``run.py`` once per (workload, seed), one process at a time, with the
run length of BENCHMARK.json.  For every end-to-end metric it prints the
median and the spread, the distance between the first and third quartile
as a share of the median, next to the metric's bound.  ``--record-expected``
stores each seed's ``recon_err`` in ``expected_recon_err.json`` where no
value is stored yet; later runs on that seed must reproduce it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT, text=True,
                          capture_output=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    print("   " + lines[-2], flush=True)
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0].removeprefix("provenance "))
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every result and the spreads here")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}

    report = {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    expected_file = HERE / "expected_recon_err.json"
    expected = json.loads(expected_file.read_text()) if expected_file.is_file() else {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.trace, SPEC["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
            if args.record_expected and not args.trace:
                expected.setdefault(workload, {}).setdefault(
                    str(seed), result["metrics"]["recon_err"]["value"])
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values) if len(values) > 1 else 0.0,
                             "bound": bounds.get(name)}
            row = summary[name]
            verdict = ""
            if row["bound"] is not None:
                verdict = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
            print(f"  {name:32s} median={row['median']:.6g} "
                  f"spread={row['spread']:.4f} bound={row['bound']} {verdict}")
        report["workloads"][workload] = {"summary": summary, "runs": results}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.record_expected:
        expected_file.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
