"""netmech benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace {0,1}

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn. Run from the root of a netmech checkout; the program is imported from
its ``src``. Every workload process gets OPENBLAS_NUM_THREADS=1 and the CLI
gets ``--threads 2``. Outputs, logs and a manifest go to
``.bench_out/<workload>/seed<N>-trace<0|1>/``.

With ``--trace 0`` the workload runs in fresh processes: four that only set
up, then one that sets up and measures for T seconds. setup_s is the median
set-up time of the five. With ``--trace 1`` one untraced process measures
run_s as above, then two traced processes run one operation group each;
their per-layer numbers are averaged, their count metrics must agree
exactly, and their output files must be byte-identical to the untraced
run's. trace.overhead_s is traced minus untraced run_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it are a table of
the same metrics with units, plus fail_ratio, and "n/a" where a workload
never calls a layer (reported as 0 in the JSON).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TRACED_RUNS = 2
TIME_LIMIT_S = 170.0
REFERENCE_RTOL = 1e-9
# (output file, seed it holds for; None = the output does not depend on the seed)
REFERENCES = {
    "verify-quad-hub5": ("verify_curves.csv", None),
    "fig6-mc": ("fig6.csv", 0),
}
COUNT_UNITS = ("count", "GFLOP", "GB")

# distributions imported on its own: a stub package skips netmech/__init__
IMPORT_PROBE = (
    "import sys, time, types\n"
    "pkg = types.ModuleType('netmech'); pkg.__path__ = ['src/netmech']\n"
    "sys.modules['netmech'] = pkg\n"
    "start = time.perf_counter()\n"
    "import netmech.distributions\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(RuntimeError):
    """A benchmark process failed to run; no result can be reported."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("NETMECH_SEED", None)
    return env


def spawn(workload, seed, mode, out: Path, deadline, seconds=0.0) -> dict:
    """Run one child process to completion; returns its result with setup_s added."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--out", str(out)]
    with open(out / "log.txt", "w") as log:
        start = now()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  env=child_env(), timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} process timed out; see {out / 'log.txt'}") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}; see {out / 'log.txt'}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result["ready_at"] - start
    result["cmd"] = cmd
    return result


def import_probe(deadline) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          cwd=ROOT, env=child_env(), timeout=max(1.0, deadline - now()), check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_mismatch(workload, seed, out: Path) -> str | None:
    """Compare an output CSV with the stored reference, per column relative to its largest value."""
    name, ref_seed = REFERENCES.get(workload, (None, None))
    if name is None or (ref_seed is not None and seed != ref_seed):
        return None
    with open(HERE / "reference" / f"{workload}.csv", newline="") as fh:
        expected = list(csv.reader(fh))
    with open(out / name, newline="") as fh:
        actual = list(csv.reader(fh))
    if expected[0] != actual[0] or len(expected) != len(actual):
        return f"{name}: header or row count differs from the reference"
    for col, label in enumerate(expected[0]):
        ref = [float(row[col]) for row in expected[1:]]
        got = [float(row[col]) for row in actual[1:]]
        scale = max(abs(v) for v in ref) or 1.0
        worst = max(abs(a - b) for a, b in zip(ref, got))
        if worst > REFERENCE_RTOL * scale:
            return f"{name}: column {label} differs from the reference by {worst:.3g} (scale {scale:.3g})"
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, units) -> dict:
    out = OUT / workload / f"seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    deadline = now() + TIME_LIMIT_S
    problems = []

    setups = []
    if not trace:
        setups = [spawn(workload, seed, "setup", out / f"setup{k}", deadline)["setup_s"]
                  for k in range(SETUP_SAMPLES - 1)]
    run = spawn(workload, seed, "run", out / "run", deadline, seconds)
    setups.append(run["setup_s"])
    runs = [run]
    mismatch = reference_mismatch(workload, seed, out / "run")
    if mismatch:
        problems.append(mismatch)
    run_s = statistics.median(g["wall_s"] for g in run["groups"])

    if not trace:
        latencies_ms = [v * 1e3 for v in run["latencies_s"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": run["peak_rss_mb"],
            "solve_ms_p50": percentile(latencies_ms, 50),
            "solve_ms_p90": percentile(latencies_ms, 90),
        }
    else:
        metrics = {"distributions.import_s": statistics.median(
            import_probe(deadline) for _ in range(IMPORT_SAMPLES))}
        traced = [spawn(workload, seed, "trace", out / f"trace{k}", deadline)
                  for k in range(TRACED_RUNS)]
        runs.extend(traced)
        for k, t in enumerate(traced):
            if t["digests"] != run["digests"]:
                problems.append(f"traced run {k}: output files differ from the untraced run's")
        for name in traced[0]["layers"]:
            values = [t["layers"][name] for t in traced]
            if units[name] in COUNT_UNITS and len(set(values)) > 1:
                problems.append(f"{name} did not repeat between traced runs: {values}")
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
        metrics["cli.cpu_s"] = statistics.median(g["cpu_s"] for g in run["groups"])
        metrics["trace.overhead_s"] = statistics.fmean(t["groups"][0]["wall_s"] for t in traced) - run_s

    attempted = sum(g["attempted"] for r in runs for g in r["groups"])
    failed = sum(g["failed"] for r in runs for g in r["groups"])
    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": {"benchmark": sys.argv, "processes": [r["cmd"] for r in runs],
                 "netmech": run["argv"]},
        "parameters": run["params"],
        "environment": run["environment"],
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "setup_samples_s": setups,
        "groups": [r["groups"] for r in runs],
        "metrics": metrics,
        "not_applicable": sorted(k for k, v in metrics.items() if v is None),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def table(manifest, units) -> list[str]:
    workload = manifest["workload"]
    lines = []
    for name, value in manifest["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{workload:18} {name:42} {shown:>14} {units[name]}")
    ratio = manifest["failed"] / manifest["attempted"]
    lines.append(f"{workload:18} {'fail_ratio':42} {ratio:>14.6g} ratio "
                 f"({manifest['failed']} of {manifest['attempted']} operations)")
    return lines


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "netmech" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a netmech checkout (needs src/netmech and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    results = []
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            results.append(run_workload(workload, args.seed, args.seconds, args.trace, units))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for manifest in results:
        if set(manifest["metrics"]) != set(units):
            print(f"error: {manifest['workload']} reported {sorted(manifest['metrics'])}, "
                  f"BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
            return 1
        for line in table(manifest, units):
            print(line)
        for problem in manifest["problems"]:
            print(f"{manifest['workload']}: check failed: {problem}")
        prefix = f"{manifest['workload']}." if len(results) > 1 else ""
        for name, value in manifest["metrics"].items():
            metrics[prefix + name] = {"value": 0 if value is None else value, "unit": units[name]}
    attempted = sum(m["attempted"] for m in results)
    failed = sum(m["failed"] for m in results)
    correct = failed == 0 and not any(m["problems"] for m in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
