"""One benchmark workload in a fresh process; started by run.py.

    python3 perfbench/child.py --workload W --seed S --mode {setup,run,trace} \
        --seconds T --out DIR

The process imports netmech.cli, generates the workload's inputs from the
seed and notes the monotonic clock ("ready_at"): that instant ends set-up.
Mode ``setup`` stops there. Mode ``run`` repeats the workload's operation
group until the next repetition would pass T seconds (at least one).
Mode ``trace`` installs the span tracer before generating inputs and runs
one group. The outcome is written to DIR/result.json; the program's own
output files go to DIR.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

THREADS = 2  # nproc of the reference box and the CLI default there
N_LARGE = 800
PROFILES = 300
FOC_TOL = 1e-10  # relative to s+a-p

# the hub5 case study: hub user 0 tied to all, plus the extra 2-3 edge
HUB5 = {
    "params": {"a": 0.5, "b": 6.0, "s": 1.0, "t": 1.0, "p": 0.1},
    "network": {"kind": "hub", "n": 5},
    "distribution": {"family": "uniform", "lower": 0.4, "upper": 0.8},
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def file_digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


class CliWorkload:
    """One operation is one ``netmech.cli.main`` call; it passes when ``passed(out)`` holds."""

    def __init__(self, argv, out: Path, outputs, passed, params):
        self.argv = argv
        self.out = out
        self.outputs = outputs
        self.passed = passed
        self.params = params

    def group(self):
        from netmech import cli

        start = now()
        try:
            ok = cli.main(self.argv) == 0 and self.passed(self.out)
        except Exception:
            traceback.print_exc()
            ok = False
        return 1, int(not ok), [now() - start]

    def digests(self) -> dict:
        return file_digests(self.out, self.outputs)


def _verify_report_passed(out: Path) -> bool:
    with open(out / "verify_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(row["status"] == "PASS" for row in rows)


def _summary_checks_passed(out: Path) -> bool:
    lines = [line.strip() for line in (out / "summary.txt").read_text().splitlines()]
    checks = [line for line in lines if line.startswith(("[PASS]", "[FAIL]"))]
    return bool(checks) and all(line.startswith("[PASS]") for line in checks)


def verify_quad_hub5(seed: int, out: Path) -> CliWorkload:
    config = out / "hub5.json"
    config.write_text(json.dumps(HUB5))
    argv = ["verify", "--config", str(config), "--engine", "quadrature",
            "--seed", str(seed), "--threads", str(THREADS), "--out", str(out)]
    params = {"config": HUB5, "quad_order": 8, "report_grid": 201, "grid": 21}
    return CliWorkload(argv, out, ("verify_report.csv", "verify_curves.csv"),
                       _verify_report_passed, params)


def fig6_mc(seed: int, out: Path) -> CliWorkload:
    argv = ["experiment", "--name", "fig6", "--seed", str(seed),
            "--threads", str(THREADS), "--out", str(out)]
    params = {"engine": "mc", "mc_samples": 20_000, "sizes": [10, 20, 50], "users": [0], "grid": 9}
    return CliWorkload(argv, out, ("fig6.csv",), _summary_checks_passed, params)


class SolveWorkload:
    """One operation is one ``demand_solve`` on an n=800 random-half network, gated by its FOC residual."""

    def __init__(self, seed: int, out: Path):
        import numpy as np
        from netmech import experiments, market

        params, dist = experiments.CASE_STUDY_PARAMS, experiments.DEFAULT_DIST
        network, _ = experiments.scaled_random_half_network(N_LARGE, seed, params, dist.upper)
        self.scenario = market.Scenario(network, params, dist)
        self.scenario.require_valid()
        rng = np.random.default_rng([seed, N_LARGE])
        self.profiles = np.asarray(dist.quantile(rng.random((PROFILES, N_LARGE))), dtype=float)
        self.tol = FOC_TOL * (params.s + params.a - params.p)
        self.digest = None
        self.argv = None
        self.params = {"n": N_LARGE, "profiles": PROFILES, "network": "scaled_random_half_network",
                       "foc_tol": self.tol}

    def group(self):
        import numpy as np
        from netmech import mechanism

        failed, latencies = 0, []
        digest = hashlib.sha256()
        for theta in self.profiles:
            start = now()
            try:
                x = mechanism.demand_solve(self.scenario, theta)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            latencies.append(now() - start)
            digest.update(x.tobytes())
            residual = mechanism.foc_residual(self.scenario, theta, x)
            if not (residual <= self.tol and np.all(x > 0)):
                failed += 1
        self.digest = digest.hexdigest()
        return len(self.profiles), failed, latencies

    def digests(self) -> dict:
        return {"solutions": self.digest}


WORKLOADS = {
    "verify-quad-hub5": verify_quad_hub5,
    "fig6-mc": fig6_mc,
    "solve-n800": SolveWorkload,
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": THREADS,
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)

    import netmech.cli  # noqa: F401  (part of set-up)

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    workload = WORKLOADS[args.workload](args.seed, out)
    result = {"ready_at": now()}

    if args.mode != "setup":
        groups, latencies = [], []
        start = now()
        while True:
            wall0, cpu0 = now(), cpu_seconds()
            attempted, failed, lat = workload.group()
            groups.append({"attempted": attempted, "failed": failed,
                           "wall_s": now() - wall0, "cpu_s": cpu_seconds() - cpu0})
            latencies.extend(lat)
            typical = statistics.median(g["wall_s"] for g in groups)
            if args.mode == "trace" or now() - start + typical > args.seconds:
                break
        result.update(
            groups=groups,
            latencies_s=latencies,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            digests=workload.digests(),
            params=workload.params,
            argv=workload.argv,
            environment=environment(),
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
