"""Golden outputs of the determinism fixtures, and the script that makes them.

    python tests/golden/update.py                        # rewrite tests/golden/ from src
    python tests/golden/update.py --out DIR --threads 2  # write the same files to DIR

Each fixture is one CLI run at ``--seed 3``; its CSV files, and a verify
run's ``verify_summary.txt``, go to ``<fixture>/<file>``. ``solve_n800.json``
holds, per seed, the SHA-256 of the 300 guarded ``demand_solve`` solutions at
n = 800 that perfbench's solve-n800 workload computes. ``host.json`` records the numpy version and the BLAS
(name, version and the OpenBLAS core kernel it picked) of the run, since only
the same numbers in the same library give the same bits.
``tests/test_golden.py`` regenerates every file and compares. A change that
moves a fixture on purpose rewrites them with this script, and says by how
much each file moved.

The script runs BLAS on one thread: set ``OPENBLAS_NUM_THREADS`` before
numpy loads, as the test does for its child process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from netmech import cli, experiments, market, mechanism  # noqa: E402

CURVES = ("--seed", "3", "--report-grid", "41")
MC_1000 = ("--engine", "mc", "--mc-samples", "1000")
FIXTURES = {
    f"{verb}_{config}_{engine}": [verb, "--config", str(ROOT / "configs" / f"{config}.json"),
                                  *CURVES, *(("--grid", "9") if verb == "verify" else ()),
                                  *(MC_1000 if engine == "mc" else ())]
    for verb in ("verify", "rewards") for config in ("hub5", "complete5") for engine in ("quad", "mc")
}
# the one fixture whose users span several sample chunks: 20000 samples at n = 5
FIXTURES["rewards_complete5_mc20000"] = ["rewards", "--config", str(ROOT / "configs" / "complete5.json"),
                                         *CURVES, "--engine", "mc"]
FIXTURES.update({f"experiment_{name}": ["experiment", "--name", name, "--seed", "3"]
                 for name in ("fig3", "fig4", "table1", "fig6")})
SOLVE_SEEDS = (7, 11)


def solve_digest(seed: int, n: int = 800, profiles: int = 300) -> str:
    """SHA-256 of ``demand_solve`` on ``profiles`` type profiles of a random-half network."""
    params, dist = experiments.CASE_STUDY_PARAMS, experiments.DEFAULT_DIST
    network, _ = experiments.scaled_random_half_network(n, seed, params, dist.upper)
    sc = market.Scenario(network, params, dist)
    rng = np.random.default_rng([seed, n])
    digest = hashlib.sha256()
    for theta in np.asarray(dist.quantile(rng.random((profiles, n))), dtype=float):
        digest.update(mechanism.demand_solve(sc, theta).tobytes())
    return digest.hexdigest()


def blas_core() -> str | None:
    """The core kernel OpenBLAS picked at load (``OPENBLAS_CORETYPE`` overrides it), or None."""
    try:
        maps = Path("/proc/self/maps").read_text().split("\n")
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps if "openblas" in line and line.endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            function = getattr(lib, name, None)
            if function is not None:
                function.restype = ctypes.c_char_p
                return function().decode()
    return None


def host() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": blas_core()}


def generate(out: Path, threads: int) -> None:
    """Every fixture's CSV files and verify summary, the solve digests and the host record,
    under ``out``."""
    for name, argv in FIXTURES.items():
        run = out / name
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv + ["--threads", str(threads), "--out", str(run)])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        for extra in sorted(run.iterdir()):
            if extra.suffix != ".csv" and extra.name != "verify_summary.txt":
                extra.unlink()  # the other summaries name the output directory
    digests = {str(seed): solve_digest(seed) for seed in SOLVE_SEEDS}
    (out / "solve_n800.json").write_text(json.dumps(digests, indent=1) + "\n")
    (out / "host.json").write_text(json.dumps(host(), indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    generate(args.out, args.threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
