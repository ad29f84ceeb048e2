"""The determinism fixtures against their golden outputs in ``tests/golden``.

``tests/golden/update.py`` regenerates every fixture at ``--threads`` 1 and 2
in a child process. Two comparisons follow. On any host, every numeric column
of every CSV is within ``RTOL`` of its largest stored magnitude, every other
column is equal, and each verify summary has the same text once its numbers
are masked. Where numpy and the BLAS match the recorded ``host.json``, every
file is byte-identical, the verify summaries and solve digests included.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
# relative to a column's largest magnitude; the outputs under four OpenBLAS core kernels
# (SkylakeX, Haswell, Sandybridge, Katmai) on one host differ by at most 1.2e-12 of it
RTOL = 1e-10
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def golden_files(root: Path = GOLDEN) -> list:
    """The CSV files and verify summaries under ``root``, relative to it."""
    return sorted(p.relative_to(root) for pattern in ("*.csv", "verify_summary.txt")
                  for p in root.rglob(pattern))


def masked(path: Path) -> str:
    """The text of ``path`` with every number replaced by ``#``: its non-numeric tokens."""
    return NUMBER.sub("#", path.read_text())


def column_differences(got: Path, want: Path) -> dict:
    """Per column of two CSV files of one header and row count: the largest absolute
    difference over the largest stored magnitude, or None where a non-numeric field differs."""
    with got.open() as a, want.open() as b:
        rows, stored = list(csv.reader(a)), list(csv.reader(b))
    assert rows[0] == stored[0] and len(rows) == len(stored), got
    out = {}
    for k, label in enumerate(stored[0]):
        pairs = [(r[k], s[k]) for r, s in zip(rows[1:], stored[1:])]
        try:
            values = [(float(r), float(s)) for r, s in pairs]
        except ValueError:
            out[label] = 0.0 if all(r == s for r, s in pairs) else None
            continue
        scale = max((abs(s) for _, s in values), default=0.0)
        worst = max((abs(r - s) for r, s in values), default=0.0)
        out[label] = worst / scale if scale else (0.0 if worst == 0 else float("inf"))
    return out


@pytest.fixture(scope="module", params=[1, 2], ids=["threads1", "threads2"])
def regenerated(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"golden{request.param}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(GOLDEN / "update.py"), "--out", str(out),
                    "--threads", str(request.param)], env=env, check=True, timeout=600)
    return out


def test_fixtures_within_tolerance_on_any_host(regenerated):
    files = golden_files()
    assert len(files) == 22
    assert files == golden_files(regenerated)
    for name in files:
        if name.suffix != ".csv":
            assert masked(regenerated / name) == masked(GOLDEN / name), str(name)
            continue
        for label, moved in column_differences(regenerated / name, GOLDEN / name).items():
            assert moved is not None and moved <= RTOL, (str(name), label, moved)


def test_fixtures_byte_identical_on_the_recorded_host(regenerated):
    recorded = json.loads((GOLDEN / "host.json").read_text())
    here = json.loads((regenerated / "host.json").read_text())
    if here != recorded:
        pytest.skip(f"byte half skipped: this host runs {here}, the golden files {recorded}")
    for name in golden_files() + [Path("solve_n800.json")]:
        assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes(), str(name)
