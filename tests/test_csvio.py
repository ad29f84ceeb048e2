"""The row writer against the one-cell-at-a-time writer it replaced, byte for byte."""

import numpy as np
import pytest

from netmech import MonteCarloEngine, QuadratureEngine, interim_curves, mechanism, reward_schedule
from netmech.csvio import fmt, write_csv

CELLS = [-0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1e16, 0.1 + 0.2, 7, True, "x y",
         np.float64(2.0 / 3.0), np.int64(-12)]


def cell(value) -> str:
    """The cell rule: floats get 12 significant digits, every other cell its str."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def per_cell_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def test_fmt_pins_the_cell_rule():
    assert [fmt(v) for v in CELLS] == ["-0", "nan", "inf", "-inf", "9.99988867183e-321", "1e+16",
                                       "0.3", "7", "True", "x y", "0.666666666667", "-12"]
    assert [fmt(v) for v in CELLS] == [cell(v) for v in CELLS]


def test_rows_byte_identical_to_the_per_cell_writer(tmp_path):
    # one row of every cell, each cell alone, and rows whose types repeat in another order
    rows = [tuple(CELLS), *((v,) for v in CELLS), list(reversed(CELLS)), tuple(CELLS), ()]
    header = tuple(f"c{k}" for k in range(len(CELLS)))
    write_csv(tmp_path / "rows.csv", header, rows)
    per_cell_csv(tmp_path / "cells.csv", header, rows)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::netmech.NegativeRewardWarning")
@pytest.mark.parametrize("engine", [QuadratureEngine(order=4), MonteCarloEngine(samples=300, seed=2)],
                         ids=["quadrature", "mc"])
def test_interim_csv_byte_identical_to_the_per_cell_writer(hub5, tmp_path, monkeypatch, engine):
    curves = interim_curves(hub5, 17, engine)
    rewards = reward_schedule(curves)
    mechanism.export_interim_csv(curves, rewards, tmp_path / "rows.csv")
    monkeypatch.setattr(mechanism, "write_csv", per_cell_csv)
    mechanism.export_interim_csv(curves, rewards, tmp_path / "cells.csv")
    got = (tmp_path / "rows.csv").read_bytes()
    assert got == (tmp_path / "cells.csv").read_bytes()
    assert got.count(b"\n") == 1 + 5 * 17
