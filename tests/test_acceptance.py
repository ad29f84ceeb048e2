"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import time
import warnings

import numpy as np
import pytest

from netmech import (
    MonteCarloEngine,
    NegativeRewardWarning,
    QuadratureEngine,
    Scenario,
    demand_solve,
    foc_residual,
    interim_curves,
    reward_schedule,
    verify_ic,
    verify_ir,
    verify_monotonicity,
)
from netmech.cli import main
from netmech.experiments import ExperimentSpec, run_fig4, run_table1, run_table2
from conftest import CASE_PARAMS, UNIFORM, complete_network, random_valid_scenario
from oracles import bruteforce_oracle, k_matrix, k_sensitivity


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


@pytest.fixture(scope="module")
def certified_complete5():
    """Criteria 4-6 share one quadrature certification of the N=5 complete graph."""
    sc = Scenario(complete_network(5), CASE_PARAMS, UNIFORM)
    start = time.perf_counter()
    curves = interim_curves(sc, 201, QuadratureEngine(order=8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        rewards = reward_schedule(curves)
    ic = verify_ic(sc, curves, rewards, 21, 201)
    elapsed = time.perf_counter() - start
    return sc, curves, rewards, ic, elapsed


def test_criterion_1_closed_form_correctness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        sc = random_valid_scenario(rng, n=int(rng.integers(2, 21)))
        theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
        worst = max(worst, foc_residual(sc, theta, demand_solve(sc, theta)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "closed-form correctness", ok,
           f"max foc residual {worst:.3e} over 200 scenarios in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    instances = 0
    for k in range(50):
        n = 2 + (k % 2)
        sc = random_valid_scenario(rng, n=n)
        theta = sc.dist.sample(n, seed=int(rng.integers(1 << 31)))
        x = demand_solve(sc, theta)
        for method in ("grid", "ascent"):
            gap = float(np.max(np.abs(bruteforce_oracle(sc, theta, method) - x)))
            worst = max(worst, gap)
        instances += 1
    ok = worst <= 1e-5 and instances >= 50
    report(2, "oracle equivalence", ok,
           f"max per-coordinate gap {worst:.3e} over {instances} instances x 2 oracles")
    assert worst <= 1e-5


def test_criterion_3_k_sensitivity_lemma():
    rng = np.random.default_rng(1003)
    min_entry = np.inf
    worst_rel = 0.0
    h = 1e-5
    for _ in range(100):
        sc = random_valid_scenario(rng, n=int(rng.integers(2, 9)))
        lo, hi = sc.dist.lower, sc.dist.upper
        theta = np.clip(sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31))),
                        lo + 2 * h, hi - 2 * h)
        i = int(rng.integers(sc.n))
        analytic = k_sensitivity(sc, theta, i)
        bump = np.zeros(sc.n)
        bump[i] = h
        fd = (k_matrix(sc, theta + bump) - k_matrix(sc, theta - bump)) / (2 * h)
        min_entry = min(min_entry, float(analytic.min()))
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-30)
        worst_rel = max(worst_rel, float(np.max(np.abs(analytic - fd)) / scale))
    ok = min_entry >= -1e-12 and worst_rel <= 1e-6
    report(3, "K-sensitivity lemma", ok,
           f"min entry {min_entry:.3e}, worst relative FD gap {worst_rel:.3e} over 100 instances")
    assert min_entry >= -1e-12
    assert worst_rel <= 1e-6


def test_criterion_4_ic_certification(certified_complete5):
    _, _, _, ic, elapsed = certified_complete5
    ok = ic.ic_max_gain <= 1e-6 and ic.ic_argmax_within_step and elapsed < 60.0
    report(4, "IC certification", ok,
           f"max misreport gain {ic.ic_max_gain:.3e}, argmax at truth: "
           f"{ic.ic_argmax_within_step}, runtime {elapsed:.1f}s")
    assert ic.ic_max_gain <= 1e-6
    assert ic.ic_argmax_within_step
    assert elapsed < 60.0


def test_criterion_5_ir_certification(certified_complete5):
    sc, curves, rewards, _, _ = certified_complete5
    ir = verify_ir(sc, curves, rewards, 21)
    ok = ir.ir_min >= -1e-8 and ir.ir_binding_gap <= 1e-8
    report(5, "IR certification", ok,
           f"min truthful utility {ir.ir_min:.3e}, binding gap {ir.ir_binding_gap:.3e}")
    assert ir.ir_min >= -1e-8
    assert ir.ir_binding_gap <= 1e-8


def test_criterion_6_gamma_monotonicity(certified_complete5):
    _, curves, _, _, _ = certified_complete5
    mono = verify_monotonicity(curves)
    ok = mono.gamma_min_slope >= -1e-8
    report(6, "gamma monotonicity", ok, f"min forward difference {mono.gamma_min_slope:.3e}")
    assert mono.gamma_min_slope >= -1e-8


def test_criterion_7_role_ordering(tmp_path):
    spec = ExperimentSpec(out_dir=str(tmp_path), grid=21, report_grid=101)
    result = run_fig4(spec)
    detail = "; ".join(c.detail for c in result.checks)
    report(7, "fig4 role ordering", result.passed, detail)
    assert result.passed


def test_criterion_8_untruthful_impact_structure(tmp_path):
    spec = ExperimentSpec(out_dir=str(tmp_path), grid=41, report_grid=81)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        result = run_table1(spec)
    detail = "; ".join(c.detail for c in result.checks)
    report(8, "table1 impact structure", result.passed, detail)
    assert result.passed


def test_criterion_9_solve_scaling(tmp_path):
    spec = ExperimentSpec(out_dir=str(tmp_path), sizes=(100, 200, 400, 800))
    result = run_table2(spec)
    t800 = next(r.wall_seconds for r in result.records if r.n == 800)
    slope_check = result.checks[0]
    ok = result.passed and t800 < 60.0
    report(9, "table2 scaling", ok, f"{slope_check.detail}, n=800 median {t800:.3f}s")
    assert slope_check.passed
    assert t800 < 60.0


def test_criterion_10_estimator_consistency():
    sc = Scenario(complete_network(3), CASE_PARAMS, UNIFORM)
    quad = interim_curves(sc, 17, QuadratureEngine(order=16))
    mc = interim_curves(sc, 17, MonteCarloEngine(samples=20_000, seed=0))
    z = np.abs(quad.gamma - mc.gamma) / mc.gamma_se
    worst = float(z.max())
    ok = worst <= 3.0
    report(10, "estimator consistency", ok,
           f"max |gamma_quad - gamma_mc| / SE = {worst:.2f} over all users and grid points")
    assert worst <= 3.0


def test_criterion_11_cli_determinism(tmp_path):
    config = str(tmp_path.parents[0] / "complete5_acc.json")
    import json

    with open(config, "w") as fh:
        json.dump(
            {
                "params": {"a": 0.5, "b": 6.0, "s": 1.0, "t": 1.0, "p": 0.1},
                "network": {"kind": "complete", "n": 5},
                "distribution": {"family": "uniform", "lower": 0.4, "upper": 0.8},
            },
            fh,
        )
    runs = {
        "r1": ["rewards", "--config", config, "--report-grid", "33", "--seed", "3", "--threads", "1"],
        "r2": ["rewards", "--config", config, "--report-grid", "33", "--seed", "3", "--threads", "8"],
        "m1": ["rewards", "--config", config, "--engine", "mc", "--mc-samples", "1000",
               "--report-grid", "33", "--seed", "3", "--threads", "1"],
        "m2": ["rewards", "--config", config, "--engine", "mc", "--mc-samples", "1000",
               "--report-grid", "33", "--seed", "3", "--threads", "8"],
        "e1": ["experiment", "--name", "fig4", "--grid", "11", "--seed", "3", "--threads", "1"],
        "e2": ["experiment", "--name", "fig4", "--grid", "11", "--seed", "3", "--threads", "8"],
    }
    blobs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        for key, args in runs.items():
            out = tmp_path / key
            assert main(args + ["--out", str(out)]) == 0
            blobs[key] = b"".join(
                sorted(p.read_bytes() for p in out.glob("*.csv"))
            )
    ok = blobs["r1"] == blobs["r2"] and blobs["m1"] == blobs["m2"] and blobs["e1"] == blobs["e2"]
    report(11, "CLI determinism", ok,
           "quadrature, Monte Carlo, and experiment outputs byte-identical across --threads")
    assert blobs["r1"] == blobs["r2"]
    assert blobs["m1"] == blobs["m2"]
    assert blobs["e1"] == blobs["e2"]
