import warnings
from dataclasses import replace

import numpy as np
import pytest

from netmech import NegativeRewardWarning, QuadratureEngine, RewardSchedule, interim_curves, reward_schedule
from netmech import experiments
from netmech.experiments import (
    ExperimentSpec,
    make_network,
    run_experiment,
    run_fig3,
    run_fig4,
    run_fig6,
    run_table1,
    run_table2,
    scaled_random_half_network,
    write_summary,
)
from conftest import CASE_PARAMS, UNIFORM
from oracles import tensor_curves


@pytest.fixture
def spec(tmp_path):
    return ExperimentSpec(out_dir=str(tmp_path), seed=0, threads=1)


def fast(spec: ExperimentSpec, **kw) -> ExperimentSpec:
    changes = {"report_grid": 81, "grid": 11, "mc_samples": 2000}
    changes.update(kw)
    return replace(spec, **changes)


class TestMakeNetwork:
    def test_complete5_edge_count(self):
        net = make_network("complete", 5)
        assert net.weights.sum() / 2 == 10  # C(5,2)

    def test_star_degrees(self):
        net = make_network("star", 5)
        degrees = (net.weights > 0).sum(axis=1)
        assert list(degrees) == [4, 1, 1, 1, 1]

    def test_hub_plus_edge_degrees(self):
        net = make_network("hub_plus_edge", 5)
        degrees = (net.weights > 0).sum(axis=1)
        assert list(degrees) == [4, 1, 2, 2, 1]
        assert net.weights[2, 3] == 1.0

    def test_random_k_800_degrees(self):
        net = make_network("random_k", 800, seed=3)
        degrees = (net.weights > 0).sum(axis=1)
        assert degrees.min() >= 400  # symmetrization only adds ties
        again = make_network("random_k", 800, seed=3)
        assert np.array_equal(net.weights, again.weights)

    def test_symmetry(self):
        for kind in ("complete", "star", "hub_plus_edge"):
            w = make_network(kind, 6).weights
            assert np.array_equal(w, w.T)
        w = make_network("random_k", 12, seed=1).weights
        assert np.array_equal(w, w.T)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown network kind"):
            make_network("ring", 5)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            make_network("complete", 0)
        with pytest.raises(ValueError):
            make_network("hub_plus_edge", 3)

    def test_generators_are_the_market_ones(self):
        from netmech import experiments, market

        assert experiments.make_network is market.make_network
        assert experiments.scaled_random_half_network is market.scaled_random_half_network

    def test_scaled_random_half_validates(self):
        net, weight = scaled_random_half_network(40, 7, CASE_PARAMS, UNIFORM.upper)
        coupling = (net.weights.sum(axis=1) + net.weights.sum(axis=0)).max()
        assert UNIFORM.upper * coupling < CASE_PARAMS.t + CASE_PARAMS.b
        assert weight < 1.0


class TestFig3:
    def test_truthful_report_is_row_max(self, spec, monkeypatch):
        monkeypatch.setattr(experiments, "FIG3_TRUTHS", (0.45, 0.75))
        result = run_fig3(fast(spec))
        assert result.passed
        rows = np.loadtxt(result.csv_paths[0], delimiter=",", skiprows=1)
        for theta in (0.45, 0.75):
            curve = rows[rows[:, 0] == theta]
            best = curve[np.argmax(curve[:, 2])]
            assert abs(best[1] - theta) <= 0.005 + 1e-12
            boundary = curve[curve[:, 1] == 0.4][0, 2]
            assert boundary <= curve[:, 2].max() + 1e-12

    def test_corrupted_rewards_move_argmax(self, spec, complete5, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            curves = interim_curves(complete5, 81, QuadratureEngine(order=8))
            rewards = reward_schedule(curves)
        corrupted = RewardSchedule(
            grid=rewards.grid,
            rewards=rewards.rewards + 0.5 * rewards.grid[None, :],
            cell_term=rewards.cell_term,
        )
        monkeypatch.setattr(experiments, "FIG3_TRUTHS", (0.45,))
        result = run_fig3(fast(spec), rewards=corrupted)
        assert not result.passed


class TestFig4:
    def test_ordering_and_symmetry(self, spec, complete5):
        result = run_fig4(fast(spec))
        assert result.passed
        # the kernel runs one complete-graph user and copies its curves to its twins, so
        # compare it with the full tensor rule solved for every user apart; those curves
        # are one curve by symmetry
        curves = interim_curves(complete5, 12, QuadratureEngine(order=8))
        want = tensor_curves(complete5, 12, 8, range(5))
        for key, got in (("gamma", curves.gamma), ("v", curves.v), ("c", curves.c)):
            scale = np.max(np.abs(want[key]))
            assert np.max(np.abs(got - want[key])) <= 1e-12 * scale, key
            assert np.max(np.abs(want[key] - want[key][0])) <= 1e-12 * scale, key

    def test_ordering_stable_under_refinement(self, spec):
        for grid in (10, 20):
            assert run_fig4(fast(spec, grid=grid)).passed


class TestTable1:
    def test_checks_and_baseline(self, spec):
        result = run_table1(fast(spec))
        assert result.passed
        with open(result.csv_paths[0]) as fh:
            header = fh.readline().strip().split(",")
            first = fh.readline().strip().split(",")
        assert header == ["deviator", "baseline_cp", "worst_cp", "worst_report", "drop"]
        assert first[0] == "none"
        assert float(first[4]) == 0.0


class TestTable2:
    def test_small_sizes_complete(self, spec):
        result = run_table2(replace(spec, sizes=(1, 10, 20)))
        assert result.passed  # no slope check at these sizes
        assert [r.n for r in result.records] == [1, 10, 20]
        assert all(r.wall_seconds > 0 for r in result.records)
        assert all(r.repetitions >= 5 for r in result.records)

    def test_times_the_direct_solve_not_demand_solve(self, spec, monkeypatch):
        # criterion 9's O(n^3) slope needs the direct LU, not the iterative solve
        import netmech
        from netmech import cli, mechanism, verification

        def refuse(*args, **kwargs):
            raise AssertionError("table2 called the iterative demand solve")

        for module in (netmech, cli, mechanism, verification):
            for name in ("demand_solve", "demand_solution"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        result = run_table2(replace(spec, sizes=(5, 10, 20)))
        assert [r.n for r in result.records] == [5, 10, 20]


class TestFig6:
    def test_reduced_sizes_increase(self, spec, monkeypatch):
        monkeypatch.setattr(experiments, "FIG6_SIZES", (8, 16))
        result = run_fig6(fast(spec))
        assert result.passed
        rows = np.loadtxt(result.csv_paths[0], delimiter=",", skiprows=1)
        assert np.all(rows[:, 2] >= 0)

    def test_doubling_samples_within_three_se(self, spec, monkeypatch):
        monkeypatch.setattr(experiments, "FIG6_SIZES", (8,))
        small = fast(spec, mc_samples=2000)
        big = fast(spec, mc_samples=4000)
        # recompute the curves directly to compare the estimates
        from netmech import MonteCarloEngine, Scenario, truthful_interim_utility
        from netmech.experiments import scaled_random_half_network
        from netmech.mechanism import cumulative_trapezoid

        net, _ = scaled_random_half_network(8, small.seed + 8, CASE_PARAMS, UNIFORM.upper)
        sc = Scenario(net, CASE_PARAMS, UNIFORM)
        t_vals, t_ses = [], []
        for samples in (2000, 4000):
            curves = interim_curves(sc, 9, MonteCarloEngine(samples=samples, seed=0), users=[0])
            t_vals.append(truthful_interim_utility(curves)[0])
            t_ses.append(cumulative_trapezoid(curves.gamma_se, curves.grid)[0])
        gap = np.abs(t_vals[0] - t_vals[1])
        assert np.all(gap <= 3 * (t_ses[0] + t_ses[1]) + 1e-15)


class TestReproducibility:
    def test_csv_bytes_identical(self, tmp_path):
        spec_a = fast(ExperimentSpec(out_dir=str(tmp_path / "a"), seed=5))
        spec_b = fast(ExperimentSpec(out_dir=str(tmp_path / "b"), seed=5))
        res_a = run_fig4(spec_a)
        res_b = run_fig4(spec_b)
        for pa, pb in zip(res_a.csv_paths, res_b.csv_paths):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_run_experiment_dispatch_and_summary(self, tmp_path):
        spec = fast(ExperimentSpec(out_dir=str(tmp_path), seed=1))
        result = run_experiment(spec, "fig4")
        assert result.name == "fig4"
        write_summary([result], tmp_path / "summary.txt")
        text = (tmp_path / "summary.txt").read_text()
        assert "fig4: PASS" in text
        assert "[PASS]" in text
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(spec, "fig9")
