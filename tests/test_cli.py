import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from netmech import cli, mechanism
from netmech.cli import main
from netmech.config import ConfigError, load_config, scenario_from_config
from netmech.experiments import TABLE2_SIZES, Check, ExperimentResult
from conftest import traced_peak

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
COMPLETE5 = str(CONFIG_DIR / "complete5.json")
HUB5 = str(CONFIG_DIR / "hub5.json")
BAD_THETA_BAR = str(CONFIG_DIR / "bad_theta_bar.json")


def write_config(tmp_path, cfg, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_load_complete5(self):
        sc = scenario_from_config(load_config(COMPLETE5))
        assert sc.n == 5
        assert sc.valid

    def test_hub_alias(self, tmp_path):
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["network"] = {"kind": "hub", "n": 5}
        sc = scenario_from_config(cfg)
        assert sc.network.weights[2, 3] == 1.0

    def test_edge_list(self, tmp_path):
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["network"] = {"kind": "edges", "n": 3, "edges": [[0, 1], [1, 2, 0.5]]}
        sc = scenario_from_config(cfg)
        assert sc.network.weights[1, 0] == 1.0
        assert sc.network.weights[2, 1] == 0.5

    def test_missing_block(self):
        with pytest.raises(ConfigError, match="missing required block"):
            scenario_from_config({"params": {"a": 1, "b": 1, "s": 1, "t": 1, "p": 0}})

    def test_bad_edge_entry(self):
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["network"] = {"kind": "edges", "n": 3, "edges": [[0, 0]]}
        with pytest.raises(ConfigError, match="invalid"):
            scenario_from_config(cfg)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for text in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
            path.write_bytes(text)
            with pytest.raises(ConfigError, match="not valid JSON"):
                scenario_from_config(load_config(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            scenario_from_config(load_config(tmp_path / "absent.json"))


class TestSolveVerb:
    def test_symmetric_profile_prints_closed_form(self, capsys):
        code = main(["solve", "--config", COMPLETE5, "--theta", "0.6,0.6,0.6,0.6,0.6"])
        assert code == 0
        out = capsys.readouterr().out
        values = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith("x[")]
        assert len(values) == 5
        assert np.allclose(values, 1.4 / 3.8, atol=1e-5)

    def test_prints_error_bound_and_iterations(self, capsys):
        theta = "0.5,0.6,0.7,0.8,0.45"
        assert main(["solve", "--config", str(CONFIG_DIR / "hub5.json"), "--theta", theta]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[5].startswith("foc residual = ")
        assert lines[6].startswith("forward error bound = ")
        assert "min row slack" in lines[6]
        bound = float(lines[6].split("=")[1].split()[0])
        assert 0 < bound <= 1e-12
        assert lines[7].startswith("cg iterations = ")
        assert 1 <= int(lines[7].split("=")[1]) <= 5  # CG is exact in n = 5 steps

    def test_bad_theta_string(self, capsys):
        assert main(["solve", "--config", COMPLETE5, "--theta", "a,b"]) == 2

    def test_theta_count_must_match_n(self, capsys):
        assert main(["solve", "--config", COMPLETE5, "--theta", "0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert "--theta needs 5 types" in err and "got 2" in err
        assert "Traceback" not in err

    def test_profile_outside_support(self, capsys):
        assert main(["solve", "--config", COMPLETE5, "--theta", "0.9,0.6,0.6,0.6,0.6"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: type value outside support [0.4, 0.8]\n"
        assert captured.out == ""

    def test_nan_profile_refused(self, capsys):
        assert main(["solve", "--config", COMPLETE5, "--theta", "nan,0.6,0.6,0.6,0.6"]) == 2
        assert "support" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("verb", ["validate", "solve"])
    @pytest.mark.parametrize("where,value,field", [
        ("a", float("nan"), "parameter a must be finite"),
        ("a", float("inf"), "parameter a must be finite"),
        ("edge", float("nan"), "influence weights g_ij must be finite"),
    ])
    def test_exit_two_and_field_named(self, tmp_path, capsys, verb, where, value, field):
        cfg = json.loads(Path(COMPLETE5).read_text())
        if where == "a":
            cfg["params"]["a"] = value
        else:
            cfg["network"] = {"kind": "edges", "n": 5, "edges": [[0, 1, value], [1, 2]]}
        path = write_config(tmp_path, cfg)
        assert ("NaN" if value != value else "Infinity") in Path(path).read_text()
        args = [verb, "--config", path]
        if verb == "solve":
            args += ["--theta", "0.6,0.6,0.6,0.6,0.6"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "x[" not in captured.out


    @pytest.mark.parametrize("verb", ["validate", "solve"])
    def test_infinite_support_bound(self, tmp_path, capsys, verb):
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["distribution"]["upper"] = float("inf")
        path = write_config(tmp_path, cfg)
        args = [verb, "--config", path]
        if verb == "solve":
            args += ["--theta", "0.6,0.6,0.6,0.6,0.6"]
        assert main(args) == 2
        assert "support bound upper must be finite" in capsys.readouterr().err


class TestValidateVerb:
    def test_valid_config(self, capsys):
        assert main(["validate", "--config", COMPLETE5]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("network", [{"kind": "complete", "n": 30000},
                                         {"kind": "edges", "n": 30000, "edges": [[0, 1]]}],
                             ids=["complete", "edges"])
    def test_dense_network_over_budget_exits_two_before_allocating(self, tmp_path, capsys, network):
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["network"] = network
        path = write_config(tmp_path, cfg)
        code, peak = traced_peak(lambda: main(["validate", "--config", path]))
        assert code == 2
        assert ("a dense network of n=30000 users holds 900000000 weights, over the budget of "
                "16777216 floats") in capsys.readouterr().err
        # the 30000 x 30000 weights would take 6.7 GiB, one row of them 234 KiB
        assert peak < 2**20

    def test_infeasible_config_names_inequality(self, capsys):
        code = main(["validate", "--config", BAD_THETA_BAR])
        assert code == 2
        captured = capsys.readouterr()
        assert "t+b > theta_bar*sum(g_ij+g_ji)" in captured.err
        assert "7 <= 16" in captured.err
        # the summaries go to stdout; the failure is the one error: line every verb prints
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "regularity PASS", "assumption 2 FAIL"]
        [line] = captured.err.splitlines()
        assert line.startswith("error: user 0: t+b > theta_bar*sum(g_ij+g_ji) fails: 7 <= 16")

    @pytest.mark.parametrize("verb", ["validate", "solve"])
    def test_irregular_law_names_assumption_1(self, tmp_path, capsys, verb):
        # uniform on [0.1, 0.8]: the virtual value 2 theta - 0.8 is negative below 0.4
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["distribution"]["lower"] = 0.1
        args = [verb, "--config", write_config(tmp_path, cfg)]
        if verb == "solve":
            args += ["--theta", "0.6,0.6,0.6,0.6,0.6"]
        assert main(args) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: assumption 1 (regular distribution): regularity FAIL")
        assert "x[" not in captured.out
        if verb == "validate":
            assert captured.out.startswith("regularity FAIL")


class TestVerifyVerb:
    def test_complete5_quadrature_passes(self, tmp_path, capsys):
        code = main([
            "verify", "--config", COMPLETE5, "--engine", "quadrature",
            "--grid", "21", "--report-grid", "101", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IC PASS" in out
        summary = (tmp_path / "verify_summary.txt").read_text()
        assert "IC PASS: max misreport gain" in summary
        gain = float(summary.split("max misreport gain ")[1].split(" ")[0])
        assert gain <= 1e-6
        report_csv = (tmp_path / "verify_report.csv").read_text().splitlines()
        assert report_csv[0].startswith("property,value,tolerance,status")
        assert any(line.startswith("ic_max_gain") and ",PASS," in line for line in report_csv)

    def test_ic_sweep_over_budget_exits_two_before_allocating(self, tmp_path, capsys):
        args = ["verify", "--config", COMPLETE5, "--quad-order", "2", "--out", str(tmp_path)]
        code, peak = traced_peak(lambda: main(args + ["--grid", "20000", "--report-grid", "20000"]))
        assert code == 2
        err = capsys.readouterr().err
        assert ("the IC sweep of --grid 20000 x --report-grid 20000 utilities per user and "
                "2 x 5 users x --grid 20000 bests and gains holds 400200000 floats, over the "
                "budget of 16777216") in err
        assert "Traceback" not in err
        # one user's (20000, 20000) utilities would take 3 GiB
        assert peak < 2**20
        assert main(args) == 0  # the default grids: 21 x 201 + 2 x 5 x 21

    def test_ic_sweep_budget_counts_one_user(self, tmp_path, capsys, monkeypatch):
        """The sweep holds one user's (truth, report) utilities at a time and every user's
        bests and gains: 21 x (201 + 2 x 5) floats at complete5's default grids."""
        args = ["verify", "--config", COMPLETE5, "--out", str(tmp_path)]
        monkeypatch.setattr(cli, "MAX_ARRAY_FLOATS", 21 * (201 + 10))
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_ARRAY_FLOATS", 21 * (201 + 10) - 1)
        monkeypatch.setattr(cli, "interim_curves", lambda *a, **k: pytest.fail("curves before the refusal"))
        assert main(args) == 2
        assert "holds 4431 floats, over the budget of 4430" in capsys.readouterr().err

    def test_ic_sweep_holds_what_it_counts(self, tmp_path, capsys):
        """At 1001 x 1001 the counted 1001 x (1001 + 2 x 5) floats (8.1 MB) are one user's
        utilities and every user's bests and gains; beside them the sweep holds a block of
        truths' ties and distances, about 2**16 floats each. 10.9 MB read, against 26.3 MB
        with the distances, |u| and the masked distances of the whole sweep held."""
        argv = ["verify", "--config", COMPLETE5, "--quad-order", "2", "--grid", "1001",
                "--report-grid", "1001", "--out", str(tmp_path)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and "IC PASS" in capsys.readouterr().out
        assert peak <= 1.5 * 8 * 1001 * (1001 + 2 * 5), peak / (8 * 1001 * 1011)

    @pytest.mark.parametrize("config", [HUB5, COMPLETE5], ids=["hub5", "complete5"])
    def test_ic_holds_between_report_nodes(self, tmp_path, capsys, config):
        # the 21 true types are not nodes of a 33-point curve grid
        assert main(["verify", "--config", config, "--report-grid", "33", "--out", str(tmp_path)]) == 0
        assert "IC PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("network", [{"kind": "edges", "n": 4, "edges": [[0, 1], [1, 2]]},
                                         {"kind": "edges", "n": 1, "edges": []}],
                             ids=["isolated-user", "one-user"])
    @pytest.mark.parametrize("engine", [[], ["--engine", "mc", "--mc-samples", "2000"]],
                             ids=["quadrature", "mc"])
    def test_flat_utility_is_truthful(self, tmp_path, capsys, network, engine):
        """A user without neighbours has utility exactly 0 at every report; the tie goes to the truth."""
        cfg = json.loads(Path(HUB5).read_text())
        cfg["network"] = network
        argv = ["verify", "--config", write_config(tmp_path, cfg), *engine, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "IC PASS: max misreport gain 0.000e+00" in capsys.readouterr().out


class TestHelpAndErrors:
    def test_help_lists_verbs(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for verb in ("validate", "solve", "rewards", "verify", "experiment", "bench"):
            assert verb in out

    def test_unknown_flag_is_hard_error(self, capsys):
        assert main(["solve", "--config", COMPLETE5, "--theta", "0.6", "--frobnicate"]) == 2

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config(self, capsys):
        assert main(["rewards", "--config", "/nonexistent.json"]) == 2


class TestExperimentVerb:
    def test_fig4_runs_and_writes_summary(self, tmp_path, capsys):
        code = main(["experiment", "--name", "fig4", "--grid", "11", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        assert "fig4: PASS" in (tmp_path / "summary.txt").read_text()

    def test_failing_check_exits_one(self, tmp_path, monkeypatch, capsys):
        import netmech.cli as cli

        def fake_run(spec, name):
            return ExperimentResult(name, (), (Check("forced failure", False),))

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        code = main(["experiment", "--name", "fig4", "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL" in (tmp_path / "summary.txt").read_text()


    @pytest.mark.parametrize("network", [{"kind": "complete", "n": 30000}, {"kind": "random_k", "n": 5}],
                             ids=["over-budget", "random_k-without-seed"])
    def test_network_block_not_read(self, tmp_path, capsys, network):
        """experiment and bench take the config's market parameters and type law, never its network."""
        cfg = json.loads(Path(HUB5).read_text())
        outputs = []
        for name, block in (("valid", cfg["network"]), ("unread", network)):
            path = write_config(tmp_path, dict(cfg, network=block), f"{name}.json")
            out = tmp_path / name
            assert main(["experiment", "--config", path, "--name", "fig4", "--grid", "8",
                         "--quad-order", "2", "--out", str(out)]) == 0
            assert main(["bench", "--config", path, "--sizes", "10", "--out", str(out)]) == 0
            table2 = [line.split(",") for line in (out / "table2.csv").read_text().splitlines()]
            outputs.append(((out / "fig4.csv").read_bytes(), [row[:1] + row[2:] for row in table2]))
        assert outputs[0] == outputs[1]


class TestBenchVerb:
    def test_small_sizes(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "5,10", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "summary.txt").read_text()
        assert "table2" in lines
        csv = (tmp_path / "table2.csv").read_text().splitlines()
        assert csv[0] == "n,wall_seconds,repetitions,statistic,mean_degree"
        assert len(csv) == 3

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--sizes", "ten"]) == 2

    def test_empty_sizes_are_the_default(self):
        assert cli._sizes("") == TABLE2_SIZES
        assert cli.build_parser().parse_args(["bench", "--sizes", ""]).sizes == TABLE2_SIZES


class TestDeterminism:
    def test_rewards_byte_identical_across_threads(self, tmp_path, capsys):
        args = ["rewards", "--config", COMPLETE5, "--report-grid", "33", "--seed", "9"]
        for out_dir, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            code = main(args + ["--threads", threads, "--out", str(tmp_path / out_dir)])
            assert code == 0
        blobs = [(tmp_path / d / "rewards.csv").read_bytes() for d in ("a", "b", "c")]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_mc_rewards_depend_on_seed_only(self, tmp_path, capsys):
        base = ["rewards", "--config", COMPLETE5, "--engine", "mc",
                "--mc-samples", "500", "--report-grid", "33"]
        main(base + ["--seed", "1", "--out", str(tmp_path / "s1")])
        main(base + ["--seed", "1", "--out", str(tmp_path / "s1b")])
        main(base + ["--seed", "2", "--out", str(tmp_path / "s2")])
        a = (tmp_path / "s1" / "rewards.csv").read_bytes()
        b = (tmp_path / "s1b" / "rewards.csv").read_bytes()
        c = (tmp_path / "s2" / "rewards.csv").read_bytes()
        assert a == b
        assert a != c

    def test_env_seed_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        base = ["rewards", "--config", COMPLETE5, "--engine", "mc",
                "--mc-samples", "500", "--report-grid", "33"]
        monkeypatch.setenv("NETMECH_SEED", "2")
        main(base + ["--out", str(tmp_path / "env")])
        main(base + ["--seed", "1", "--out", str(tmp_path / "flag")])
        monkeypatch.delenv("NETMECH_SEED")
        main(base + ["--seed", "2", "--out", str(tmp_path / "two")])
        main(base + ["--seed", "1", "--out", str(tmp_path / "one")])
        env = (tmp_path / "env" / "rewards.csv").read_bytes()
        flag = (tmp_path / "flag" / "rewards.csv").read_bytes()
        assert env == (tmp_path / "two" / "rewards.csv").read_bytes()  # env respected
        assert flag == (tmp_path / "one" / "rewards.csv").read_bytes()  # flag wins
        assert env != flag


class TestBadValuesExitTwo:
    def test_quadrature_order_over_its_matrix_budget_exits_two_at_once(self, tmp_path, capsys):
        """Two users' rule has only ``order`` rows, so the row budget passes any order; the
        order x order matrix that leggauss eigen-solves is refused before it is built."""
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg["network"]["n"] = 2
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        code = main(["rewards", "--config", path, "--quad-order", "4097", "--out", str(tmp_path)])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert ("quadrature order 4097 needs order >= 1 and an order x order eigenproblem of "
                "16785409 floats within the budget of 16777216") in capsys.readouterr().err

    @pytest.mark.parametrize("argv,env,named", [
        (["rewards", "--config", COMPLETE5, "--report-grid", "5"], None, "--report-grid"),
        (["verify", "--config", COMPLETE5, "--grid", "5"], None, "--grid"),
        (["verify", "--config", COMPLETE5, "--report-grid", "8"], None, "--report-grid"),
        (["bench", "--sizes", "0"], None, "--sizes"),
        (["bench", "--sizes", "10,-2"], None, "--sizes"),
        (["rewards", "--config", COMPLETE5, "--seed", "-1"], None, "--seed"),
        (["experiment", "--name", "fig6", "--seed", "-1"], None, "--seed"),
        (["bench", "--sizes", "5", "--seed", "-1"], None, "--seed"),
        (["rewards", "--config", COMPLETE5, "--engine", "mc"], "-3", "NETMECH_SEED"),
        (["verify", "--config", COMPLETE5], "abc", "NETMECH_SEED"),
        (["rewards", "--config", COMPLETE5, "--threads", "0"], None, "--threads"),
        (["verify", "--config", COMPLETE5, "--threads", "-4"], None, "--threads"),
        (["experiment", "--name", "fig3", "--report-grid", "5"], None, "--report-grid"),
        (["experiment", "--name", "fig4", "--grid", "3"], None, "--grid"),
        (["experiment", "--name", "all", "--grid", "7"], None, "--grid"),
        (["rewards", "--config", COMPLETE5, "--quad-order", "0"], None, "--quad-order"),
        (["verify", "--config", COMPLETE5, "--engine", "mc", "--mc-samples", "0"], None,
         "--mc-samples"),
        (["experiment", "--name", "fig6", "--mc-samples", "-5"], None, "--mc-samples"),
        (["rewards", "--config", HUB5, "--quad-order", "100"], None, "order 100 at n=5"),
        # the draws stream a chunk at a time; the 4 x 152602 chunk sums are refused
        (["rewards", "--config", HUB5, "--engine", "mc", "--mc-samples", "1000000000"], None,
         "a curve grid of 201 points holds 122696028 floats"),
        # refused by the parser, before table2 builds any network
        (["bench", "--sizes", "4097"], None, "argument --sizes: a dense network of n=4097"),
        (["bench", "--sizes", "10,5000"], None,
         "argument --sizes: a dense network of n=5000 users holds 25000000 weights, "
         "over the budget of 16777216 floats"),
        # curves of 3 x 5 users and the sums of 1 chunk, refused before the grid is built
        (["rewards", "--config", HUB5, "--report-grid", "200000000"], None,
         "a curve grid of 200000000 points holds 3600000000 floats of curves and chunk sums, "
         "over the budget of 16777216"),
        # at the full sample budget the 4 x 513 chunk sums outweigh the 4 x 5 curves
        (["rewards", "--config", HUB5, "--engine", "mc", "--mc-samples", "3355443",
          "--report-grid", "8200"], None, "a curve grid of 8200 points holds 16990400 floats"),
    ])
    def test_exit_two_and_name(self, tmp_path, capsys, monkeypatch, argv, env, named):
        # a refusal that stops firing fails here at once, not after a long run
        monkeypatch.setattr(mechanism, "_rank2_factors",
                            lambda *a, **k: pytest.fail("a curve was computed before the refusal"))
        if env is None:
            monkeypatch.delenv("NETMECH_SEED", raising=False)
        else:
            monkeypatch.setenv("NETMECH_SEED", env)
        code, peak = traced_peak(lambda: main(argv + ["--out", str(tmp_path)]))
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        # refused before any array of the refused size is allocated
        assert peak < 2**20, peak

    @pytest.mark.parametrize("argv", [
        ["rewards", "--config", COMPLETE5, "--report-grid", "9", "--quad-order", "2", "--seed", "0"],
        ["verify", "--config", COMPLETE5, "--grid", "9", "--report-grid", "9", "--quad-order", "2"],
        ["bench", "--sizes", "1"],
        ["rewards", "--config", COMPLETE5, "--report-grid", "9", "--quad-order", "2", "--threads", "1"],
        ["experiment", "--name", "fig3", "--report-grid", "9", "--quad-order", "2"],
        ["experiment", "--name", "fig4", "--grid", "8", "--quad-order", "2"],
    ])
    def test_smallest_values_still_accepted(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("NETMECH_SEED", "0")
        assert main(argv + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv,under,reason", [
        (["rewards", "--config", COMPLETE5], "", "File exists"),
        (["verify", "--config", COMPLETE5], "sub", "Not a directory"),
        (["experiment", "--name", "fig4"], "", "File exists"),
        (["bench", "--sizes", "5"], "sub/deeper", "Not a directory"),
    ], ids=["rewards", "verify", "experiment", "bench"])
    def test_out_naming_a_file_exits_two_before_computing(self, tmp_path, capsys, monkeypatch,
                                                          argv, under, reason):
        """--out that is a regular file, or a path under one, is refused before any computation."""
        for name in ("interim_curves", "run_experiment", "run_table2"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("computed before --out"))
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ")
        assert reason in err
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"


class TestMalformedConfig:
    @pytest.mark.parametrize("block,value,named", [
        ("network", {"kind": "complete", "n": "x"}, "key 'n' must be an integer"),
        ("network", {"kind": "edges", "n": "x", "edges": []}, "key 'n' must be an integer"),
        ("network", {"kind": "edges", "n": -1, "edges": []}, "bad network block: n must be at least 1, got -1"),
        ("network", {"kind": "random_k", "n": 5, "seed": "abc"}, "key 'seed' must be an integer"),
        ("network", {"kind": "complete", "n": 5, "weight": "heavy"}, "key 'weight' must be a number"),
        ("network", {"kind": "edges", "n": 3, "edges": [[0, 1], 5]}, "edge entry 5"),
        ("network", {"kind": "edges", "n": 3, "edges": [[0, "one"]]}, "edge entry [0, 'one']"),
        ("seed", "abc", "config key 'seed' must be a nonnegative integer"),
        ("seed", -2, "config key 'seed' must be a nonnegative integer"),
        ("params", [1, 2], "block 'params' must be a JSON object"),
        ("distribution", {"family": "uniform", "lower": 0.4, "upper": 0.8, "params": {"mu": 1}},
         "unknown parameter 'mu' of family 'uniform'"),
        ("distribution", {"family": "truncated_normal", "lower": 0.4, "upper": 0.8,
                          "params": {"mu": 0.6, "rate": 1}},
         "unknown parameter 'rate' of family 'truncated_normal'"),
        ("network", {"kind": "random_k", "n": 5}, "network kind 'random_k' needs 'seed'"),
        ("distribution", {"family": "uniform", "lower": None, "upper": 0.8},
         "distribution block: key 'lower' must be a number, got None"),
        ("distribution", {"family": "uniform", "lower": 0.4, "upper": [0.8]},
         "distribution block: key 'upper' must be a number, got [0.8]"),
        ("distribution", {"family": "uniform", "upper": 0.8}, "distribution block missing key 'lower'"),
        ("distribution", {"lower": 0.4, "upper": 0.8}, "distribution block missing key 'family'"),
        ("distribution", {"family": "truncated_normal", "lower": 0.4, "upper": 0.8,
                          "params": {"mu": 0.6, "sigma": None}},
         "distribution params: key 'sigma' must be a number, got None"),
        ("distribution", {"family": "truncated_exponential", "lower": 0.4, "upper": 0.8,
                          "params": {"rate": "fast"}},
         "distribution params: key 'rate' must be a number, got 'fast'"),
        ("distribution", {"family": "truncated_normal", "lower": 0.4, "upper": 0.8,
                          "params": {"mu": float("nan"), "sigma": 0.3}}, "parameter mu must be finite"),
        ("distribution", {"family": "truncated_normal", "lower": 0.4, "upper": 0.8,
                          "params": {"mu": 0.6, "sigma": float("inf")}},
         "parameter sigma must be finite and positive"),
        ("distribution", {"family": "truncated_exponential", "lower": 0.4, "upper": 0.8,
                          "params": {"rate": float("inf")}}, "parameter rate must be finite and positive"),
        ("distribution", {"family": "truncated_exponential", "lower": 0.4, "upper": 0.8,
                          "params": {"rate": float("nan")}}, "parameter rate must be finite and positive"),
        ("params", {"a": 0.5, "b": 6, "s": 1, "t": 1}, "params block missing key 'p'"),
        ("params", {"a": None, "b": 6, "s": 1, "t": 1, "p": 0.1},
         "params block: key 'a' must be a number, got None"),
        ("network", {"kind": "complete"}, "network block missing key 'n'"),
        ("network", {"kind": "complete", "n": [5]}, "network block: key 'n' must be an integer"),
        ("network", {"n": 5}, "network block missing key 'kind'"),
        # integer keys refuse what int() would truncate
        ("network", {"kind": "complete", "n": 5.7}, "network block: key 'n' must be an integer, got 5.7"),
        ("network", {"kind": "complete", "n": True}, "network block: key 'n' must be an integer, got True"),
        ("network", {"kind": "edges", "n": 3, "edges": [[0, 1.5]]}, "edge entry [0, 1.5]"),
        ("network", {"kind": "edges", "n": 3, "edges": [[False, 1]]}, "edge entry [False, 1]"),
        ("network", {"kind": "random_k", "n": 5, "seed": 2.9},
         "network block: key 'seed' must be an integer, got 2.9"),
        ("seed", 2.9, "config key 'seed' must be a nonnegative integer, got 2.9"),
        ("seed", True, "config key 'seed' must be a nonnegative integer, got True"),
        # JSON's Infinity: int() raises OverflowError, which no handler caught
        ("network", {"kind": "complete", "n": float("inf")},
         "network block: key 'n' must be an integer, got inf"),
        ("seed", float("inf"), "config key 'seed' must be a nonnegative integer, got inf"),
        # JSON's true and false are no numbers: no edgeless network from a false weight
        ("network", {"kind": "complete", "n": 5, "weight": False},
         "network block: key 'weight' must be a number, got False"),
        ("network", {"kind": "edges", "n": 3, "edges": [[0, 1, True]]}, "edge entry [0, 1, True]"),
        ("params", {"a": 0.5, "b": True, "s": 1, "t": 1, "p": 0.1},
         "params block: key 'b' must be a number, got True"),
        ("network", {"kind": "edges", "n": 3}, "network kind 'edges' needs an 'edges' list"),
        ("network", {"kind": "edges", "n": 3, "edges": {"0": 1}}, "network kind 'edges' needs an 'edges' list"),
        ("distribution", {"family": "uniform", "lower": 0.4, "upper": 0.8, "params": [0.5]},
         "distribution params must be an object with keys from []"),
    ])
    def test_exit_two_and_key_named(self, tmp_path, capsys, monkeypatch, block, value, named):
        monkeypatch.delenv("NETMECH_SEED", raising=False)
        cfg = json.loads(Path(COMPLETE5).read_text())
        cfg[block] = value
        path = write_config(tmp_path, cfg)
        assert main(["rewards", "--config", path, "--quad-order", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        if block != "seed":
            with pytest.raises(ConfigError):
                scenario_from_config(cfg)

    def test_config_that_is_no_object_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, [{"params": {}}])
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(path)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "must be a JSON object" in err


# the flags each verb defines, as parser dests: 34 settable values in all
VERB_FLAGS = {
    "validate": {"config"},
    "solve": {"config", "theta"},
    "rewards": {"config", "seed", "engine", "mc_samples", "quad_order", "report_grid",
                "threads", "out"},
    "bench": {"config", "seed", "out", "sizes"},
}
VERB_FLAGS["verify"] = VERB_FLAGS["rewards"] | {"grid"}
VERB_FLAGS["experiment"] = VERB_FLAGS["verify"] | {"name"}


def verb_dests(verb: str) -> set:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[verb]._actions if a.dest != "help"}


class TestFlagAudit:
    def test_each_verb_defines_its_flags(self):
        assert {verb: verb_dests(verb) for verb in VERB_FLAGS} == VERB_FLAGS
        assert sum(len(dests) for dests in VERB_FLAGS.values()) == 34

    @pytest.mark.parametrize("argv", [
        ["validate", "--config", COMPLETE5],
        ["solve", "--config", COMPLETE5, "--theta", "0.6,0.6,0.6,0.6,0.6"],
        ["rewards", "--config", COMPLETE5, "--quad-order", "2", "--report-grid", "9"],
        ["verify", "--config", COMPLETE5, "--quad-order", "2", "--report-grid", "9", "--grid", "9"],
        ["experiment", "--config", COMPLETE5, "--name", "fig4", "--quad-order", "2", "--grid", "8"],
        ["bench", "--sizes", "3"],
    ])
    def test_every_flag_is_read(self, tmp_path, capsys, argv):
        """A verb defines no flag its command ignores."""
        verb = argv[0]
        if "out" in verb_dests(verb):
            argv = argv + ["--out", str(tmp_path)]
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = Recording(**vars(cli.build_parser().parse_args(argv)))
        assert cli._COMMANDS[verb](args) in (0, 1)
        assert verb_dests(verb) <= read, verb_dests(verb) - read

    def test_flag_of_another_verb_is_usage_error(self, capsys):
        assert main(["validate", "--config", COMPLETE5, "--seed", "3"]) == 2
        assert main(["solve", "--config", COMPLETE5, "--theta", "0.6,0.6,0.6,0.6,0.6",
                     "--engine", "mc"]) == 2
        assert main(["bench", "--sizes", "3", "--threads", "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
