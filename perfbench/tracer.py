"""Span tracer for the traced benchmark run, installed from outside the package.

``install()`` wraps the public functions of each netmech layer and the
distribution and engine methods. A name bound by ``from .x import f`` lives in
several module namespaces, so every netmech module that holds the original
function object gets the wrapper; calls through any of those names are seen.

Each call records a span (name, start, end, parent). Spans started in a pool
thread with nothing open on that thread take as parent the innermost span
open on the main thread, which is the call that submitted the work
(``interim_curves``). Self time is a span's duration minus the union of its
children's intervals, so work done by two pool threads at once is not
subtracted twice. Spans and counters stay in memory until ``layer_metrics``.

Kernel counts are computed from array shapes, not measured:
a batched or single demand solve of size n costs 2n^3/3 + 2n^2 flop (LU plus
one forward and one back substitution), and a batched solve moves
8*(3n^2 + 3n) bytes per system (the assembled matrix written, copied into the
LAPACK work array and read back; the virtual-value row, right-hand side and
solution once each). Cache traffic is ignored.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

NAME, START, END, PARENT = range(4)


def lu_flop(n: int) -> float:
    return 2.0 * n**3 / 3.0 + 2.0 * n**2


def solve_bytes(n: int) -> int:
    return 8 * (3 * n * n + 3 * n)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.systems_by_n: dict = defaultdict(lambda: defaultdict(int))
        self.extremes: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def wrap(self, name, fn, after=None):
        """Return fn recording a span per call; after(result, *args) runs under the lock."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent]
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                with tracer._lock:
                    after(result, *args, **kwargs)
            return result

        return traced

    def note_max(self, key, value) -> None:
        self.extremes[key] = max(self.extremes.get(key, -np.inf), float(value))

    def note_min(self, key, value) -> None:
        self.extremes[key] = min(self.extremes.get(key, np.inf), float(value))

    # -- span arithmetic ---------------------------------------------------

    def _outermost(self, names) -> list:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for span in self.spans:
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent is not None and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent is None:
                out.append(span)
        return out

    def calls(self, names) -> int:
        return len(self._outermost(names))

    def total(self, names) -> float:
        return sum(s[END] - s[START] for s in self._outermost(names))

    def self_time(self, name) -> float:
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[NAME] != name:
                continue
            covered, reach = 0.0, span[START]
            for start, end in sorted(children[index]):
                start, end = max(start, reach), min(end, span[END])
                if end > start:
                    covered += end - start
                    reach = end
            total += span[END] - span[START] - covered
        return total

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name; None where the workload never called the layer."""

        def timed(names):
            return self.total(names) if self.calls(names) else None

        def count(names):
            return self.calls(names) or None

        def gflop(kind):
            by_n = self.systems_by_n[kind]
            if not by_n:
                return None
            return sum(m * lu_flop(n) for n, m in sorted(by_n.items())) / 1e9

        batched = self.systems_by_n["batched"]
        single = self.systems_by_n["single"]
        solve_s = timed("mechanism.solve_profiles")
        solve_gflop = gflop("batched")
        users = self.counts["curve_users"]
        return {
            "distributions.virtual_value_s": timed("distributions.virtual_value"),
            "distributions.virtual_value_calls": count("distributions.virtual_value"),
            "distributions.virtual_value_points": self.counts["virtual_value_points"] or None,
            "distributions.quantile_s": timed("distributions.quantile"),
            "distributions.validate_regularity_s": timed("distributions.validate_regularity"),
            "market.scenario_s": timed("market.Scenario"),
            "market.scenarios_built": count("market.Scenario"),
            "market.min_row_slack": self.extremes.get("min_row_slack"),
            "config.load_s": timed(("config.load_config", "config.scenario_from_config")),
            "experiments.network_s": timed(
                ("experiments.make_network", "experiments.scaled_random_half_network")
            ),
            "experiments.run_fig6_s": timed("experiments.run_fig6"),
            "mechanism.others_samples_s": timed("mechanism.others_samples"),
            "mechanism.interim_curves_s": timed("mechanism.interim_curves"),
            "mechanism.interim_curves_self_s": (
                self.self_time("mechanism.interim_curves") if users else None
            ),
            "mechanism.solve_profiles_s": solve_s,
            "mechanism.solve_profiles_calls": count("mechanism.solve_profiles"),
            "mechanism.systems_solved": sum(batched.values()) + sum(single.values()) or None,
            "mechanism.solve_profiles_gflop": solve_gflop,
            "mechanism.solve_profiles_gbytes": (
                sum(m * solve_bytes(n) for n, m in sorted(batched.items())) / 1e9 if batched else None
            ),
            "mechanism.solve_profiles_gflops_per_s": (
                solve_gflop / solve_s if solve_gflop and solve_s else None
            ),
            "mechanism.distinct_curve_ratio": (
                self.counts["distinct_curves"] / users if users else None
            ),
            "mechanism.mc_max_se": self.extremes.get("mc_max_se"),
            "mechanism.negative_reward_intervals": (
                self.counts["negative_reward_intervals"] if self.calls("mechanism.reward_schedule") else None
            ),
            "mechanism.system_matrix_s": timed("mechanism.system_matrix"),
            "mechanism.demand_solve_s": timed("mechanism.demand_solve"),
            "mechanism.demand_solve_self_s": (
                self.self_time("mechanism.demand_solve") if single else None
            ),
            "mechanism.foc_residual_s": timed("mechanism.foc_residual"),
            "mechanism.demand_solve_gflop": gflop("single"),
            "mechanism.max_foc_residual": self.extremes.get("max_foc_residual"),
            "mechanism.reward_schedule_s": timed("mechanism.reward_schedule"),
            "verification.verify_ic_s": timed("verification.verify_ic"),
            "verification.verify_ir_s": timed("verification.verify_ir"),
            "verification.verify_monotonicity_s": timed("verification.verify_monotonicity"),
            "verification.interim_utility_calls": count("verification.interim_utility"),
            "csvio.write_csv_s": timed("csvio.write_csv"),
            "csvio.rows_written": self.counts["rows_written"] if self.calls("csvio.write_csv") else None,
            "csvio.bytes_written": self.counts["bytes_written"] if self.calls("csvio.write_csv") else None,
        }


def _distinct_rows(curves) -> int:
    """Number of distinct (gamma, V, C) rows among the computed users (rtol 1e-12)."""
    rows = [np.concatenate([curves.gamma[i], curves.v[i], curves.c[i]]) for i in curves.users]
    kept: list = []
    for row in rows:
        if not any(np.allclose(row, other, rtol=1e-12, atol=0.0) for other in kept):
            kept.append(row)
    return len(kept)


def install() -> Tracer:
    """Wrap every traced name of an imported netmech; returns the collecting tracer."""
    from netmech import config, csvio, distributions, experiments, market, mechanism, verification

    tracer = Tracer()
    modules = [m for k, m in sys.modules.items() if k == "netmech" or k.startswith("netmech.")]

    def function(module, attr, after=None, inner=None):
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.wrap(f"{layer}.{attr}", inner(original) if inner else original, after)
        # module globals, and module-level dispatch tables such as experiments._RUNNERS
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for entry, target in value.items():
                        if target is original:
                            value[entry] = wrapped

    def method(classes, attr, name, after=None):
        for cls in classes:
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], after))

    # distributions
    dist_classes = [distributions.TypeDistribution, *distributions.TypeDistribution.__subclasses__()]

    def vv_points(result, dist, theta):
        tracer.counts["virtual_value_points"] += int(np.size(theta))

    method(dist_classes, "virtual_value", "distributions.virtual_value", vv_points)
    method(dist_classes, "quantile", "distributions.quantile")
    function(distributions, "validate_regularity")

    # market
    def scenario_built(result, sc):
        tracer.note_min("min_row_slack", np.min(sc.assumption2.row_slack))

    method([market.Scenario], "__post_init__", "market.Scenario", scenario_built)

    # config and experiments
    function(config, "load_config")
    function(config, "scenario_from_config")
    function(experiments, "make_network")
    function(experiments, "scaled_random_half_network")
    function(experiments, "run_fig6")

    # mechanism: curve kernel
    engines = [mechanism.QuadratureEngine, mechanism.MonteCarloEngine]
    method(engines, "others_samples", "mechanism.others_samples")

    def batched(result, sc, phis):
        n = phis.shape[-1]
        tracer.systems_by_n["batched"][n] += phis.size // n

    function(mechanism, "solve_profiles", batched)

    def curves_done(curves, *args, **kwargs):
        tracer.counts["curve_users"] += len(curves.users)
        tracer.counts["distinct_curves"] += _distinct_rows(curves)
        if curves.gamma_se is not None:
            tracer.note_max("mc_max_se", np.nanmax(curves.gamma_se))

    function(mechanism, "interim_curves", curves_done)

    def capture_negative_rewards(fn):
        @functools.wraps(fn)
        def capturing(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, mechanism.NegativeRewardWarning):
                    tracer.counts["negative_reward_intervals"] += str(w.message).count(" at theta in ")
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return capturing

    function(mechanism, "reward_schedule", inner=capture_negative_rewards)

    # mechanism: single solve
    def single(result, sc, theta):
        tracer.systems_by_n["single"][sc.n] += 1

    function(mechanism, "system_matrix")
    function(mechanism, "demand_solve", single)
    function(mechanism, "foc_residual", lambda r, *a: tracer.note_max("max_foc_residual", r))

    # verification
    for attr in ("verify_ic", "verify_ir", "verify_monotonicity", "interim_utility"):
        function(verification, attr)

    # csvio: materialize rows once so they can be counted; the file is unchanged
    def counting_rows(fn):
        @functools.wraps(fn)
        def counted(path, header, rows):
            rows = list(rows)
            fn(path, header, rows)
            tracer.counts["rows_written"] += len(rows)
            tracer.counts["bytes_written"] += os.path.getsize(path)

        return counted

    function(csvio, "write_csv", inner=counting_rows)
    return tracer
