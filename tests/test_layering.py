"""Import layering: type laws, market primitives and configs sit below the mechanism."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "netmech"
UPPER_LAYERS = {"mechanism", "verification", "experiments", "cli"}


def package_imports(path: Path) -> set:
    """Names of the netmech modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "netmech" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "netmech":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inside:
                found.add(inside[0])
            else:  # from . import x / from netmech import x
                found.update(alias.name for alias in node.names)
    return found


def test_parser_sees_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy\nimport netmech.cli\nfrom . import experiments\n"
        "from .mechanism import demand_solve\nfrom netmech.market import Network\n"
        "from netmech import verification\n"
    )
    assert package_imports(source) == {"cli", "experiments", "mechanism", "market", "verification"}


@pytest.mark.parametrize("module", ["distributions", "market", "config"])
def test_lower_layer_imports_no_upper_layer(module):
    assert not package_imports(SRC / f"{module}.py") & UPPER_LAYERS


def scipy_modules_after(script: str) -> list:
    """The scipy modules a fresh interpreter holds after running ``script``."""
    script += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    """scipy.special is imported by the truncated normal on first use, not at start-up."""
    assert scipy_modules_after("import netmech.cli") == []


def test_uniform_verify_loads_no_scipy(tmp_path):
    config = SRC.parents[1] / "configs" / "hub5.json"
    script = (
        "import netmech.cli\n"
        f"code = netmech.cli.main(['verify', '--config', {str(config)!r}, '--quad-order', '3', "
        f"'--report-grid', '9', '--grid', '9', '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
    )
    assert scipy_modules_after(script) == []


def test_truncated_normal_loads_scipy_special_on_first_use():
    script = (
        "import sys\n"
        "from netmech import TruncatedNormal\n"
        "dist = TruncatedNormal(0.4, 0.8, mu=0.3, sigma=0.3)\n"
        "assert 'scipy.special' not in sys.modules\n"
        "dist.cdf(0.5)\n"
    )
    assert "scipy.special" in scipy_modules_after(script)


def test_benchmark_tracer_finds_every_hook():
    """perfbench's tracer looks up the layers' functions by name; deleting one breaks install()."""
    root = SRC.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(root / "perfbench")]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import tracer; tracer.install()"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def module_level_imports(tree: ast.AST) -> list:
    """Top-level module names imported outside any function body."""
    found = []
    todo = list(ast.iter_child_nodes(tree))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_import_parser():
    tree = ast.parse("import numpy as np\nif True:\n    from scipy import special\n"
                     "class A:\n    import os\n"
                     "def f():\n    import scipy.sparse\n    from scipy.special import ndtr\n")
    assert sorted(module_level_imports(tree)) == ["numpy", "os", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert "scipy" not in module_level_imports(ast.parse(path.read_text()))


ENGINE_CLASSES = {"QuadratureEngine", "MonteCarloEngine"}


def engine_constructions(tree: ast.AST) -> list:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ENGINE_CLASSES
    ]


def test_engines_built_by_name_in_one_function_and_by_fig6():
    """make_engine is the one reader of an engine name; fig6, always Monte Carlo, builds
    its engine directly and passes no quadrature order."""
    total = sum(len(engine_constructions(ast.parse(p.read_text()))) for p in SRC.glob("*.py"))
    factory = top_level_functions(ast.parse((SRC / "mechanism.py").read_text()))["make_engine"]
    fig6 = top_level_functions(ast.parse((SRC / "experiments.py").read_text()))["run_fig6"]
    assert len(engine_constructions(factory)) == 2
    assert [node.func.id for node in engine_constructions(fig6)] == ["MonteCarloEngine"]
    assert "make_engine" not in {node.id for node in ast.walk(fig6) if isinstance(node, ast.Name)}
    assert total == 3


def test_verification_builds_no_curves_or_engines():
    """Certification and the impact sweep take curves and rewards; they never estimate them,
    and they leave the solve's matrix and its LU batch alone."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "verification.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    banned = ENGINE_CLASSES | {"make_engine", "interim_curves", "reward_schedule",
                               "system_matrix", "solve_profiles", "_assemble"}
    assert not imported & banned


def top_level_functions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


MECHANISM = ast.parse((SRC / "mechanism.py").read_text())
FUNCTIONS = top_level_functions(MECHANISM)


def references(function: ast.FunctionDef) -> set:
    """Names a function's body refers to, bare (f) or as an attribute (np.linalg.f)."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def referrers(name: str) -> set:
    return {fn for fn, node in FUNCTIONS.items() if fn != name and name in references(node)}


def reachable(name: str, functions: dict = FUNCTIONS) -> set:
    """The module functions ``name`` uses, directly or through each other."""
    seen, todo = set(), [name]
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.add(fn)
            todo.extend(references(functions[fn]) & functions.keys())
    return seen


def test_assembly_only_for_single_profiles_and_the_lu_batch():
    """The curve kernel and the CG solve stay matrix-free."""
    assert referrers("_assemble") == {"system_matrix", "solve_profiles"}


@pytest.mark.parametrize("kernel", ["_rank2_factors", "interim_curves"])
def test_curve_kernel_calls_no_dense_solver(kernel):
    for fn in reachable(kernel):
        assert "linalg" not in references(FUNCTIONS[fn]), fn
        assert "_assemble" not in references(FUNCTIONS[fn]), fn


def test_one_cg_and_one_bounds_helper_serve_both_solves():
    """Only _solve runs CG, takes the a-priori bounds, reads the residual tolerance and
    compares phi with theta_bar; the demand solve and the curve kernel both call it."""
    defined = [node.name for node in ast.walk(MECHANISM)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined.count("_cg") == defined.count("_a_priori") == defined.count("_solve") == 1
    for name in ("_cg", "_a_priori", "_RESIDUAL_TOL", "theta_max"):
        assert referrers(name) == {"_solve"}, name
    assert referrers("_solve") == {"demand_solution", "_rank2_factors"}


def test_chunking_and_pooling_decided_in_interim_curves():
    """One function decides how a user's samples are chunked and which chunks go to the pool;
    ``_rank2_factors`` solves the one chunk it is given."""
    pooling = {"_map", "_chunk_slices", "ThreadPoolExecutor"}
    assert referrers("_map") == referrers("ThreadPoolExecutor") == {"interim_curves"}
    assert referrers("_chunk_slices") == {"_multisets", "interim_curves"}
    assert not [path.stem for path in sorted(SRC.glob("*.py"))
                if path.stem != "mechanism" and references(ast.parse(path.read_text())) & pooling]
    # one pool map per user: its chunks take their samples through the grid stage
    calls = [node for node in ast.walk(FUNCTIONS["interim_curves"])
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_map"]
    assert len(calls) == 1
    arguments = FUNCTIONS["_rank2_factors"].args
    assert "pool" not in {a.arg for a in arguments.args + arguments.kwonlyargs}


def test_symmetry_decided_in_market_and_read_by_the_operator_alone():
    """G = G^T is computed once, in market, and only Network.operator reads it, to pick its
    product path. No mechanism function names it or makes a product by matmul, the solve
    never sees how G is stored, and foc_residual, the independent check on the solve,
    reaches neither the solve nor the operator."""
    comparisons = {path.stem for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) in {"array_equal", "array_equiv", "allclose"}}
    assert comparisons == {"market"}
    market = ast.parse((SRC / "market.py").read_text())
    readers = {node.name for node in ast.walk(market)
               if isinstance(node, ast.FunctionDef) and "symmetric" in references(node)}
    assert readers == {"operator"}
    assert not {node.name for node in ast.walk(MECHANISM) if isinstance(node, ast.FunctionDef)
                and references(node) & {"symmetric", "matmul"}}
    assert not references(FUNCTIONS["_solve"]) & {"weights", "_CHUNK_FLOATS"}
    assert "operator" in references(FUNCTIONS["_solve"])
    for fn in reachable("foc_residual"):
        assert not references(FUNCTIONS[fn]) & {"_solve", "_cg", "operator", "symmetric"}, fn


def test_bruteforce_oracle_shares_no_code_with_the_solve():
    oracles = top_level_functions(ast.parse((Path(__file__).parent / "oracles.py").read_text()))
    defined = FUNCTIONS.keys() | {node.name for node in MECHANISM.body if isinstance(node, ast.ClassDef)}
    defined |= {target.id for node in MECHANISM.body if isinstance(node, ast.Assign)
                for target in node.targets}
    assert {"system_matrix", "_solve", "SolverError", "_COND_LIMIT"} <= defined
    for fn in reachable("bruteforce_oracle", oracles):
        assert not references(oracles[fn]) & defined, fn


def test_twin_classes_defined_once_in_market():
    """Network symmetry is computed in one place; the engines and the kernel take its classes."""
    homes = [path.stem for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "twin_classes"]
    assert homes == ["market"]


def test_config_format_parsed_in_config_only():
    """Every block of a config file is read in one module; the type laws know no config."""
    homes = [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_config")]
    assert homes and {stem for stem, _ in homes} == {"config"}
    distributions = ast.parse((SRC / "distributions.py").read_text())
    assert "_FAMILIES" not in {node.id for node in ast.walk(distributions) if isinstance(node, ast.Name)}


def test_config_leaves_network_construction_to_market():
    """config parses the network block; market allocates, scales, checks and freezes the one
    weight array. So config imports no numpy, reads no ``weights``, calls no ``Network`` and
    hands every kind, with its edges and weight, to ``make_network``."""
    config = ast.parse((SRC / "config.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(config) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(config)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "numpy" not in imported
    assert "weights" not in references(config)
    assert "Network" not in {getattr(node.func, "id", None) for node in ast.walk(config) if isinstance(node, ast.Call)}
    build = top_level_functions(config)["network_from_config"]
    assert "make_network" in references(build)
    assert not any(isinstance(node, ast.BinOp) for node in ast.walk(build))


def test_dominance_coupling_spelled_once_in_market():
    """sum_j (g_ij + g_ji) lives in one helper; the validator and the feasible edge weight call it."""
    market = top_level_functions(ast.parse((SRC / "market.py").read_text()))
    axis_sums = {fn for fn, node in market.items() for call in ast.walk(node)
                 if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "sum"
                 and any(k.arg == "axis" for k in call.keywords)}
    assert axis_sums == {"dominance_coupling"}
    for fn in ("validate_assumption2", "scaled_random_half_network"):
        assert "dominance_coupling" in references(market[fn]), fn


@pytest.mark.parametrize("kernel", ["_rank2_factors", "interim_curves"])
def test_curve_kernel_never_names_quadrature(kernel):
    """The kernel takes the engine's ``classes`` and ``standard_error``; it never asks
    which engine it holds, nor finds the twins itself."""
    for fn in reachable(kernel):
        node = FUNCTIONS[fn]
        assert "QuadratureEngine" not in references(node), fn
        strings = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
        assert "quadrature" not in strings, fn
        assert not references(node) & {"kind", "exchangeable", "check_budget", "twin_classes"}, fn
    assert "classes" in references(FUNCTIONS["interim_curves"])


def test_sample_variance_spelled_once_on_the_monte_carlo_engine():
    """The i.i.d. variance's m / max(1, m - 1) lives in MonteCarloEngine.standard_error alone."""
    def is_dof(call):
        return (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "max"
                and len(call.args) == 2 and getattr(call.args[0], "value", None) == 1
                and isinstance(call.args[1], ast.BinOp) and isinstance(call.args[1].op, ast.Sub)
                and getattr(call.args[1].right, "value", None) == 1)

    homes = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            homes += [(path.stem, owner, fn.name) for fn in (top.body if owner else [top])
                      if isinstance(fn, ast.FunctionDef) and any(map(is_dof, ast.walk(fn)))]
    assert homes == [("mechanism", "MonteCarloEngine", "standard_error")]


def test_chunk_merge_spelled_once():
    """The Chan, Golub & LeVeque cross term w_a w_b / (w_a + w_b), which merges two chunks'
    squares about their means, lives in one function: the curve kernel's fold."""
    def factors(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return factors(node.left) + factors(node.right)
        return [ast.unparse(node)]

    def is_cross(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Add)
                and {ast.unparse(node.right.left), ast.unparse(node.right.right)} <= set(factors(node.left)))

    homes = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else path
            if is_cross(child):
                homes.append(path)
            visit(child, inner)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text()), (source.stem,))
    assert homes == [("mechanism", "interim_curves", "run_user", "fold")]


def module_constants(tree: ast.Module) -> dict:
    """Names a module assigns at its top level, with the source of each value."""
    return {target.id: ast.unparse(node.value) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_working_array_budget_assigned_in_market_alone():
    """One cache-sized budget sizes G's row panels and the curve kernel's chunks and blocks;
    mechanism imports it under the name it reads."""
    homes = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name, value in module_constants(ast.parse(path.read_text())).items()
             if name in {"_CHUNK_FLOATS", "_PANEL_FLOATS"} or value == "2 ** 16"}
    assert homes == {("market", "_CHUNK_FLOATS")}
    imported = {alias.name for node in MECHANISM.body if isinstance(node, ast.ImportFrom)
                and node.module == "market" for alias in node.names}
    assert "_CHUNK_FLOATS" in imported


def test_refusal_budget_assigned_in_market_alone():
    """One 2**24-float budget refuses every oversized array, and no module states a second
    large limit beside it; mechanism and cli import it under its own name, the Monte Carlo
    engine, whose draws stream, names no budget, and config leaves the dense-network refusal
    to the generator that allocates."""
    def large_power(value):
        base, _, exponent = value.partition(" ** ")
        return base == "2" and exponent.isdigit() and int(exponent) >= 17

    homes = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name, value in module_constants(ast.parse(path.read_text())).items()
             if name == "_MAX_QUADRATURE_NODES" or large_power(value)}
    assert homes == {("market", "MAX_ARRAY_FLOATS")}
    engine = next(node for node in MECHANISM.body
                  if isinstance(node, ast.ClassDef) and node.name == "MonteCarloEngine")
    assert not [name for name in references(engine) if "FLOATS" in name or "MAX" in name]
    for module in ("mechanism", "cli"):
        imported = {alias.name for node in ast.parse((SRC / f"{module}.py").read_text()).body
                    if isinstance(node, ast.ImportFrom) and node.module == "market"
                    for alias in node.names}
        assert "MAX_ARRAY_FLOATS" in imported, module
    assert "check_dense_size" not in (SRC / "config.py").read_text()


def test_profile_support_left_to_the_type_law():
    """Scenario.check_profile checks the shape and calls the law's own support test; it
    compares nothing with the law's bounds."""
    market = ast.parse((SRC / "market.py").read_text())
    scenario = next(node for node in market.body if isinstance(node, ast.ClassDef) and node.name == "Scenario")
    check = next(node for node in scenario.body if isinstance(node, ast.FunctionDef) and node.name == "check_profile")
    assert "_check_support" in references(check)
    for compare in (node for node in ast.walk(check) if isinstance(node, ast.Compare)):
        assert not references(compare) & {"lower", "upper"}, ast.unparse(compare)
    assert not references(check) & {"lower", "upper", "SupportError"}


def test_cli_states_no_assumption_failure_of_its_own():
    """validate reports a violated assumption through Scenario.require_valid, as every verb does."""
    cli = ast.parse((SRC / "cli.py").read_text())
    assert not references(cli) & {"failure_message", "_messages"}
    printed = [node.value for call in ast.walk(cli) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "print" for node in ast.walk(call)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert printed and not [text for text in printed if "assumption" in text or "violated" in text]
    validate = top_level_functions(cli)["cmd_validate"]
    assert "require_valid" in references(validate)
    assert "stderr" not in references(validate)


def test_case_study_runs_through_one_runner_table():
    """table2 is reached through experiments' runner table alone, and each experiment's
    grid floor is its flag's own type: cli reads no per-experiment table."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = references(top) | {alias.name for node in ast.walk(top)
                                       if isinstance(node, ast.ImportFrom) for alias in node.names}
            if "run_table2" in names and getattr(top, "name", None) != "run_table2":
                callers.add((path.stem, ast.unparse(top.targets[0]) if isinstance(top, ast.Assign) else None))
    assert callers == {("experiments", "_RUNNERS")}
    experiments = ast.parse((SRC / "experiments.py").read_text())
    tables = {name for name, value in module_constants(experiments).items() if value.startswith("{")}
    cli = ast.parse((SRC / "cli.py").read_text())
    assert not references(cli) & (tables | {"MIN_GRIDS"})
