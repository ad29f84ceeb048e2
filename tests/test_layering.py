"""Import layering: type laws, market primitives and configs sit below the mechanism."""

import ast
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
