"""Source rules read off the syntax tree of every package module.

No correctness check may live in an ``assert``: ``python -O`` strips them.
The experiment harness ``lab`` sits at the top of the import graph: only the
command-line front end imports it, so no module below it can close a cycle.
The package reads eigenbases through their arrays and ``EigenBasis.evaluate``;
the per-mode views are for callers outside it.
"""
import ast
from pathlib import Path

import equiweyl

PACKAGE = Path(equiweyl.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Dotted names a module imports, relative imports resolved against the
    package (every module sits at its top level)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["equiweyl" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{a.name}" for a in node.names)


def test_modules_found():
    assert {"cli.py", "lab.py"} <= {p.name for p in MODULES}


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_cli_imports_lab():
    importers = [path.name for path in MODULES
                 if path.name != "cli.py" and "equiweyl.lab" in set(_imported(_tree(path)))]
    assert importers == []


def test_only_eigensolve_reads_per_mode_views():
    per_mode = {"modes", "evaluator", "density"}
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in MODULES if path.name != "eigensolve.py"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in per_mode]
    assert found == []
