"""The package namespace: ``__all__`` against the names ``__init__`` imports,
and no module importing a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scgm


def test_all_names_resolve_and_every_public_import_is_listed():
    for name in scgm.__all__:
        assert hasattr(scgm, name), name
    tree = ast.parse(Path(scgm.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(scgm.__all__) - {"__version__"}
    assert len(scgm.__all__) == len(set(scgm.__all__))


def test_import_loads_no_process_pool():
    # model_search imports these itself; importing them costs 10-25 ms
    code = (
        "import sys; import scgm; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = str(Path(scgm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_a_name_it_never_uses():
    # the benchmark's tracer wraps these two under the importing module's
    # name; nothing else may import a name only to re-export it
    pinned = {("fitting", "param_value"), ("cli", "parse_graph")}
    unused = set()
    for path in sorted(Path(scgm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.add((path.stem, name))
    assert unused == pinned


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a helper only the tests call belongs in the tests.  Exempt: oracle.py,
    # the independent cross-check, and the format writers and readers and
    # parameter views kept as library API
    exempt = {
        "dump_table",
        "graph_to_json",
        "statement_from_json",
        "conditional_param",
        "baseline_from_local",
    }
    package = Path(scgm.__file__).parent
    bench = package.parents[1] / "perfbench"
    sources = sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))
    defined = {}
    referenced = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == package and path.stem != "oracle":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("_"):
                        defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = {
        f"{module}.{name}"
        for name, module in defined.items()
        if name not in referenced and name not in exempt
    }
    assert uncalled == set()
