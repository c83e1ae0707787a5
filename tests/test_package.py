import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "p3fusion"


def test_no_assert_statements_in_the_package():
    # invariant checks raise package errors: asserts vanish under python -O
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert list(SRC.rglob("*.py"))
    assert found == []


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set", "list") and not node.args
            and not node.keywords)


def test_import_pulls_in_no_dataclasses_or_inspect():
    # records are NamedTuples: dataclasses would import inspect, ast, dis and
    # tokenize, about 1 MB of resident memory in every process
    code = ("import sys, p3fusion, p3fusion.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_no_module_level_memo_in_the_package():
    # an empty container assigned at module level is a module-global memo;
    # cached state belongs to the object that uses it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_exported_name_is_defined():
    # a deleted function cannot linger in an __all__
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        name = "p3fusion" if path.stem == "__init__" else f"p3fusion.{path.stem}"
        module = importlib.import_module(name)
        missing.extend(f"{name}.{export}" for export in getattr(module, "__all__", ())
                       if not hasattr(module, export))
    assert missing == []
