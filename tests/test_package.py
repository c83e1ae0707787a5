import ast
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
