import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "quotamaj"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check in the library may be one
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_imports_only_core_from_the_package():
    # the oracle checks raw definitions, so it must not reach the quota-sequence machinery
    tree = ast.parse((SOURCE / "oracle.py").read_text())
    package = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("quotamaj"))
    ]
    package += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("quotamaj")
    ]
    assert package == ["core"]
