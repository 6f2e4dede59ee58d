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


def top_level_package_imports(path):
    """The package modules that loading `path` loads: its module-level imports only."""
    imported = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quotamaj."):
            imported.add(node.module.removeprefix("quotamaj."))
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("quotamaj.") for a in node.names if a.name.startswith("quotamaj.")}
    return imported


# `lp` reads the level maps from `engine`, not from `extraction` (which
# would load the oracle too), and loads `canonical` in `lp_to_proper` alone;
# the family writer sits in `enumeration`, so neither it nor `fileformats`
# loads the other, and `fileformats` loads `tables` in its table readers
# alone; `enumeration` reads the duality map from `core`; commands load the
# rest lazily
TOP_LEVEL_IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "canonical": {"core", "engine"},
    "cli": {"core"},
    "core": set(),
    "engine": {"core"},
    "enumeration": {"core"},
    "extraction": {"canonical", "core", "engine", "oracle"},
    "fileformats": {"core"},
    "lp": {"core", "engine"},
    "oracle": {"core"},
    "tables": {"core"},
}


def test_each_module_imports_only_its_layers_at_top_level():
    found = {path.stem: top_level_package_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert found == TOP_LEVEL_IMPORTS


def test_the_duality_map_is_one_function():
    from quotamaj import core, engine
    assert engine._mirror is core._mirror


def test_core_forwards_every_name_the_table_layer_defines():
    from quotamaj import core, tables

    defined = set()
    for node in ast.parse((SOURCE / "tables.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets}
    assert core._TABLE_NAMES == defined
    assert all(getattr(core, name) is getattr(tables, name) for name in defined)
    # no other name: the import system asks every module for __path__
    assert not hasattr(core, "__path__") and not hasattr(core, "no_such_name")
