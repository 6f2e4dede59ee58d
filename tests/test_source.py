import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "quotamaj"


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
    # the oracle checks raw definitions, so it must not reach the quota-sequence
    # machinery: it reads the domain model from `core` and the tables from `tables`
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
    assert package == ["core", "tables"]


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
    "extraction": {"core", "engine", "oracle"},
    "fileformats": {"core", "tables"},
    "lp": {"core", "engine"},
    "oracle": {"core", "tables"},
    "tables": {"core"},
}


def test_each_module_imports_only_its_layers_at_top_level():
    found = {path.stem: top_level_package_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert found == TOP_LEVEL_IMPORTS


def test_one_builder_skips_init_for_every_n_value_type():
    # `object.__new__` builds a value without its class's checks, so it
    # appears once, in `core._trusted`, which the three types share
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__new__" and getattr(node.value, "id", None) == "object"
    ]
    assert len(calls) == 1, calls
    from quotamaj import CountTable, FullTable, QuotaSeq, core
    builders = (QuotaSeq._trusted, CountTable._from_mask, FullTable._from_mask)
    assert all(builder.__func__ is core._trusted for builder in builders)


def test_the_duality_map_is_one_function():
    from quotamaj import core, engine
    assert engine._mirror is core._mirror


def test_core_forwards_every_name_the_table_layer_defines(layers):
    # the public ones: `core` forwards exactly the names that the package
    # exports from `tables`; any other, private ones included, raises
    # AttributeError without loading `tables`
    import quotamaj
    from quotamaj import core, tables

    public = quotamaj._EXPORTS["tables"]
    assert all(getattr(core, name) is getattr(tables, name) for name in public)
    assert not any(hasattr(core, name) for name in defined_names(SOURCE / "tables.py") - set(public))
    script = (
        "from quotamaj import core\n"
        "try:\n"
        "    core._grid\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    out, modules = layers.list_modules(0, script)
    assert out == "module 'quotamaj.core' has no attribute '_grid'\n" and "quotamaj.tables" not in modules
    # no other name: the import system asks every module for __path__
    assert not hasattr(core, "__path__") and not hasattr(core, "no_such_name")


def defined_names(path):
    """The names the module at `path` binds at top level other than by importing them."""
    defined = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return defined


def imports_from_the_package(path):
    """(line, module, name) of each name that `path` imports from a package
    module, the module as a file stem; `from . import m` names module m."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0:
            module = node.module or "__init__"
        elif node.module == "quotamaj" or (node.module or "").startswith("quotamaj."):
            module = node.module.removeprefix("quotamaj").removeprefix(".") or "__init__"
        else:
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names]
    return found


def test_each_name_is_imported_from_the_module_that_defines_it():
    modules = {path.stem for path in SOURCE.glob("*.py")}
    defined = {module: defined_names(SOURCE / f"{module}.py") for module in modules}
    # in the package every name, and in the tests and tools every private
    # name, comes from its home; a public re-export such as
    # `fileformats.TEXT` serves the tests and tools, not the package
    wrong = [
        f"{path.name}:{line} {name} from {module}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, module, name in imports_from_the_package(path)
        if name not in defined[module] and not (module == "__init__" and name in modules)
    ]
    wrong += [
        f"{path.parent.name}/{path.name}:{line} {name} from {module}"
        for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])
        for line, module, name in imports_from_the_package(path)
        if name.startswith("_") and name not in defined[module]
    ]
    assert wrong == []


def test_the_readme_budget_table_names_every_budget_constant():
    # the budgets are the module-level MAX_* constants of the package, and
    # the README lists each once, by module, in its budget table
    constants = sorted(
        f"{path.stem}.{target.id}"
        for path in SOURCE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    )
    readme = (ROOT / "README.md").read_text().splitlines()
    start = readme.index("| budget | value | refuses |")
    rows = []
    for line in readme[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert constants == ["core.MAX_RULES", "core.MAX_TABLE_PROFILES"]
    assert sorted(rows) == constants


def test_no_class_declares_an_init_that_only_forwards_its_parameters():
    # `_Value.__init__` stores the fields in __slots__ order, so an __init__
    # that passes its own parameters to it unchanged is a second declaration
    def forwards_only(init):
        body = [stmt for stmt in init.body if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
        params = ", ".join(arg.arg for arg in [*init.args.posonlyargs, *init.args.args][1:])
        forward = ast.parse(f"super().__init__({params})").body[0]
        return len(body) == 1 and ast.dump(body[0]) == ast.dump(forward)

    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__" and forwards_only(item)
    ]
    assert found == []


def test_only_tables_and_oracle_shift_a_mask():
    # a grid position is computed by `tables` and `oracle` alone; comments
    # and strings are not operators
    shifts = {
        path.name
        for path in SOURCE.glob("*.py")
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if token.type == tokenize.OP and token.string in ("<<", ">>", "<<=", ">>=")
    }
    assert shifts and shifts <= {"tables.py", "oracle.py"}, shifts


def test_every_public_method_of_an_exported_class_has_a_reader():
    # a method or property that no test, the CLI, the README, the benchmark
    # or the tools reads as `.name` is not part of what the package offers
    import quotamaj

    members = set()
    for module, names in quotamaj._EXPORTS.items():
        for node in ast.parse((SOURCE / f"{module}.py").read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                members |= {
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    assert members
    readers = [
        *(path for path in (ROOT / "tests").glob("*.py") if path.name != "test_source.py"),
        SOURCE / "cli.py", *(ROOT / "benchmarks").glob("*.py"), *(ROOT / "tools").glob("*.py"),
    ]
    read = {
        node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    read |= set(re.findall(r"\.(\w+)", (ROOT / "README.md").read_text()))
    assert sorted(f"{cls}.{name}" for cls, name in members if name not in read) == []


def test_fields_are_stored_by_one_init_and_one_builder():
    # `_Value.__init__` stores the fields of every checked build and
    # `core._trusted` those of every trusted one, both through the slot setters
    # that `_Value.__init_subclass__` binds once per class; no class stores its own
    def attributes(node, where):
        """(qualified function name, node) of every attribute node under `node`."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from attributes(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                yield where, child
            yield from attributes(child, where)

    found = [
        (where, node)
        for path in sorted(SOURCE.glob("*.py"))
        for where, node in attributes(ast.parse(path.read_text()), path.stem)
    ]
    setattr_calls = [
        where for where, node in found if node.attr == "__setattr__" and getattr(node.value, "id", None) == "object"
    ]
    assert setattr_calls == []
    stores = {where for where, node in found if node.attr == "_stores" and isinstance(node.ctx, ast.Load)}
    assert stores == {"core._Value.__init__", "core._trusted"}


def test_no_module_imports_from_future():
    # annotations that name a lazily imported class are quoted instead, so
    # that no command loads `__future__`
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    )
    assert found == []


def test_one_check_refuses_a_profile_of_another_society_size():
    # `engine._require_same_n` words the mismatch for every rule that reads a profile
    found = sorted(path.name for path in SOURCE.glob("*.py") if "society size mismatch" in path.read_text())
    assert found == ["engine.py"]


def test_only_tables_computes_a_count_profile_index():
    # row na of the all_count_profiles order starts at na*(2n+3-na)/2, and no
    # module computes that index: `tables` places a count file's entries
    # straight on their grid bits, and the oracle works on grid bits and
    # reads a table only through its mask, never round-tripping letters
    # through rows or positions
    found = sorted(path.name for path in SOURCE.glob("*.py") if "2 * n + 3" in path.read_text())
    assert found == []
    oracle = [name for _, module, name in imports_from_the_package(SOURCE / "oracle.py") if module == "tables"]
    assert oracle and not {"_place_rows", "_mask_of"} & set(oracle)
    read = {node.attr for node in ast.walk(ast.parse((SOURCE / "oracle.py").read_text())) if isinstance(node, ast.Attribute)}
    assert "mask" in read and "outcome_string" not in read


def test_the_oracle_builds_no_mask_from_a_digit_string():
    # every oracle mask is a shift, a doubling (`tables._spaced`) or the
    # table's own: a mask parsed from digits costs a string per bit
    tree = ast.parse((SOURCE / "oracle.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls and [node.lineno for node in calls if getattr(node.func, "id", None) == "int"] == []


def test_only_tables_maps_text_to_outcomes():
    # the outcome codec has one home: a dict display with an Alternative
    # among its values, such as {"a": Alternative.A, ...}, is a second one
    def is_outcome(node):
        named = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "Alternative"
        return named and node.attr in ("A", "B")

    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Dict) and any(map(is_outcome, node.values))
    )
    assert [where for where in found if not where.startswith("tables.py:")] == []
    assert found


def refusal_templates(path):
    """(template, line) of each `raise ValueError(...)` or `raise
    SearchBudgetExceeded(...)` in `path` whose message begins with literal
    text: that text, with `{}` and its conversion, as in `{!r}`, for each field."""
    for node in ast.walk(ast.parse(path.read_text())):
        call = node.exc if isinstance(node, ast.Raise) else None
        refusal = isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("ValueError", "SearchBudgetExceeded")
        if not (refusal and call.args):
            continue
        parts = call.args[0].values if isinstance(call.args[0], ast.JoinedStr) else [call.args[0]]
        if not (isinstance(parts[0], ast.Constant) and isinstance(parts[0].value, str)):
            continue
        yield "".join(
            part.value if isinstance(part, ast.Constant)
            else "{" + ("" if part.conversion < 0 else "!" + chr(part.conversion)) + "}"
            for part in parts
        ), node.lineno


def test_each_refusal_is_raised_from_one_site():
    # one check and one wording per input rule: a message raised from two
    # sites is a rule checked twice, or worded twice if the texts drift apart
    sites = {}
    for path in sorted(SOURCE.glob("*.py")):
        for template, line in refusal_templates(path):
            sites.setdefault(template, []).append(f"{path.name}:{line}")
    assert "quota {} outside [0, {}] for society size {}" in sites
    assert "enumerating n={} yields 2**{} rules, budget is {}" in sites
    assert {template: where for template, where in sites.items() if len(where) > 1} == {}


def test_no_test_helper_is_defined_twice():
    # a reference or generator that two test modules define drifts apart;
    # a shared one lives in tests/helpers.py
    homes = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(path.name)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}
