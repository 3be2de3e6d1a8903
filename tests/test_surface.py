"""No dead helpers or fields: every function, class and method that
`src/frugalas` defines is named somewhere in the package or the benchmark,
and every field it stores is read there.

The scan is by name, not by binding. A definition counts as used when any
`ast.Name`, `ast.Attribute` or import alias in `src/frugalas` (outside
`__init__.py`, whose exports are not uses) or in `perfbench/*.py` carries its
name. So does a string constant in `perfbench/*.py` that equals the name: the
tracer patches functions by name, and a patched function is looked up. A name
reached only from `tests/` is a helper kept for its tests: move it into the
tests, or put it on `ALLOWED` with the reason it stays.

A field is a dataclass field (any annotated class attribute) or an attribute
assigned on `self`. It counts as read when an attribute load (`obj.name`,
not a store) of its name appears in the same files; a field only tests read
is dead weight on every instance.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frugalas"

ALLOWED = {
    "dump_trees": "the documented trees format behind the golden trees digest",
    "pairwise_label": "the one-cell reference rule the array labels are tested against",
    "timeout_label": "the one-cell reference rule the array labels are tested against",
    "make_synthetic_scenario": "the synthetic-scenario module's entry point",
    "write_scenario_dir": "the synthetic-scenario module's writer",
}


def _definitions():
    """{qualified name: (file, bare name)} of every top-level function and
    class, and every non-dunder method of a top-level class."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = (path.name, node.name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        defined[f"{node.name}.{sub.name}"] = (path.name, sub.name)
    return defined


def _fields():
    """{qualified name: file} of every annotated class attribute (such as a
    dataclass field) and every attribute assigned on `self` in
    `src/frugalas`."""
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign):
                    fields[f"{node.name}.{sub.target.id}"] = path.name
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    fields[f"{node.name}.{sub.attr}"] = path.name
    return fields


def _sources():
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return package, sorted((ROOT / "perfbench").glob("*.py"))


def _attributes_read():
    package, perfbench = _sources()
    return {
        node.attr
        for path in package + perfbench
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _names_used():
    package, perfbench = _sources()
    used = set()
    for path in package + perfbench:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif path in perfbench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_definition_is_used_or_allowed():
    used = _names_used()
    unused = sorted(
        f"{file}: {qualified}"
        for qualified, (file, name) in _definitions().items()
        if name not in used and qualified not in ALLOWED
    )
    assert not unused, "defined in src/frugalas but named only by tests:\n" + "\n".join(unused)


def test_every_allowed_name_is_still_defined_and_unused():
    # A stale entry would let a later dead helper of the same name through.
    defined = _definitions()
    used = _names_used()
    stale = sorted(n for n in ALLOWED if n not in defined or defined[n][1] in used)
    assert not stale, f"allowlist entries that are gone or now used: {stale}"


def test_every_field_is_read():
    read = _attributes_read()
    unread = sorted(
        f"{file}: {qualified}"
        for qualified, file in _fields().items()
        if qualified.rpartition(".")[2] not in read
    )
    message = "stored in src/frugalas, read nowhere in it or perfbench:\n"
    assert not unread, message + "\n".join(unread)
