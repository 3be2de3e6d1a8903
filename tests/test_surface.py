"""No dead helpers: every function, class and method that `src/frugalas`
defines is named somewhere in the package or the benchmark.

The scan is by name, not by binding. A definition counts as used when any
`ast.Name`, `ast.Attribute` or import alias in `src/frugalas` (outside
`__init__.py`, whose exports are not uses) or in `perfbench/*.py` carries its
name. So does a string constant in `perfbench/*.py` that equals the name: the
tracer patches functions by name, and a patched function is looked up. A name
reached only from `tests/` is a helper kept for its tests: move it into the
tests, or put it on `ALLOWED` with the reason it stays.
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


def _names_used():
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
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
