"""Every name a module of the package imports is read in that module.

No linter runs with the tests, so this stands in for pyflakes' unused-import
check (F401). Two kinds of import are exempt: a package `__init__`'s
re-exports, and a name on a `# noqa: F401` line that `BINDINGS` in
perfbench/tracing.py lists for that module. The benchmark's tracer wraps
such a name where the module binds it, so it stays bound though the module
never reads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twinforge"


def _traced_bindings() -> set:
    """(module, name) pairs of `BINDINGS`, read without importing the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py assigns no BINDINGS")


def unused_imports(source: str, module: str, traced: set) -> list[str]:
    """The names `source` imports and never reads, less the exempt traced bindings."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            exempt = "# noqa: F401" in lines[alias.lineno - 1] and (module, name) in traced
            if name not in read and not exempt:
                unused.append(f"{module}:{alias.lineno} {name}")
    return unused


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    traced = _traced_bindings()
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
            unused += unused_imports(path.read_text(), module, traced)
    assert unused == []


def test_the_check_finds_an_unused_import_and_spares_a_traced_one():
    source = ("import os\nimport sys\nfrom json import dumps, loads\n"
              "from math import tau  # noqa: F401\nfrom math import pi  # noqa: F401\nprint(sys, loads)\n")
    traced = {("m", "pi"), ("m", "dumps")}
    assert unused_imports(source, "m", traced) == ["m:1 os", "m:3 dumps", "m:4 tau"]
