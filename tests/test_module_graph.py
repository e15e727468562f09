"""Every module of the package is reachable from its entry points.

A module that nothing imports is code no sweep, CLI command or library call
can run.  The walk starts at ``repro``, ``repro.__main__`` and ``repro.cli``
and follows ``import``/``from`` statements plus string constants that name a
module (``sim/__init__``'s lazy exports are ``"repro.sim.executor"``-style
strings); importing ``a.b.c`` also runs the ``a`` and ``a.b`` packages.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = ("repro", "repro.__main__", "repro.cli")


def package_modules():
    """Dotted module name -> source path, for every module under repro/."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def referenced_names(name, path):
    """Dotted names a module imports or spells out as a string constant."""
    package = (name if path.name == "__init__.py"
               else name.rpartition(".")[0]).split(".")
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = package[:len(package) - node.level + 1] if node.level else []
            base = ".".join(anchor + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_module_is_reachable_from_an_entry_point():
    modules = package_modules()
    reached, pending = set(), list(ENTRY_POINTS)
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        pending.append(name.rpartition(".")[0])
        pending.extend(referenced_names(name, modules[name]))
    orphans = sorted(set(modules) - reached)
    assert not orphans, f"modules no entry point reaches: {orphans}"
