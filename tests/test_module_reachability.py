"""Every module under ``src/repro`` is reachable from the CLI.

A module that ``repro.cli`` cannot reach, directly or through any chain
of imports, is code that no command runs: it is either dead or only
kept alive by its own tests.  The walk is static — it parses each
module with :mod:`ast` and follows

* ``import`` and ``from ... import`` statements at any depth
  (module-level, function-local and ``TYPE_CHECKING`` blocks alike);
* string literals naming a module (``"repro.x.y"``), which is how the
  lazy ``_EXPORTS`` maps and ``importlib.import_module`` refer to
  their targets.

Importing ``a.b.c`` also imports the packages ``a`` and ``a.b``, so
those count as reached too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = "repro.cli"
_MODULE_LITERAL = re.compile(r"repro(?:\.\w+)+")


def _all_modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _with_parents(name: str, modules: dict[str, Path]) -> set[str]:
    """``name`` and every enclosing package, restricted to known modules."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & modules.keys()


def _longest_module_prefix(dotted: str, modules: dict[str, Path]) -> str | None:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        candidate = ".".join(parts[:i])
        if candidate in modules:
            return candidate
    return None


def _imports_of(name: str, modules: dict[str, Path]) -> set[str]:
    tree = ast.parse(modules[name].read_text())
    found: set[str] = set()

    def add(dotted: str) -> None:
        target = _longest_module_prefix(dotted, modules)
        if target is not None:
            found.update(_with_parents(target, modules))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            add(node.module)
            # ``from repro.pkg import submodule`` imports the submodule
            for alias in node.names:
                add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for match in _MODULE_LITERAL.findall(node.value):
                add(match)
    return found


def _reachable(modules: dict[str, Path]) -> set[str]:
    seen = set(_with_parents(ROOT, modules))
    frontier = list(seen)
    while frontier:
        for target in _imports_of(frontier.pop(), modules):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def test_every_module_is_reachable_from_the_cli():
    modules = _all_modules()
    unreachable = sorted(modules.keys() - _reachable(modules))
    assert not unreachable, (
        f"modules no CLI command can import: {unreachable}; delete them or "
        "wire them into a command"
    )
