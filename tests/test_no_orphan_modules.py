"""Every ``repro`` module has a user outside its own tests.

A module stays only if shipped code uses it: something under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` imports it, or it is a
``[project.scripts]`` entry point. Imports are read with :mod:`ast`, so
a multi-line ``from repro.experiments import (...)`` (the experiment
registry's form) counts like any other.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
IMPORTER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Known orphans awaiting a decision, not an exemption: ROADMAP item 2
#: plans to wire it into the Table 3 bench.
ALLOWED_ORPHANS = {
    "repro.evaluation.significance",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_names(path: Path) -> Iterator[str]:
    """Every dotted name an ``import`` or ``from ... import`` may load."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            # The codebase imports absolutely; a relative import would
            # surface here as a false orphan, not a silent pass.
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def imported_modules() -> Set[str]:
    """Imported names, closed under parents (importing a.b loads a)."""
    seen: Set[str] = set()
    for directory in IMPORTER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for name in imported_names(path):
                parts = name.split(".")
                seen.update(
                    ".".join(parts[:end]) for end in range(1, len(parts) + 1)
                )
    return seen


def entry_points() -> Set[str]:
    """Modules named by ``[project.scripts]`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"([\w.]+):', section))


def test_every_module_has_a_shipped_importer() -> None:
    modules = {module_name(path) for path in PACKAGE.rglob("*.py")}
    used = imported_modules() | entry_points()
    orphans = sorted(modules - used - ALLOWED_ORPHANS)
    assert not orphans, (
        f"modules no shipped code imports: {orphans}; wire them into an "
        f"experiment, bench or CLI, or delete them with their tests"
    )


def test_allowlist_is_not_stale() -> None:
    modules = {module_name(path) for path in PACKAGE.rglob("*.py")}
    assert ALLOWED_ORPHANS <= modules
    assert not ALLOWED_ORPHANS & imported_modules()
