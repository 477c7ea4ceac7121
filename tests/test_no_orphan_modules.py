"""Every ``repro`` module has a user outside its own tests.

A module stays only if shipped code uses it: something under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` imports it, or it is a
``[project.scripts]`` entry point. Imports are read with :mod:`ast`, so
a multi-line ``from repro.experiments import (...)`` (the experiment
registry's form) counts like any other.

An imported name counts for the module that defines it: a
``from repro.novel import MixtureRecommender`` follows the package's
``__init__`` re-export to ``repro.novel.mixture``. A re-export is not a
use: an import counts neither for the module that holds it nor, in a
package's ``__init__``, for any module inside that package, so nothing
``repro/__init__.py`` imports counts.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
IMPORTER_DIRS = ("src", "benchmarks", "perfbench", "examples")


def module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def package_modules(root: Path = ROOT) -> Set[str]:
    src = root / "src"
    return {module_name(path, src) for path in (src / "repro").rglob("*.py")}


def source_file(name: str, src: Path) -> Optional[Path]:
    """The file that defines module ``name`` under ``src``, if any."""
    base = src.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


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


def import_bindings(path: Path) -> Dict[str, str]:
    """Top-level ``from ... import`` names, mapped to where they come from."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def defining_module(
    name: str, src: Path, bindings: Dict[Path, Dict[str, str]]
) -> str:
    """The module that defines dotted ``name``, following re-exports.

    ``name`` is a module, or a module and one attribute of it.
    ``bindings`` caches :func:`import_bindings` per file.
    """
    while source_file(name, src) is None and "." in name:
        module, attribute = name.rsplit(".", 1)
        path = source_file(module, src)
        if path is None:
            return module
        if path not in bindings:
            bindings[path] = import_bindings(path)
        target = bindings[path].get(attribute)
        if target is None:
            return module
        name = target
    return name


def imported_modules(root: Path = ROOT) -> Set[str]:
    """Modules shipped imports use, closed under parents.

    Importing ``a.b`` loads ``a``, so a used module's packages are used
    too, except by an import from the package chain it belongs to.
    """
    src = root / "src"
    bindings: Dict[Path, Dict[str, str]] = {}
    used: Set[str] = set()
    for directory in IMPORTER_DIRS:
        for path in (root / directory).rglob("*.py"):
            importer = module_name(path, src) if directory == "src" else None
            package = importer is not None and path.name == "__init__.py"
            for name in imported_names(path):
                parts = defining_module(name, src, bindings).split(".")
                for end in range(1, len(parts) + 1):
                    module = ".".join(parts[:end])
                    if module == importer or (
                        package and module.startswith(importer + ".")
                    ):
                        continue
                    used.add(module)
    return used


def entry_points() -> Set[str]:
    """Modules named by ``[project.scripts]`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"([\w.]+):', section))


def test_every_module_has_a_shipped_importer() -> None:
    orphans = sorted(package_modules() - imported_modules() - entry_points())
    assert not orphans, (
        f"modules no shipped code imports: {orphans}; wire them into an "
        f"experiment, bench or CLI, or delete them with their tests"
    )


def write_tree(root: Path, files: Dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")


#: A package ``pkg`` whose ``__init__`` re-exports one name from each of
#: its two submodules; ``repro/__init__`` re-exports both again.
REEXPORT_TREE = {
    "src/repro/__init__.py": "from repro.pkg import spare, thing",
    "src/repro/pkg/__init__.py": (
        "from repro.pkg.mod import thing\n"
        "from repro.pkg.spare_mod import spare"
    ),
    "src/repro/pkg/mod.py": "thing = 1",
    "src/repro/pkg/spare_mod.py": "spare = 2",
}


class TestOrphanRule:
    @pytest.mark.parametrize(
        "reexporter", ["src/repro/pkg/__init__.py", "src/repro/__init__.py"]
    )
    def test_own_package_chain_is_not_a_use(self, tmp_path, reexporter) -> None:
        write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/mod.py": "thing = 1",
        })
        write_tree(tmp_path, {reexporter: "from repro.pkg.mod import thing"})
        used = imported_modules(tmp_path) & package_modules(tmp_path)
        assert "repro.pkg.mod" not in used

    @pytest.mark.parametrize(
        "statement",
        ["from repro.pkg import thing", "from repro import thing"],
        ids=["through-package", "through-two-levels"],
    )
    def test_reexported_name_counts_for_its_defining_module(
        self, tmp_path, statement
    ) -> None:
        write_tree(tmp_path, {**REEXPORT_TREE, "examples/demo.py": statement})
        used = imported_modules(tmp_path) & package_modules(tmp_path)
        assert used == {"repro", "repro.pkg", "repro.pkg.mod"}
