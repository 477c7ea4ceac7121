"""Consistency checks between code, docs, and the benchmark suite.

These guard the reproduction contract: every registered paper artifact
must be documented in DESIGN.md and EXPERIMENTS.md and have a benchmark
that regenerates it; every public module must carry a docstring; and
DESIGN.md's knob table lists exactly the knob flags, each with its
consumer's default and range.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import available_experiments
from repro.serving.cli import KNOB_ARGS
from repro.serving.service import KNOB_RANGES, ONLINE_MODES, ServiceConfig
from repro.serving.state import DEFAULT_CAPACITY, MAX_CAPACITY

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestArtifactCoverage:
    def test_every_artifact_has_a_bench(self):
        bench_dir = REPO_ROOT / "benchmarks"
        bench_text = "\n".join(
            path.read_text() for path in bench_dir.glob("test_bench_*.py")
        )
        for experiment_id in available_experiments():
            assert f'"{experiment_id}"' in bench_text, (
                f"no benchmark regenerates {experiment_id}"
            )

    @pytest.mark.parametrize("doc_name", ["DESIGN.md", "EXPERIMENTS.md"])
    def test_every_artifact_documented(self, doc_name):
        text = (REPO_ROOT / doc_name).read_text().lower()
        for experiment_id in available_experiments():
            # "fig5" is written as "fig 5" in prose headings.
            spaced = experiment_id.replace("fig", "fig ").replace(
                "table", "table "
            )
            assert experiment_id in text or spaced in text, (
                f"{experiment_id} missing from {doc_name}"
            )

    def test_readme_mentions_each_example(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in readme, (
                f"{example.name} not referenced in README.md"
            )


class TestDocstrings:
    def test_every_public_module_has_a_docstring(self):
        missing = []
        package_path = Path(repro.__file__).parent
        for module_info in pkgutil.walk_packages(
            [str(package_path)], prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_model_class_documented(self):
        from repro import models

        for name in models.__all__:
            cls = getattr(models, name)
            assert (cls.__doc__ or "").strip(), f"{name} lacks a docstring"


def _design_knob_rows():
    """``flag -> (default, range)`` as DESIGN.md's §13 table lists them.

    Rows look like ``| `--flag` | `default` | `range` | consumer | ... |``.
    """
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("## 13. System knobs", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            cells = [cell.strip().strip("`") for cell in line.split("|")[1:4]]
            rows[cells[0]] = (cells[1], cells[2])
    return rows


def _consumer_knob_rows():
    """The same table, read from the classes that consume each knob."""
    rows = {}
    ranges = dict(KNOB_RANGES, capacity=(1, MAX_CAPACITY))
    for name in KNOB_ARGS:
        if name == "capacity":
            default = DEFAULT_CAPACITY
        else:
            default = getattr(ServiceConfig, name)
        if name == "online":
            span = ", ".join(ONLINE_MODES)
        else:
            span = "[{}, {}]".format(*ranges[name])
        rows["--" + name.replace("_", "-")] = (str(default), span)
    return rows


class TestKnobTable:
    def test_design_table_matches_the_registry(self):
        documented = _design_knob_rows()
        expected = _consumer_knob_rows()
        assert set(documented) == set(expected), "DESIGN.md §13 flags differ"
        for flag, row in expected.items():
            assert documented[flag] == row, flag
