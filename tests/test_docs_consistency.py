"""Consistency checks between code, docs, and the benchmark suite.

These guard the reproduction contract: every registered paper artifact
must be documented in DESIGN.md and EXPERIMENTS.md and have a benchmark
that regenerates it; every public module must carry a docstring; and
DESIGN.md's knob table lists exactly the registered knobs.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import available_experiments
from repro.tuning.defaults import KNOBS

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
    """``(subsystem, knob)`` pairs the DESIGN.md knob table declares.

    Rows look like ``| `name` | serving, cluster | ... |``; the table is
    the one under the "Knob registry" heading of §13.
    """
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("### Knob registry", 1)[1].split("\n#", 1)[0]
    pairs = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue
        for subsystem in cells[1].split(","):
            pairs.add((subsystem.strip(), cells[0].strip("`")))
    return pairs


class TestKnobTable:
    def test_design_table_matches_the_registry(self):
        registered = {
            (subsystem, name)
            for subsystem, knobs in KNOBS.items()
            for name in knobs
        }
        documented = _design_knob_rows()
        assert registered - documented == set(), "knobs missing from DESIGN.md"
        assert documented - registered == set(), "DESIGN.md rows name no knob"
