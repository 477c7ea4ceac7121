"""The incremental copy process against the seed's step loop.

``repro.synth.copying.simulate_user_sequence`` keeps each catalog
item's window count and last-seen step across steps and draws from a
CDF; ``tests/synth_oracles.py`` keeps the seed loop, which rebuilds the
window and calls ``Generator.choice`` at every step. For every case the
two must return the same sequence (``np.array_equal``) and leave the
generator in the same ``bit_generator.state``.

Per-user cases: affinity on and off, resume with ``resume_min_gap``
from 0 past the span, drift, zero exponents, ``memory_span`` 1,
unsorted catalogs, zero explore weights and ``length`` 1. Dataset
cases: perfbench's ``fit_tsppr`` training-bench config, the Gowalla and
Lastfm presets at full size and at the smoke scale, and ``fig_drift``'s
drifting config. The tier-1 run draws a bounded number of hypothesis
examples; the ``tier2`` variant draws at depth.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.synth.base
from repro.experiments.common import FULL_SCALE, SMOKE_SCALE
from repro.experiments.fig_drift import drifting_split
from repro.synth.base import generate_dataset
from repro.synth.copying import simulate_user_sequence
from repro.synth.gowalla import generate_gowalla
from repro.synth.lastfm import generate_lastfm

from synth_oracles import simulate_user_sequence_reference

SHALLOW = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
DEEP = settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_same_as_oracle(seed: int, **kwargs) -> np.ndarray:
    """Run both loops on twin generators; compare output and final state."""
    shipped_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    shipped = simulate_user_sequence(random_state=shipped_rng, **kwargs)
    expected = simulate_user_sequence_reference(random_state=oracle_rng, **kwargs)
    assert shipped.dtype == expected.dtype == np.int64
    assert np.array_equal(shipped, expected)
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state
    return shipped


def base_case(**overrides) -> dict:
    rng = np.random.default_rng(17)
    case = dict(
        length=240,
        catalog=rng.permutation(500)[:30],  # unsorted
        catalog_weights=rng.random(30),
        p_explore=0.3,
        memory_span=40,
        frequency_exponent=1.5,
        recency_exponent=1.3,
    )
    case.update(overrides)
    return case


CASES = {
    "plain": {},
    "affinity": dict(affinity_strength=2.0),
    "resume-gap-0": dict(resume_probability=0.5, resume_min_gap=0),
    "resume-gap-10": dict(resume_probability=0.5, resume_min_gap=10),
    "resume-gap-span": dict(resume_probability=0.5, resume_min_gap=40),
    "resume-always-affinity": dict(
        resume_probability=1.0, resume_min_gap=3, affinity_strength=0.9
    ),
    "drift": dict(affinity_strength=1.0, drift_interval=15, drift_fraction=0.6),
    "drift-all": dict(affinity_strength=0.5, drift_interval=2, drift_fraction=1.0),
    "exponents-zero": dict(frequency_exponent=0.0, recency_exponent=0.0),
    "integer-exponents": dict(frequency_exponent=2, recency_exponent=1),
    "negative-recency": dict(recency_exponent=-0.7),
    "span-1": dict(memory_span=1, affinity_strength=0.5),
    "span-past-length": dict(memory_span=1000),
    "length-1": dict(length=1),
    "repeat-only": dict(p_explore=0.0, affinity_strength=0.5),
    "explore-only": dict(p_explore=1.0),
    "zero-explore-weights": dict(
        catalog_weights=np.r_[np.zeros(20), np.ones(10)], affinity_strength=1.0
    ),
    "sorted-catalog": dict(catalog=np.arange(30) * 3),
    "one-item": dict(catalog=np.array([42]), catalog_weights=np.array([0.5])),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2**31 + 5])
def test_named_case_matches_oracle(name, seed):
    assert_same_as_oracle(seed, **base_case(**CASES[name]))


@st.composite
def copy_cases(draw):
    catalog = draw(
        st.lists(st.integers(0, 5_000), min_size=1, max_size=30, unique=True)
    )
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0])
            | st.floats(1e-6, 50.0, allow_nan=False),
            min_size=len(catalog),
            max_size=len(catalog),
        )
    )
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    memory_span = draw(st.integers(1, 50))
    resumes = draw(st.booleans())
    affinity_strength = draw(st.sampled_from([0.0, 0.0, 0.5, 2.0]))
    return dict(
        length=draw(st.integers(1, 250)),
        catalog=np.array(catalog),
        catalog_weights=np.array(weights),
        p_explore=draw(st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0)),
        memory_span=memory_span,
        frequency_exponent=draw(st.sampled_from([0.0, 0.6, 1.5]) | st.floats(0.0, 3.0)),
        recency_exponent=draw(st.sampled_from([0.0, 0.15, 1.3]) | st.floats(-1.0, 3.0)),
        affinity_strength=affinity_strength,
        resume_probability=draw(st.sampled_from([0.05, 0.5, 1.0])) if resumes else 0.0,
        resume_min_gap=draw(st.integers(0, memory_span + 2)),
        drift_interval=draw(st.sampled_from([0, 0, 3, 25])),
        drift_fraction=draw(st.sampled_from([0.1, 0.6, 1.0])),
    )


@SHALLOW
@given(case=copy_cases(), seed=st.integers(0, 2**63 - 1))
def test_random_case_matches_oracle(case, seed):
    assert_same_as_oracle(seed, **case)


@pytest.mark.tier2
@DEEP
@given(case=copy_cases(), seed=st.integers(0, 2**63 - 1))
def test_random_case_matches_oracle_deep(case, seed):
    assert_same_as_oracle(seed, **case)


# ----------------------------------------------------------------------
# Whole datasets
# ----------------------------------------------------------------------
def shipped_and_oracle(make):
    """``make()`` once as shipped, once with the seed loop swapped in."""
    shipped = make()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.synth.base,
            "simulate_user_sequence",
            simulate_user_sequence_reference,
        )
        expected = make()
    return shipped, expected


def assert_same_datasets(shipped, expected):
    assert shipped.n_users == expected.n_users
    assert shipped.n_consumptions() == expected.n_consumptions()
    for user in range(shipped.n_users):
        assert np.array_equal(
            shipped.sequence(user).items, expected.sequence(user).items
        ), user


def perfbench_fit_tsppr():
    """perfbench's ``fit_tsppr`` module (its imports are perfbench-local)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("fit_tsppr"), importlib.import_module("common")


def test_training_bench_dataset_matches_oracle():
    fit_tsppr, common = perfbench_fit_tsppr()
    assert_same_datasets(
        *shipped_and_oracle(lambda: generate_dataset(fit_tsppr.SYNTH, common.DATA_SEED))
    )


@pytest.mark.parametrize("generate", [generate_gowalla, generate_lastfm])
@pytest.mark.parametrize("scale", [FULL_SCALE, SMOKE_SCALE], ids=lambda s: s.name)
def test_preset_matches_oracle(generate, scale):
    assert_same_datasets(
        *shipped_and_oracle(
            lambda: generate(
                random_state=scale.seed,
                user_factor=scale.user_factor,
                length_factor=scale.length_factor,
            )
        )
    )


@pytest.mark.parametrize("scale", [FULL_SCALE, SMOKE_SCALE], ids=lambda s: s.name)
def test_drifting_split_matches_oracle(scale):
    shipped, expected = shipped_and_oracle(lambda: drifting_split(scale))
    assert shipped.n_users == expected.n_users
    for user in range(shipped.n_users):
        assert shipped.train_boundary(user) == expected.train_boundary(user)
        assert np.array_equal(
            shipped.full_sequence(user).items, expected.full_sequence(user).items
        ), user
