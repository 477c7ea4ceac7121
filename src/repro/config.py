"""Configuration dataclasses for models, data, and experiments.

Defaults mirror Table 4 of the paper ("Default settings of parameters"):

=========  =========  ========
Parameter  Gowalla    Lastfm
=========  =========  ========
λ          0.01       0.001
γ          0.05       0.1
K          40         40
S          10         10
Ω          10         10
=========  =========  ========

plus the global protocol constants ``|W| = 100`` (time-window capacity) and
the 70/30 per-user temporal split of Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

#: Time-window capacity used throughout the paper (Section 5.1).
DEFAULT_WINDOW_SIZE = 100

#: Minimum gap Ω: items consumed within the last Ω steps are neither
#: recommended nor counted as evaluation targets (Section 5.1).
DEFAULT_MIN_GAP = 10

#: Fraction of each user's sequence used for training (Section 5.1).
DEFAULT_TRAIN_FRACTION = 0.7

#: Names of the four generic behavioural features, in the order used by
#: the paper's feature vector f = {q̄_v, r_v, c_vt, m_vt}.
FEATURE_NAMES: Tuple[str, ...] = (
    "item_quality",
    "item_reconsumption_ratio",
    "recency",
    "dynamic_familiarity",
)


@dataclass(frozen=True)
class WindowConfig:
    """Parameters of the RRC window protocol.

    Attributes
    ----------
    window_size:
        ``|W|`` — how many trailing consumptions form the candidate window.
    min_gap:
        ``Ω`` — items consumed in the last ``min_gap`` steps are excluded
        from candidates and from evaluation targets (``0 < Ω < |W|``).
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    min_gap: int = DEFAULT_MIN_GAP

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError(f"window_size must be positive, got {self.window_size}")
        if not 0 < self.min_gap < self.window_size:
            raise ValueError(
                f"min_gap must satisfy 0 < min_gap < window_size, got "
                f"min_gap={self.min_gap}, window_size={self.window_size}"
            )


@dataclass(frozen=True)
class TSPPRConfig:
    """Hyper-parameters of the TS-PPR model (Section 4, Table 4).

    Attributes
    ----------
    n_factors:
        ``K`` — dimension of the latent preference space.
    n_negative_samples:
        ``S`` — pre-sampled negatives per positive repeat consumption.
    lambda_mapping:
        ``λ`` — L2 penalty on the per-user mappings ``A_u``.
    gamma_latent:
        ``γ`` — L2 penalty on the latent matrices ``U`` and ``V``.
    learning_rate:
        ``α`` — SGD step size (Algorithm 1).
    convergence_tol:
        ``Δr̃`` threshold: training stops when the small-batch mean margin
        changes by at most this much between checks (Section 5.6.1). The
        paper reports ``1e-3`` on million-event datasets; at this
        reproduction's laptop scale the small batch is far noisier, so
        the default is tightened to ``3e-4`` to reach the same
        training depth.
    max_epochs:
        Hard cap on the number of SGD updates (one update per "epoch" in
        the paper's terminology, i.e. per sampled quadruple).
    batch_fraction:
        Fraction of the training set used both as the convergence-check
        small batch and as the spacing between checks (``n = m = |D|/10``
        in the paper means ``batch_fraction = 0.1``).
    recency_kind:
        Which recency feature to use: ``"hyperbolic"`` (Eq 19, the paper's
        choice) or ``"exponential"`` (Eq 20).
    feature_names:
        Which behavioural features compose ``f_uvt``; ablations (Fig 7)
        pass a subset of :data:`FEATURE_NAMES`.
    use_static_term:
        Whether the static ``uᵀv`` term is included (ablation hook; the
        paper always keeps it).
    share_mapping:
        If ``True``, learn a single mapping ``A`` shared by all users
        instead of per-user ``A_u`` (ablation hook).
    init_scale_latent / init_scale_mapping:
        Standard deviations of the zero-mean Gaussian initializations for
        ``U``, ``V`` and for ``A_u`` (Algorithm 1, line 1).
    seed:
        RNG seed for initialization and quadruple scheduling.
    """

    n_factors: int = 40
    n_negative_samples: int = 10
    lambda_mapping: float = 0.01
    gamma_latent: float = 0.05
    learning_rate: float = 0.05
    convergence_tol: float = 3e-4
    max_epochs: int = 400_000
    batch_fraction: float = 0.1
    recency_kind: str = "hyperbolic"
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    use_static_term: bool = True
    share_mapping: bool = False
    init_scale_latent: float = 0.1
    init_scale_mapping: float = 0.1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_factors <= 0:
            raise ValueError(f"n_factors must be positive, got {self.n_factors}")
        if self.n_negative_samples <= 0:
            raise ValueError(
                f"n_negative_samples must be positive, got {self.n_negative_samples}"
            )
        if self.lambda_mapping < 0 or self.gamma_latent < 0:
            raise ValueError("regularization parameters must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.convergence_tol <= 0:
            raise ValueError(
                f"convergence_tol must be positive, got {self.convergence_tol}"
            )
        if self.max_epochs <= 0:
            raise ValueError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.init_scale_latent < 0 or self.init_scale_mapping < 0:
            raise ValueError("initialization scales must be non-negative")
        if not 0 < self.batch_fraction <= 1:
            raise ValueError(
                f"batch_fraction must lie in (0, 1], got {self.batch_fraction}"
            )
        if self.recency_kind not in ("hyperbolic", "exponential"):
            raise ValueError(
                f"recency_kind must be 'hyperbolic' or 'exponential', "
                f"got {self.recency_kind!r}"
            )
        if not self.feature_names:
            raise ValueError("feature_names must contain at least one feature")
        unknown = set(self.feature_names) - set(FEATURE_NAMES)
        if unknown:
            # Custom features are allowed when registered (the paper's
            # "domain-specific extensions"); resolve lazily to avoid a
            # circular import at module load.
            from repro.features.base import available_features

            unregistered = unknown - set(available_features())
            if unregistered:
                raise ValueError(
                    f"unknown feature names: {sorted(unregistered)}"
                )

    @property
    def n_features(self) -> int:
        """``F`` — dimension of the observable behavioural feature space."""
        return len(self.feature_names)

    def with_overrides(self, **changes) -> "TSPPRConfig":
        """Return a copy with ``changes`` applied (sweep convenience)."""
        return replace(self, **changes)


def gowalla_default_config(**overrides) -> TSPPRConfig:
    """Table 4 defaults for the Gowalla(-like) dataset."""
    config = TSPPRConfig(lambda_mapping=0.01, gamma_latent=0.05)
    return config.with_overrides(**overrides) if overrides else config


def lastfm_default_config(**overrides) -> TSPPRConfig:
    """Table 4 defaults for the Lastfm(-like) dataset."""
    config = TSPPRConfig(lambda_mapping=0.001, gamma_latent=0.1)
    return config.with_overrides(**overrides) if overrides else config


@dataclass(frozen=True)
class SplitConfig:
    """Per-user temporal split protocol (Section 5.1).

    Users whose training share is shorter than ``min_train_length`` are
    dropped entirely (the paper keeps users with ``0.7 · |S_u| ≥ 100``).
    """

    train_fraction: float = DEFAULT_TRAIN_FRACTION
    min_train_length: int = DEFAULT_WINDOW_SIZE

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.min_train_length < 1:
            raise ValueError(
                f"min_train_length must be >= 1, got {self.min_train_length}"
            )


@dataclass(frozen=True)
class EvaluationConfig:
    """Protocol knobs for the accuracy evaluation (Section 5.3)."""

    top_ns: Tuple[int, ...] = (1, 5, 10)
    window: WindowConfig = field(default_factory=WindowConfig)

    def __post_init__(self) -> None:
        if not self.top_ns:
            raise ValueError("top_ns must not be empty")
        if any(n <= 0 for n in self.top_ns):
            raise ValueError(f"all top_ns must be positive, got {self.top_ns}")


def normalize_top_ns(top_ns: Sequence[int]) -> Tuple[int, ...]:
    """Validate and canonicalize a list of cut-offs (sorted, unique)."""
    values = sorted({int(n) for n in top_ns})
    if not values:
        raise ValueError("top_ns must not be empty")
    if values[0] <= 0:
        raise ValueError(f"top_ns must all be positive, got {top_ns}")
    return tuple(values)
