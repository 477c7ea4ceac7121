"""Per-user temporal train/test split (Section 5.1 of the paper).

For each user, the first ``train_fraction`` (default 70%) of the
consumption sequence is the training prefix and the remainder is the
test suffix. Users whose training prefix would be shorter than
``min_train_length`` (the window capacity ``|W| = 100`` in the paper)
are dropped before splitting.

The test side is evaluated *with history*: recommending at test position
``t`` needs the window ending just before ``t``, which may reach back
into the training prefix. :class:`SplitDataset` therefore keeps the full
sequences along with the per-user split boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import SplitConfig
from repro.data.dataset import Dataset
from repro.data.sequence import ConsumptionSequence
from repro.exceptions import SplitError


@dataclass(frozen=True)
class SplitDataset:
    """A dataset with per-user temporal split boundaries.

    Attributes
    ----------
    dataset:
        The filtered dataset (users failing the length filter removed).
    boundaries:
        ``boundaries[u]`` is the first *test* position of user ``u``;
        positions ``< boundaries[u]`` form the training prefix.
    """

    dataset: Dataset
    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != self.dataset.n_users:
            raise SplitError(
                f"{len(self.boundaries)} boundaries for "
                f"{self.dataset.n_users} users"
            )
        for user, boundary in enumerate(self.boundaries):
            length = len(self.dataset.sequence(user))
            if not 0 < boundary <= length:
                raise SplitError(
                    f"user {user}: boundary {boundary} outside (0, {length}]"
                )

    @property
    def n_users(self) -> int:
        return self.dataset.n_users

    @property
    def n_items(self) -> int:
        return self.dataset.n_items

    def full_sequence(self, user: int) -> ConsumptionSequence:
        """The complete (train + test) sequence of ``user``."""
        return self.dataset.sequence(user)

    def train_boundary(self, user: int) -> int:
        """First test position of ``user``."""
        return self.boundaries[user]

    def train_sequence(self, user: int) -> ConsumptionSequence:
        """The training prefix of ``user``."""
        return self.dataset.sequence(user).prefix(self.boundaries[user])

    def test_sequence(self, user: int) -> ConsumptionSequence:
        """The held-out test suffix of ``user``."""
        return self.dataset.sequence(user).suffix(self.boundaries[user])

    def train_dataset(self, name: Optional[str] = None) -> Dataset:
        """All training prefixes as a standalone dataset.

        Static features (item quality, reconsumption ratio) and baseline
        statistics must be computed from this view only, never from the
        full sequences.
        """
        sequences = [
            self.train_sequence(user) for user in range(self.dataset.n_users)
        ]
        return Dataset(
            sequences,
            self.dataset.item_vocab,
            self.dataset.user_vocab,
            name=name or f"{self.dataset.name}-train",
        )

    def history_store(
        self, base: str = "train", directory: Optional[str] = None
    ):
        """The split's histories packed into a columnar arena store.

        ``base="train"`` packs each user's training prefix — the serving
        topology, where the test suffix arrives later as live events.
        ``base="full"`` packs the complete sequences — the offline
        evaluation topology, where the walk reads the whole history.
        With ``directory`` the columns are saved there and memory-mapped
        (see :func:`repro.store.make_history_store`).
        """
        from repro.store import make_history_store

        if base == "train":
            histories = (
                self.dataset.sequence(user).items[: self.boundaries[user]]
                for user in range(self.dataset.n_users)
            )
        elif base == "full":
            histories = (
                self.dataset.sequence(user).items
                for user in range(self.dataset.n_users)
            )
        else:
            raise SplitError(
                f"base must be 'train' or 'full', got {base!r}"
            )
        return make_history_store(histories, directory=directory)

    def n_train_consumptions(self) -> int:
        return sum(self.boundaries)

    def n_test_consumptions(self) -> int:
        return self.dataset.n_consumptions() - self.n_train_consumptions()


def temporal_split(
    dataset: Dataset,
    config: Optional[SplitConfig] = None,
) -> SplitDataset:
    """Apply the paper's filtered 70/30 per-user temporal split.

    Users with ``floor(train_fraction · |S_u|) < min_train_length`` are
    removed; remaining users are re-indexed densely.

    Raises
    ------
    SplitError
        If no user survives the length filter.
    """
    config = config or SplitConfig()
    kept_users: List[int] = []
    for user in range(dataset.n_users):
        train_length = int(len(dataset.sequence(user)) * config.train_fraction)
        if train_length >= config.min_train_length:
            kept_users.append(user)
    if not kept_users:
        raise SplitError(
            f"no user satisfies {config.train_fraction:.0%} · |S_u| >= "
            f"{config.min_train_length} in dataset {dataset.name!r}"
        )
    filtered = dataset.subset_users(kept_users)
    boundaries = tuple(
        int(len(filtered.sequence(user)) * config.train_fraction)
        for user in range(filtered.n_users)
    )
    return SplitDataset(dataset=filtered, boundaries=boundaries)
