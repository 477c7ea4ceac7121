"""Dataset container: all users' consumption sequences plus vocabularies.

A :class:`Dataset` is the object every other subsystem consumes. It owns

* one :class:`~repro.data.sequence.ConsumptionSequence` per user,
* the user and item :class:`~repro.data.vocab.Vocabulary` objects,
* cheap global statistics (item frequencies; Table 2-style summaries).

Item frequency over a dataset is the basis of the *item quality* feature
(Eq 16-17) and of the Pop baseline, so it is computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.data.sequence import ConsumptionSequence
from repro.data.vocab import Vocabulary
from repro.exceptions import DataError


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics in the shape of the paper's Table 2."""

    name: str
    n_users: int
    n_items: int
    n_consumptions: int
    n_distinct_consumed_items: int
    mean_sequence_length: float
    repeat_fraction: float

    def as_row(self) -> Dict[str, object]:
        """Dict form for table rendering."""
        return {
            "Data Set": self.name,
            "Users": self.n_users,
            "Items": self.n_items,
            "Consumption": self.n_consumptions,
            "Distinct consumed": self.n_distinct_consumed_items,
            "Mean |S_u|": round(self.mean_sequence_length, 1),
            "Repeat fraction": round(self.repeat_fraction, 4),
        }


class Dataset:
    """All consumption sequences of one data source.

    Parameters
    ----------
    sequences:
        One sequence per user; ``sequences[i].user`` must equal ``i``.
    item_vocab:
        Item vocabulary. Its size defines the dense item-index space;
        it may be larger than the set of items actually consumed (as in
        the paper, where the item universe dwarfs any user's history).
    user_vocab:
        Optional user vocabulary; defaults to identity ids.
    name:
        Human-readable label used in reports ("Gowalla-like", ...).
    """

    def __init__(
        self,
        sequences: Sequence[ConsumptionSequence],
        item_vocab: Vocabulary,
        user_vocab: Optional[Vocabulary] = None,
        name: str = "dataset",
    ) -> None:
        sequences = list(sequences)
        for expected_user, sequence in enumerate(sequences):
            if sequence.user != expected_user:
                raise DataError(
                    f"sequence at position {expected_user} belongs to user "
                    f"{sequence.user}; sequences must be dense and ordered"
                )
        n_items = len(item_vocab)
        for sequence in sequences:
            if len(sequence) and int(sequence.items.max()) >= n_items:
                raise DataError(
                    f"user {sequence.user} consumed item index "
                    f"{int(sequence.items.max())} outside vocabulary of size {n_items}"
                )
        if user_vocab is None:
            user_vocab = Vocabulary.identity(len(sequences))
        elif len(user_vocab) != len(sequences):
            raise DataError(
                f"user vocabulary size {len(user_vocab)} does not match "
                f"{len(sequences)} sequences"
            )
        self.name = name
        self._sequences: List[ConsumptionSequence] = sequences
        self.item_vocab = item_vocab
        self.user_vocab = user_vocab
        self._item_frequencies: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self._sequences)

    @property
    def n_items(self) -> int:
        return len(self.item_vocab)

    def history_store(self, directory: Optional[str] = None):
        """This dataset's histories in a columnar arena store.

        Every sequence is packed into an
        :class:`~repro.store.arena.ArenaHistoryStore` whose per-user
        reads are zero-copy views; with ``directory`` the columns are
        saved there and memory-mapped.
        """
        from repro.store import make_history_store

        return make_history_store(
            (sequence.items for sequence in self._sequences),
            directory=directory,
        )

    def sequence(self, user: int) -> ConsumptionSequence:
        """The consumption sequence of dense user index ``user``."""
        if not 0 <= user < len(self._sequences):
            raise DataError(
                f"user {user} out of range for dataset with {self.n_users} users"
            )
        return self._sequences[user]

    def __len__(self) -> int:
        return self.n_users

    def __iter__(self) -> Iterator[ConsumptionSequence]:
        return iter(self._sequences)

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, consumptions={self.n_consumptions()})"
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def n_consumptions(self) -> int:
        """Total number of consumption events across all users."""
        return sum(len(sequence) for sequence in self._sequences)

    def item_frequencies(self) -> np.ndarray:
        """Per-item consumption counts ``n_v`` over the whole dataset.

        Cached; the returned array is read-only.
        """
        if self._item_frequencies is None:
            counts = np.zeros(self.n_items, dtype=np.int64)
            for sequence in self._sequences:
                if len(sequence):
                    np.add.at(counts, sequence.items, 1)
            counts.setflags(write=False)
            self._item_frequencies = counts
        return self._item_frequencies

    def stats(self, window_size: int = 100) -> DatasetStats:
        """Table 2-style summary, plus the repeat fraction.

        The repeat fraction counts consumptions whose item already
        appears in the preceding ``window_size``-capacity window —
        the paper's notion of a repeat consumption.
        """
        n_consumptions = self.n_consumptions()
        distinct: set = set()
        repeats = 0
        positions = 0
        for sequence in self._sequences:
            items = sequence.items.tolist()
            distinct.update(items)
            for t, item in enumerate(items):
                if t == 0:
                    continue
                start = max(0, t - window_size)
                if item in set(items[start:t]):
                    repeats += 1
                positions += 1
        mean_length = n_consumptions / self.n_users if self.n_users else 0.0
        repeat_fraction = repeats / positions if positions else 0.0
        return DatasetStats(
            name=self.name,
            n_users=self.n_users,
            n_items=self.n_items,
            n_consumptions=n_consumptions,
            n_distinct_consumed_items=len(distinct),
            mean_sequence_length=mean_length,
            repeat_fraction=repeat_fraction,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_user_items(
        cls,
        user_items: Iterable[Sequence[int]],
        n_items: Optional[int] = None,
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from per-user item-index lists.

        ``n_items`` defaults to one past the largest index observed.
        """
        sequences = [
            ConsumptionSequence(user, items)
            for user, items in enumerate(user_items)
        ]
        if n_items is None:
            max_seen = -1
            for sequence in sequences:
                if len(sequence):
                    max_seen = max(max_seen, int(sequence.items.max()))
            n_items = max_seen + 1
        return cls(sequences, Vocabulary.identity(n_items), name=name)

    def subset_users(self, users: Sequence[int], name: Optional[str] = None) -> "Dataset":
        """A new dataset keeping only ``users`` (re-indexed densely).

        The item vocabulary is preserved so feature/frequency arrays stay
        aligned with the parent dataset.
        """
        kept = []
        user_ids = []
        for new_index, user in enumerate(users):
            old = self.sequence(user)
            kept.append(ConsumptionSequence(new_index, old.items))
            user_ids.append(self.user_vocab.id_of(user))
        return Dataset(
            kept,
            self.item_vocab,
            Vocabulary(user_ids),
            name=name or self.name,
        )
