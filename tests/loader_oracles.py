"""The seed's event grouping, kept as a test oracle.

:func:`repro.data.loaders.load_event_log` reads clean logs with a
columnar tokenizer and groups every log with one ``lexsort`` core. This
module keeps the seed's version: each event becomes a
``(timestamp, arrival, item)`` tuple in a per-user dict, each user's
tuples are sorted, and items join the vocabulary as the sorted rows are
walked. :func:`load_event_log_reference` runs it over the row path
(:func:`repro.data.loaders.read_events`, one ``csv.reader`` row at a
time), with the signature of the function it checks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.data.dataset import Dataset
from repro.data.loaders import (
    DEFAULT_ERROR_BUDGET,
    EventRecord,
    LoaderReport,
    read_events,
)
from repro.data.sequence import ConsumptionSequence
from repro.data.vocab import Vocabulary


def events_to_dataset_reference(
    events: Iterable[EventRecord],
    name: str = "dataset",
    min_duration: Optional[float] = None,
) -> Dataset:
    """Group by user in a dict, sort ``(ts, arrival, item)`` tuples."""
    per_user: Dict[str, List[Tuple[float, int, str]]] = {}
    arrival = 0
    for event in events:
        if (
            min_duration is not None
            and event.duration is not None
            and event.duration < min_duration
        ):
            continue
        per_user.setdefault(event.user, []).append(
            (event.timestamp, arrival, event.item)
        )
        arrival += 1

    user_vocab = Vocabulary(sorted(per_user))
    item_vocab = Vocabulary()
    sequences: List[ConsumptionSequence] = []
    for user_index, user_id in enumerate(user_vocab):
        rows = sorted(per_user[user_id])
        items = [item_vocab.add(item_id) for _, _, item_id in rows]
        sequences.append(ConsumptionSequence(user_index, items))
    return Dataset(sequences, item_vocab, user_vocab, name=name)


def load_event_log_reference(
    path: Union[str, Path],
    name: Optional[str] = None,
    delimiter: str = "\t",
    has_header: bool = False,
    min_duration: Optional[float] = None,
    on_error: str = "raise",
    error_budget: float = DEFAULT_ERROR_BUDGET,
    report: Optional[LoaderReport] = None,
) -> Dataset:
    """The row path into the tuple-sort grouping."""
    path = Path(path)
    return events_to_dataset_reference(
        read_events(
            path,
            delimiter=delimiter,
            has_header=has_header,
            on_error=on_error,
            error_budget=error_budget,
            report=report,
        ),
        name=name or path.stem,
        min_duration=min_duration,
    )
