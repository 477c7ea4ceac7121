"""Event-log readers and writers.

Real deployments of the paper's pipeline start from flat event logs:

* Gowalla check-ins: ``user<TAB>timestamp<TAB>lat<TAB>lon<TAB>location``
* Last.fm listens:  ``user<TAB>timestamp<TAB>artist<TAB>track`` with an
  optional play-duration column; listens shorter than 30 seconds are
  discarded as dislikes (Section 5.1).

This module reads such logs into :class:`~repro.data.dataset.Dataset`
objects, sorting each user's events by timestamp and mapping raw ids to
dense indices. A generic three-column format
(``user<SEP>item<SEP>timestamp[<SEP>duration]``) covers both sources;
the synthetic generators write the same format so the loader path is
exercised end to end.

Two readers, one result. :func:`load_event_log` first tries a columnar
tokenizer: it reads the file in chunks of whole lines, splits each
chunk once, takes the columns by stride, interns ids to integer codes
and parses stamps with Python's ``float``. It only accepts a chunk it
can prove ``csv.reader`` would split the same way: ASCII text, no quote
character, no NUL, no whitespace but the delimiter and ``\\n`` /
``\\r\\n`` line ends (so stripping a cell changes nothing), and every
non-blank row with exactly 3, or exactly 4, non-empty cells. Any other
input -- and any row with an unparsable or non-finite number -- sends
the whole load down the row path (:func:`read_events`, one
``csv.reader`` row and one :class:`EventRecord` at a time), which alone
produces the line-numbered errors and the quarantine report below. Both
paths feed the same grouping core, so they build identical datasets.

Dirty-input policy (``on_error``): real logs contain garbage rows, and
aborting a million-row load on row one is production-hostile. Readers
accept ``on_error="raise"`` (default — first malformed row raises
:class:`~repro.exceptions.DataError` with its line number) or
``on_error="skip"`` — malformed rows are quarantined with their line
numbers and reasons into a :class:`LoaderReport` and the stream
continues, subject to an *error budget*: if more than
``error_budget`` (a fraction, default 5%) of the data rows are bad,
the load aborts with a :class:`~repro.exceptions.DataError` anyway,
because at that point the log itself is suspect. Exactly-at-budget
loads succeed. A row is malformed when it has fewer than 3 cells, an
empty user or item id, or a timestamp or duration that is not a finite
number (a NaN stamp would otherwise reorder the user's other events).
Writers go through the atomic temp-file + rename path so a crash
mid-write never leaves a truncated log.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from repro.data.dataset import Dataset
from repro.data.sequence import ConsumptionSequence
from repro.data.vocab import Vocabulary
from repro.exceptions import DataError
from repro.resilience.atomic import atomic_writer

#: Play duration (seconds) below which a listen counts as a dislike.
MIN_LISTEN_SECONDS = 30.0

#: Default ceiling on the fraction of malformed rows tolerated in
#: ``on_error="skip"`` mode before the whole load is aborted.
DEFAULT_ERROR_BUDGET = 0.05

#: Characters the columnar tokenizer reads at a time; each chunk is cut
#: back to its last newline, so rows never straddle two chunks.
_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True)
class EventRecord:
    """One implicit-feedback event from a raw log."""

    user: str
    item: str
    timestamp: float
    duration: Optional[float] = None


@dataclass(frozen=True)
class SkippedRow:
    """One quarantined malformed row."""

    line_number: int
    reason: str


@dataclass
class LoaderReport:
    """Quarantine report filled in by ``read_events(on_error="skip")``.

    Attributes
    ----------
    path:
        The log file the report describes.
    n_rows:
        Data rows seen (parsed + skipped; blank lines and the header
        don't count).
    skipped:
        The quarantined rows, each with its line number and reason —
        the triage artifact that used to be a crash.
    """

    path: Optional[str] = None
    n_rows: int = 0
    skipped: List[SkippedRow] = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)

    @property
    def error_fraction(self) -> float:
        """Fraction of data rows quarantined (0.0 on an empty log)."""
        return self.n_skipped / self.n_rows if self.n_rows else 0.0

    def render(self) -> str:
        """Human-readable quarantine summary."""
        header = (
            f"{self.path or '<log>'}: {self.n_skipped}/{self.n_rows} "
            f"rows quarantined"
        )
        lines = [header]
        for row in self.skipped:
            lines.append(f"  line {row.line_number}: {row.reason}")
        return "\n".join(lines)


def _check_policy(on_error: str, error_budget: float) -> None:
    if on_error not in ("raise", "skip"):
        raise ValueError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    if not 0.0 <= error_budget <= 1.0:
        raise ValueError(
            f"error_budget must lie in [0, 1], got {error_budget}"
        )


def _parse_row(
    path: Path, line_number: int, row: List[str]
) -> EventRecord:
    """One data row -> :class:`EventRecord`, or :class:`DataError`."""
    if len(row) < 3:
        raise DataError(
            f"{path}:{line_number}: expected at least 3 columns "
            f"(user, item, timestamp), got {len(row)}"
        )
    user, item, raw_timestamp = row[0].strip(), row[1].strip(), row[2].strip()
    if not user or not item:
        raise DataError(f"{path}:{line_number}: empty user or item id")
    try:
        timestamp = float(raw_timestamp)
    except ValueError as exc:
        raise DataError(
            f"{path}:{line_number}: bad timestamp {raw_timestamp!r}"
        ) from exc
    if not math.isfinite(timestamp):
        raise DataError(
            f"{path}:{line_number}: non-finite timestamp {raw_timestamp!r}"
        )
    duration: Optional[float] = None
    if len(row) >= 4 and row[3].strip():
        try:
            duration = float(row[3])
        except ValueError as exc:
            raise DataError(
                f"{path}:{line_number}: bad duration {row[3]!r}"
            ) from exc
        if not math.isfinite(duration):
            raise DataError(
                f"{path}:{line_number}: non-finite duration {row[3]!r}"
            )
    return EventRecord(user=user, item=item, timestamp=timestamp, duration=duration)


def read_events(
    path: Union[str, Path],
    delimiter: str = "\t",
    has_header: bool = False,
    on_error: str = "raise",
    error_budget: float = DEFAULT_ERROR_BUDGET,
    report: Optional[LoaderReport] = None,
) -> Iterator[EventRecord]:
    """Stream :class:`EventRecord` objects from a delimited log file.

    Expected columns: ``user, item, timestamp[, duration]``. Blank lines
    are skipped; with ``has_header`` the first non-blank record is the
    header. ``on_error`` and ``error_budget`` are checked when called,
    before the first row is read.

    Parameters
    ----------
    on_error:
        ``"raise"`` (default): the first malformed row raises
        :class:`~repro.exceptions.DataError` with its line number.
        ``"skip"``: malformed rows are quarantined into ``report`` and
        skipped; when the stream ends, a :class:`DataError` is raised
        if *more than* ``error_budget`` of the data rows were bad.
    error_budget:
        Tolerated malformed-row fraction in ``"skip"`` mode; exactly at
        the budget passes, one row over aborts.
    report:
        Optional caller-owned :class:`LoaderReport` to fill in (one is
        created internally otherwise, so the budget is still enforced).
    """
    _check_policy(on_error, error_budget)
    return _read_rows(
        Path(path), delimiter, has_header, on_error, error_budget, report
    )


def _read_rows(
    path: Path,
    delimiter: str,
    has_header: bool,
    on_error: str,
    error_budget: float,
    report: Optional[LoaderReport],
) -> Iterator[EventRecord]:
    if report is None:
        report = LoaderReport()
    report.path = str(path)
    header_pending = has_header
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        next_line = 1
        for row in reader:
            # A quoted cell may span lines: number each record by the
            # physical line it starts on.
            line_number, next_line = next_line, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            if header_pending:  # the first non-blank record
                header_pending = False
                continue
            report.n_rows += 1
            try:
                event = _parse_row(path, line_number, row)
            except DataError as exc:
                if on_error == "raise":
                    raise
                report.skipped.append(
                    SkippedRow(line_number=line_number, reason=str(exc))
                )
                continue
            yield event
    if report.n_rows and report.error_fraction > error_budget:
        first = report.skipped[0]
        raise DataError(
            f"{path}: {report.n_skipped}/{report.n_rows} rows malformed, "
            f"over the {error_budget:.1%} error budget "
            f"(first bad row: line {first.line_number}: {first.reason})"
        )


def write_events(
    path: Union[str, Path],
    events: Iterable[EventRecord],
    delimiter: str = "\t",
) -> int:
    """Write events to a delimited log file; returns the row count.

    The write is atomic (temp file + fsync + rename): a crash mid-write
    leaves any pre-existing log untouched instead of truncated.
    """
    path = Path(path)
    count = 0
    with atomic_writer(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        for event in events:
            row: List[object] = [event.user, event.item, repr(float(event.timestamp))]
            if event.duration is not None:
                row.append(repr(float(event.duration)))
            writer.writerow(row)
            count += 1
    return count


# ----------------------------------------------------------------------
# The grouping core shared by both readers
# ----------------------------------------------------------------------


class _Codes(dict):
    """Raw id -> integer code; an unseen id takes the next code."""

    def __missing__(self, raw_id: Hashable) -> int:
        code = self[raw_id] = len(self)
        return code

    def encode(self, ids: Sequence[Hashable]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, ids), np.int64, len(ids))


def _group(
    user_codes: np.ndarray,
    user_ids: List[Hashable],
    item_codes: np.ndarray,
    item_ids: List[Hashable],
    timestamps: np.ndarray,
    name: str,
) -> Dataset:
    """Events in arrival order -> :class:`Dataset`.

    ``user_codes``/``item_codes`` index ``user_ids``/``item_ids``; ids
    without an event are dropped. The user vocabulary is the sorted raw
    user ids; each user's events are ordered by timestamp, and because
    ``np.lexsort`` is stable, ties keep their arrival order. Items are
    numbered by first appearance in that order. Every sequence is a
    slice of one item array.
    """
    finite = np.isfinite(timestamps)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DataError(
            f"non-finite timestamp {float(timestamps[bad])!r} for user "
            f"{user_ids[user_codes[bad]]!r}, item {item_ids[item_codes[bad]]!r}"
        )
    counts = np.bincount(user_codes, minlength=len(user_ids))
    present = sorted(np.flatnonzero(counts).tolist(), key=user_ids.__getitem__)
    rank = np.zeros(len(user_ids), np.int64)
    rank[present] = np.arange(len(present))
    ordered = item_codes[np.lexsort((timestamps, rank[user_codes]))]
    codes, first = np.unique(ordered, return_index=True)
    appearance = codes[np.argsort(first)]
    renumber = np.zeros(len(item_ids), np.int64)
    renumber[appearance] = np.arange(len(appearance))
    items = renumber[ordered]
    stops = np.cumsum(counts[present]).tolist()
    sequences = [
        ConsumptionSequence(user, items[start:stop])
        for user, (start, stop) in enumerate(zip([0] + stops, stops))
    ]
    return Dataset(
        sequences,
        Vocabulary(item_ids[code] for code in appearance.tolist()),
        Vocabulary(user_ids[code] for code in present),
        name=name,
    )


def events_to_dataset(
    events: Iterable[EventRecord],
    name: str = "dataset",
    min_duration: Optional[float] = None,
) -> Dataset:
    """Group events by user, sort by timestamp, and build a dataset.

    Parameters
    ----------
    min_duration:
        If given, events carrying a duration shorter than this are
        dropped (the paper's 30-second Last.fm filter). Events without a
        duration column are always kept.

    Raises
    ------
    DataError
        If a kept event's timestamp is not finite.

    Notes
    -----
    Sorting is stable, so events sharing a timestamp keep their log
    order — matching how the paper treats time as a position index.
    """
    users: List[Hashable] = []
    items: List[Hashable] = []
    stamps: List[float] = []
    for event in events:
        if (
            min_duration is not None
            and event.duration is not None
            and event.duration < min_duration
        ):
            continue
        users.append(event.user)
        items.append(event.item)
        stamps.append(float(event.timestamp))
    user_codes, item_codes = _Codes(), _Codes()
    return _group(
        user_codes.encode(users),
        list(user_codes),
        item_codes.encode(items),
        list(item_codes),
        np.array(stamps, dtype=np.float64),
        name,
    )


# ----------------------------------------------------------------------
# The columnar tokenizer
# ----------------------------------------------------------------------


def _line_chunks(handle: TextIO, size: int) -> Iterator[str]:
    """The text of ``handle`` in runs of whole lines, about ``size`` chars each."""
    pending: List[str] = []  # the unfinished line, joined once it ends
    for block in iter(lambda: handle.read(size), ""):
        cut = block.rfind("\n") + 1
        if cut:
            yield "".join(pending) + block[:cut]
            pending = []
        pending.append(block[cut:])
    rest = "".join(pending)
    if rest:
        yield rest


def _forbidden_bytes(delimiter: str) -> np.ndarray:
    """A byte table marking what could make csv split or strip differently."""
    table = np.ones(256, dtype=bool)
    for code in range(128):
        char = chr(code)
        table[code] = char.isspace() or char in '"\x00'
    for allowed in (delimiter, "\n", "\r"):
        table[ord(allowed)] = False
    return table


def _split_chunk(
    text: str, delimiter: str, forbidden: np.ndarray, skip_header: bool
) -> Optional[Tuple[int, List[str]]]:
    """``(n_columns, cells)`` of a run of whole lines, or ``None``.

    ``None`` means the chunk is not provably split the way ``csv.reader``
    splits it, and the row path must read the file. ``cells`` lists the
    non-blank rows' cells, row after row. ``skip_header`` drops the
    first non-blank line (blank: only delimiters and line ends, the
    only whitespace a chunk that gets this far holds).
    """
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    if forbidden[data].any():
        return None
    returns = np.flatnonzero(data == ord("\r"))
    if returns.size and (
        returns[-1] + 1 == data.size or (data[returns + 1] != ord("\n")).any()
    ):
        return None  # a lone carriage return, which csv reads as a line end
    limit = csv.field_size_limit()
    if skip_header:
        lead = len(text) - len(text.lstrip(delimiter + "\r\n"))
        start = text.find("\n", lead) + 1 or len(text)
        if start > limit:
            return None
        text, data = text[start:], data[start:]
    # Row and cell breaks ("\r\n" reads as a row end and a blank row),
    # with a virtual row end before the text and after an unterminated
    # last row so that every row looks alike.
    row_end = (data == ord("\n")) | (data == ord("\r"))
    breaks = np.flatnonzero(row_end | (data == ord(delimiter)))
    tail = 0 if text.endswith("\n") else 1
    positions = np.concatenate(([-1], breaks, np.full(tail, data.size)))
    at_row_end = np.concatenate(
        (np.ones(1, bool), row_end[breaks], np.ones(tail, bool))
    )
    if positions.size > 1 and np.diff(positions).max() > limit:
        return None  # csv would refuse the field
    row_ends = np.flatnonzero(at_row_end)
    blank = np.diff(positions[row_ends]) == 1
    delimiters = (np.diff(row_ends) - 1)[~blank]
    if delimiters.size == 0:
        return 3, []
    n_columns = int(delimiters[0]) + 1
    if n_columns not in (3, 4) or (delimiters != delimiters[0]).any():
        return None
    # The breaks are the only whitespace, so a whitespace split yields
    # the non-empty cells; an empty one (which csv keeps) shows as a
    # short count.
    if not delimiter.isspace():
        text = text.replace(delimiter, " ")
    cells = text.split()
    if len(cells) != delimiters.size * n_columns:
        return None
    return n_columns, cells


def _read_columns(
    path: Path,
    delimiter: str,
    has_header: bool,
    min_duration: Optional[float],
) -> Optional[Tuple[tuple, int]]:
    """``(_group arguments minus name, data rows)``, or ``None`` for the row path."""
    if not (
        isinstance(delimiter, str)
        and len(delimiter) == 1
        and delimiter.isascii()
        and delimiter not in '"\r\n\x00'
    ):
        return None
    forbidden = _forbidden_bytes(delimiter)
    user_codes, item_codes = _Codes(), _Codes()
    users = [np.zeros(0, np.int64)]
    items = [np.zeros(0, np.int64)]
    stamps = [np.zeros(0, np.float64)]
    n_rows = 0
    header_pending = has_header
    try:
        with path.open(newline="") as handle:
            for text in _line_chunks(handle, _CHUNK_CHARS):
                split = _split_chunk(text, delimiter, forbidden, header_pending)
                if split is None:
                    return None
                # A chunk of blank lines leaves the header to the next.
                header_pending = header_pending and not text.strip(
                    delimiter + "\r\n"
                )
                n_columns, cells = split
                timestamps = np.fromiter(map(float, cells[2::n_columns]), np.float64)
                if not np.isfinite(timestamps).all():
                    return None
                keep = slice(None)
                if n_columns == 4:
                    durations = np.fromiter(
                        map(float, cells[3::n_columns]), np.float64
                    )
                    if not np.isfinite(durations).all():
                        return None
                    if min_duration is not None:
                        keep = ~(durations < min_duration)
                users.append(user_codes.encode(cells[0::n_columns])[keep])
                items.append(item_codes.encode(cells[1::n_columns])[keep])
                stamps.append(timestamps[keep])
                n_rows += timestamps.size
    except ValueError:  # an unparsable number, or undecodable text
        return None
    columns = (
        np.concatenate(users),
        list(user_codes),
        np.concatenate(items),
        list(item_codes),
        np.concatenate(stamps),
    )
    return columns, n_rows


def load_event_log(
    path: Union[str, Path],
    name: Optional[str] = None,
    delimiter: str = "\t",
    has_header: bool = False,
    min_duration: Optional[float] = None,
    on_error: str = "raise",
    error_budget: float = DEFAULT_ERROR_BUDGET,
    report: Optional[LoaderReport] = None,
) -> Dataset:
    """Read a log file straight into a :class:`Dataset`.

    Clean logs take the columnar tokenizer; anything it cannot prove it
    splits like ``csv.reader`` runs :func:`read_events` instead (see the
    module docstring). ``on_error``/``error_budget``/``report`` follow
    :func:`read_events`; on the columnar path no row is malformed, so
    ``report`` only gains the path and the row count.
    """
    _check_policy(on_error, error_budget)
    path = Path(path)
    name = name or path.stem
    loaded = _read_columns(path, delimiter, has_header, min_duration)
    if loaded is None:
        return events_to_dataset(
            read_events(
                path,
                delimiter=delimiter,
                has_header=has_header,
                on_error=on_error,
                error_budget=error_budget,
                report=report,
            ),
            name=name,
            min_duration=min_duration,
        )
    columns, n_rows = loaded
    if report is not None:
        report.path = str(path)
        report.n_rows += n_rows
    return _group(*columns, name=name)


def save_event_log(
    dataset: Dataset,
    path: Union[str, Path],
    delimiter: str = "\t",
) -> int:
    """Serialize a dataset back to the generic log format.

    Timestamps are synthesized from each event's global arrival order so
    a round-trip through :func:`load_event_log` reconstructs the same
    per-user sequences.
    """
    def _events() -> Iterator[EventRecord]:
        clock = 0
        for sequence in dataset:
            user_id = str(dataset.user_vocab.id_of(sequence.user))
            for item in sequence:
                yield EventRecord(
                    user=user_id,
                    item=str(dataset.item_vocab.id_of(item)),
                    timestamp=float(clock),
                )
                clock += 1

    return write_events(path, _events(), delimiter=delimiter)
