"""Append-only, crc-checked event log — the serving layer's source of truth.

Every live consumption event is durably logged *before* it is applied to
any in-memory session, so a crashed server can rebuild bit-identical
session state by replaying the log over the base histories
(write-ahead-log discipline). The format is one JSON record per line::

    {"seq": 17, "user": 3, "item": 42, "ts": 1754600000.25, "crc": "1a2b3c4d"}

``seq`` is a contiguous global sequence number, ``ts`` the wall-clock
commit time (optional — records written before timestamps existed omit
it and parse fine), and ``crc`` the CRC-32 of the canonical
``"seq:user:item"`` (or ``"seq:user:item:ts"``) payload, so recovery
can tell the two failure modes apart:

* a **torn tail** — the final line truncated mid-write by a crash — is
  expected and silently discarded (the event never committed; the
  client retries it);
* **interior corruption** — a bad record *followed by* valid ones, or a
  file shorter than the sealed manifest says it must be — is data loss
  and raises :class:`~repro.exceptions.DataError` loudly.

The sealed-length manifest (``<log>.manifest.json``) is written through
:func:`repro.resilience.atomic.atomic_write_json` on every
:meth:`EventLog.seal` / :meth:`EventLog.close`, so it is itself
crash-safe: after a clean shutdown it pins the minimum record count a
reopened log must contain.

A :class:`~repro.resilience.faults.FaultInjector` can be armed on the
append path (its ``on_write`` hook fires before the record reaches the
file), which is how the crash-recovery suite kills the server
mid-stream at deterministic points.

:func:`scan_events` streams a log file record-by-record (same torn-tail
tolerance and corruption/contiguity checks as :meth:`EventLog.open`)
without materializing the whole file or any in-memory index — the
inspection path ``repro-serve replay`` and the offline online-trainer
rebuild use it to walk arbitrarily large logs in O(1) memory.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, IO, Iterator, List, Optional, Union

from repro.exceptions import DataError
from repro.resilience.atomic import atomic_write_json

#: Log format version recorded in the manifest; bump on layout changes.
EVENT_LOG_VERSION = 1

#: Durability policies for the append path (see :class:`EventLog`).
FSYNC_POLICIES = ("always", "interval", "never")


def _payload_crc(
    seq: int, user: int, item: int, ts: Optional[float] = None
) -> str:
    """CRC-32 (hex, no prefix) of the canonical record payload.

    Timestamped records extend the payload with ``repr(ts)`` —
    ``repr``/JSON round-trip floats exactly, so the crc stays stable
    across write/parse cycles; legacy records (``ts is None``) keep the
    original three-field payload so their stored crcs still verify.
    """
    payload = f"{seq}:{user}:{item}"
    if ts is not None:
        payload += f":{ts!r}"
    return format(zlib.crc32(payload.encode("ascii")) & 0xFFFFFFFF, "08x")


@dataclass(frozen=True)
class Event:
    """One committed consumption event.

    ``ts`` is the wall-clock commit time. It is metadata for inspection
    and update-lag accounting only — replay and the online trainer key
    every decision off ``seq``/``user``/``item``, so two logs that
    differ only in timestamps rebuild bit-identical state.
    """

    seq: int
    user: int
    item: int
    ts: Optional[float] = None

    def to_line(self) -> str:
        """The record's exact on-disk line (including the newline)."""
        record: dict = {
            "seq": self.seq,
            "user": self.user,
            "item": self.item,
        }
        if self.ts is not None:
            record["ts"] = self.ts
        record["crc"] = _payload_crc(self.seq, self.user, self.item, self.ts)
        return json.dumps(record, separators=(",", ":")) + "\n"


def _parse_line(line: str) -> Optional[Event]:
    """Parse one complete line; ``None`` marks an invalid/torn record."""
    try:
        record = json.loads(line)
        ts = record.get("ts")
        event = Event(
            seq=int(record["seq"]),
            user=int(record["user"]),
            item=int(record["item"]),
            ts=None if ts is None else float(ts),
        )
    except (ValueError, KeyError, TypeError):
        return None
    expected = _payload_crc(event.seq, event.user, event.item, event.ts)
    if record.get("crc") != expected:
        return None
    return event


class EventLog:
    """Durable append-only record of live consumption events.

    Use :meth:`EventLog.open` — it replays an existing file (recovering
    from a torn tail), verifies the sealed manifest, and leaves the log
    ready for appends.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fault_injector: Optional[object] = None,
        fsync_every: int = 1,
        fsync_policy: Optional[str] = None,
    ) -> None:
        if fsync_every < 1:
            raise DataError(f"fsync_every must be >= 1, got {fsync_every}")
        if fsync_policy is None:
            # Back-compat mapping: the historical knob was fsync_every,
            # with 1 (the default) meaning fsync-per-append.
            fsync_policy = "always" if fsync_every == 1 else "interval"
        if fsync_policy not in FSYNC_POLICIES:
            raise DataError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        self.path = Path(path)
        self.fault_injector = fault_injector
        self.fsync_every = fsync_every
        self.fsync_policy = fsync_policy
        self.n_discarded_tail = 0
        self._events: List[Event] = []
        self._by_user: Dict[int, List[int]] = {}
        self._handle: Optional[IO[str]] = None
        self._unsynced = 0
        self._readonly = False

    # ------------------------------------------------------------------
    # Opening / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        fault_injector: Optional[object] = None,
        fsync_every: int = 1,
        readonly: bool = False,
        fsync_policy: Optional[str] = None,
    ) -> "EventLog":
        """Open (or create) a log, replaying and validating its records.

        ``readonly`` skips the append handle entirely — the inspection
        mode ``repro-serve replay`` uses; appends raise and
        :meth:`close` leaves the manifest untouched.

        ``fsync_policy`` picks the durability/throughput trade-off of
        the append path:

        * ``"always"`` (default) — fsync after every append. A record
          returned from :meth:`append` survives an immediate process
          kill *and* power cut; the strongest guarantee and the one the
          crash sweeps assume.
        * ``"interval"`` — fsync every ``fsync_every`` appends (and on
          close). A process kill loses nothing (the OS page cache holds
          the flushed lines), but a power cut may lose up to
          ``fsync_every - 1`` committed records.
        * ``"never"`` — fsync only on :meth:`close`. Fastest; a power
          cut can lose any record appended since open. Only sensible
          when the log is a rebuildable cache of some upstream truth.
        """
        log = cls(
            path,
            fault_injector=fault_injector,
            fsync_every=fsync_every,
            fsync_policy=fsync_policy,
        )
        log._readonly = readonly
        log._recover()
        if not readonly:
            log.path.parent.mkdir(parents=True, exist_ok=True)
            log._handle = log.path.open("a", encoding="utf-8")
        return log

    @property
    def manifest_path(self) -> Path:
        return self.path.with_name(self.path.name + ".manifest.json")

    def _recover(self) -> None:
        """Load committed records, dropping a torn tail, detecting loss."""
        if self.path.exists():
            text = self.path.read_text(encoding="utf-8")
            lines = text.split("\n")
            # A file ending in "\n" splits into [..., ""]; anything else
            # in the final slot is a record the crash cut short.
            complete, tail = lines[:-1], lines[-1]
            torn = bool(tail)
            events: List[Event] = []
            for line_no, line in enumerate(complete):
                event = _parse_line(line)
                if event is None:
                    if line_no == len(complete) - 1 and not torn:
                        # Corrupt *final* complete line: also a torn
                        # write (the newline made it, the payload tore).
                        torn = True
                        break
                    raise DataError(
                        f"corrupt event record at {self.path}:{line_no + 1} "
                        f"with valid records after it"
                    )
                if event.seq != len(events):
                    raise DataError(
                        f"event log {self.path} has non-contiguous seq "
                        f"{event.seq} at line {line_no + 1} "
                        f"(expected {len(events)})"
                    )
                events.append(event)
            self.n_discarded_tail = 1 if torn else 0
            self._events = events
            for index, event in enumerate(events):
                self._by_user.setdefault(event.user, []).append(index)
            if torn and not self._readonly:
                # Truncate the torn tail so future appends start on a
                # clean record boundary.
                committed = "".join(event.to_line() for event in events)
                with self.path.open("w", encoding="utf-8") as handle:
                    handle.write(committed)
                    handle.flush()
                    os.fsync(handle.fileno())
        manifest = self._read_manifest()
        if manifest is not None:
            sealed = int(manifest.get("n_records", 0))
            if sealed > len(self._events):
                raise DataError(
                    f"event log {self.path} holds {len(self._events)} "
                    f"records but its manifest seals {sealed}: committed "
                    f"events were lost"
                )

    def _read_manifest(self) -> Optional[dict]:
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(
                f"corrupt event-log manifest at {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != EVENT_LOG_VERSION:
            raise DataError(
                f"unsupported event-log version "
                f"{manifest.get('version')!r} in {self.manifest_path}"
            )
        return manifest

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, user: int, item: int) -> Event:
        """Durably commit one event; returns it with its assigned ``seq``.

        The record only counts as committed once fully written (torn
        tails are discarded on recovery), so the in-memory indexes are
        updated strictly after the write succeeds.
        """
        if self._handle is None:
            raise DataError(f"event log {self.path} is not open for appends")
        if user < 0 or item < 0:
            raise DataError(
                f"user and item must be non-negative, got ({user}, {item})"
            )
        if self.fault_injector is not None:
            self.fault_injector.on_write()  # type: ignore[attr-defined]
        event = Event(
            seq=len(self._events),
            user=int(user),
            item=int(item),
            ts=time.time(),
        )
        self._handle.write(event.to_line())
        self._handle.flush()
        self._unsynced += 1
        if self.fsync_policy == "always" or (
            self.fsync_policy == "interval"
            and self._unsynced >= self.fsync_every
        ):
            os.fsync(self._handle.fileno())
            self._unsynced = 0
        self._events.append(event)
        self._by_user.setdefault(event.user, []).append(event.seq)
        return event

    # ------------------------------------------------------------------
    # Replay views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Event]:
        """All committed events in append order (a copy)."""
        return list(self._events)

    def iter_events(self) -> Iterator[Event]:
        return iter(self._events)

    def events_for(self, user: int, start: int = 0) -> List[int]:
        """The user's committed item stream in append order, from ``start``.

        This is the replay view :class:`~repro.serving.state.SessionStore`
        rehydrates from. ``start`` skips the user's first ``start``
        events without reading them, so a rebuild that already holds
        them touches only the events it has not seen.
        """
        indices = self._by_user.get(user, ())
        return [self._events[index].item for index in indices[start:]]

    def users(self) -> List[int]:
        """Sorted users with at least one committed event."""
        return sorted(self._by_user)

    # ------------------------------------------------------------------
    # Sealing / shutdown
    # ------------------------------------------------------------------
    def seal(self) -> Path:
        """Atomically record the committed length in the manifest.

        After a seal, a reopened log containing fewer records fails
        recovery — the sealed count is the durability floor.
        """
        return atomic_write_json(
            self.manifest_path,
            {
                "version": EVENT_LOG_VERSION,
                "n_records": len(self._events),
                "log": self.path.name,
            },
        )

    def close(self) -> None:
        """Fsync outstanding appends, seal, and release the file handle.

        A readonly log closes without sealing — inspection must never
        mutate the artifact it inspects.
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0
            self._handle.close()
            self._handle = None
        if not self._readonly:
            self.seal()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventLog(path={str(self.path)!r}, n_events={len(self._events)}, "
            f"users={len(self._by_user)})"
        )


def scan_events(path: Union[str, Path]) -> Iterator[Event]:
    """Stream a log file's committed events in O(1) memory.

    Yields each :class:`Event` (timestamps included) in append order
    with the same validation :meth:`EventLog.open` applies — a torn
    final record ends the stream silently, interior corruption or a
    seq gap raises :class:`~repro.exceptions.DataError` — but without
    building the whole-log list or per-user index, so inspection and
    offline online-trainer rebuilds can walk logs far larger than
    memory. A sealed manifest is honoured: scanning fewer records than
    the seal pinned is data loss and raises.
    """
    path = Path(path)
    n_scanned = 0
    if path.exists():
        with path.open("r", encoding="utf-8") as handle:
            line = handle.readline()
            line_no = 0
            while line:
                pending = handle.readline()
                line_no += 1
                if not line.endswith("\n"):
                    # Final partial line: a torn write; never committed.
                    break
                event = _parse_line(line)
                if event is None:
                    if not pending:
                        # Corrupt *final* complete line: also a torn
                        # write (the newline made it, the payload tore).
                        break
                    raise DataError(
                        f"corrupt event record at {path}:{line_no} "
                        f"with valid records after it"
                    )
                if event.seq != n_scanned:
                    raise DataError(
                        f"event log {path} has non-contiguous seq "
                        f"{event.seq} at line {line_no} "
                        f"(expected {n_scanned})"
                    )
                n_scanned += 1
                yield event
                line = pending
    manifest_path = path.with_name(path.name + ".manifest.json")
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(
                f"corrupt event-log manifest at {manifest_path}: {exc}"
            ) from exc
        sealed = int(manifest.get("n_records", 0))
        if sealed > n_scanned:
            raise DataError(
                f"event log {path} holds {n_scanned} records but its "
                f"manifest seals {sealed}: committed events were lost"
            )
