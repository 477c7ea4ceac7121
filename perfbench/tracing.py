"""Outside-in span recording for the benchmark.

Nothing here edits the program under test. A :class:`Tracer` replaces a
public callable of one layer (a module function or a class method) with
a wrapper that records a span around the original call, and puts the
original back on :meth:`Tracer.restore`. Wrappers are installed before
the serving processes fork, so router and shard workers inherit them.

A span is the tuple ``(id, name, start, end, parent, key, info)``:

* ``start``/``end`` come from ``time.perf_counter`` (the system-wide
  monotonic clock on Linux, so spans from different processes on one
  machine share a time base);
* ``parent`` is the id of the enclosing span on the same thread (0 for
  a root);
* ``key`` is the request identity the span belongs to, e.g.
  ``["e", user]`` for an event of ``user`` — spans of one request in
  different processes are joined on it, by time containment;
* ``info`` holds per-call counts (rows filled, queries scored, ...).

Spans stay in memory and are written out once, by :func:`dump_spans`,
when the process shuts down.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

KeyFn = Callable[[tuple, dict], Any]
InfoFn = Callable[[tuple, dict, Any], Any]

#: Span ids are unique per process, across every tracer it creates.
_SPAN_IDS = itertools.count(1)


def reset_span_ids(start: int) -> None:
    """Restart span ids at ``start`` (a forked child keeps its own range)."""
    global _SPAN_IDS
    _SPAN_IDS = itertools.count(start)


class Tracer:
    """Records spans around patched callables and restores them."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, make: Callable) -> None:
        """Swap ``owner.attr`` for ``make(original_function)``.

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and re-wrapped so the replacement binds the same way.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        key: Optional[KeyFn] = None,
        info: Optional[InfoFn] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._replace(owner, attr, lambda fn: self.wrap(fn, name, key, info))

    def delay(self, owner: object, attr: str, seconds: float) -> None:
        """Spin for a fixed ``seconds`` before every call of ``owner.attr``.

        A busy wait rather than a sleep: the delay is extra work, so it
        shows on the CPU clocks some end-to-end metrics read as well as
        on the wall clock.
        """

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def delayed(*args: Any, **kwargs: Any) -> Any:
                until = time.perf_counter() + seconds
                while time.perf_counter() < until:
                    pass
                return fn(*args, **kwargs)

            return delayed

        self._replace(owner, attr, make)

    def around(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with an arbitrary ``make(original)``."""
        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put back every original callable, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        key: Optional[KeyFn] = None,
        info: Optional[InfoFn] = None,
    ) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(_SPAN_IDS)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent,
                     key(args, kwargs) if key else None, {"error": 1})
                )
                raise
            end = clock()
            stack.pop()
            spans.append(
                (span_id, name, start, end, parent,
                 key(args, kwargs) if key else None,
                 info(args, kwargs, result) if info else None)
            )
            return result

        return wrapper


def dump_spans(spans: List[tuple], path: Path, extra: Optional[dict] = None) -> None:
    """Write one process's spans (plus any ``extra`` fields) as JSON."""
    payload = {"spans": [list(span) for span in spans]}
    if extra:
        payload.update(extra)
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(path)


def load_spans(path: Path) -> Tuple[List[tuple], dict]:
    """Read back a dump: ``(spans, the other fields)``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spans = [tuple(span) for span in payload.pop("spans")]
    return spans, payload


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its same-thread children."""
    own: Dict[int, float] = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def child_time(spans: List[tuple], names: Tuple[str, ...]) -> Dict[int, float]:
    """Span id -> summed duration of its direct children named in ``names``."""
    total: Dict[int, float] = {}
    for span in spans:
        if span[1] in names:
            total[span[4]] = total.get(span[4], 0.0) + span[3] - span[2]
    return total
