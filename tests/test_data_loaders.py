"""Tests for repro.data.loaders."""

import csv
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.data.loaders as loaders
from repro.data.loaders import (
    EventRecord,
    LoaderReport,
    events_to_dataset,
    load_event_log,
    read_events,
    save_event_log,
    write_events,
)
from repro.exceptions import DataError
from loader_oracles import events_to_dataset_reference, load_event_log_reference


def _write(path, text):
    path.write_text(text)
    return path


class TestReadEvents:
    def test_reads_three_column_rows(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u1\ti1\t10.0\nu2\ti2\t5\n")
        events = list(read_events(path))
        assert events[0] == EventRecord("u1", "i1", 10.0, None)
        assert events[1].timestamp == 5.0

    def test_reads_duration_column(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\t1\t25.5\n")
        (event,) = read_events(path)
        assert event.duration == pytest.approx(25.5)

    def test_skips_blank_lines(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\t1\n\n\nu\tj\t2\n")
        assert len(list(read_events(path))) == 2

    def test_header_skipped_when_requested(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "user\titem\tts\nu\ti\t1\n")
        assert len(list(read_events(path, has_header=True))) == 1

    @pytest.mark.parametrize(
        "lead", ["\n", "\r\n\n", "\t\t\n", "\n\t\n\r\n"]
    )
    def test_header_is_the_first_non_blank_record(self, tmp_path, lead):
        text = lead + "user\titem\tts\nu\ti\t1\n\nv\tj\t2\n"
        path = _write(tmp_path / "log.tsv", text)
        events = list(read_events(path, has_header=True))
        assert [(e.user, e.item, e.timestamp) for e in events] == [
            ("u", "i", 1.0), ("v", "j", 2.0),
        ]
        for chunk in (1, 4, 64):
            with mock.patch.object(loaders, "_CHUNK_CHARS", chunk):
                with _row_path_forbidden():
                    loaded = load_event_log(path, has_header=True)
            assert [list(s) for s in loaded] == [[0], [1]]
            assert list(loaded.user_vocab) == ["u", "v"]

    def test_too_few_columns(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\n")
        with pytest.raises(DataError, match="expected at least 3"):
            list(read_events(path))

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\t1\nu\ti\tnot-a-number\n")
        with pytest.raises(DataError, match=":2:"):
            list(read_events(path))

    def test_line_numbers_count_physical_lines(self, tmp_path):
        # A quoted cell spans lines 2-4; the bad row starts on line 6.
        path = _write(
            tmp_path / "log.tsv",
            'user\titem\tts\nu\t"a\nb\nc"\t1\n\nu\ti\tx\nu\t"d\ne"\tnan\n',
        )
        with pytest.raises(DataError, match=r"log\.tsv:6: bad timestamp 'x'"):
            load_event_log(path, has_header=True)
        report = LoaderReport()
        with pytest.raises(DataError, match="first bad row: line 6:"):
            load_event_log(
                path, has_header=True, on_error="skip", report=report
            )
        assert [row.line_number for row in report.skipped] == [6, 7]
        assert report.skipped[1].reason.endswith(
            ":7: non-finite timestamp 'nan'"
        )

    def test_bad_duration(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\t1\txx\n")
        with pytest.raises(DataError, match="duration"):
            list(read_events(path))

    def test_empty_ids_rejected(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "\ti\t1\n")
        with pytest.raises(DataError, match="empty user or item"):
            list(read_events(path))

    def test_custom_delimiter(self, tmp_path):
        path = _write(tmp_path / "log.csv", "u,i,3\n")
        (event,) = read_events(path, delimiter=",")
        assert event.item == "i"


class TestEventsToDataset:
    def test_groups_and_sorts_by_timestamp(self):
        events = [
            EventRecord("u", "b", 2.0),
            EventRecord("u", "a", 1.0),
            EventRecord("v", "a", 0.0),
        ]
        dataset = events_to_dataset(events)
        u = dataset.user_vocab.index_of("u")
        items = [dataset.item_vocab.id_of(i) for i in dataset.sequence(u)]
        assert items == ["a", "b"]

    def test_stable_order_for_tied_timestamps(self):
        events = [EventRecord("u", str(i), 1.0) for i in range(5)]
        dataset = events_to_dataset(events)
        items = [dataset.item_vocab.id_of(i) for i in dataset.sequence(0)]
        assert items == ["0", "1", "2", "3", "4"]

    def test_min_duration_filters_short_listens(self):
        events = [
            EventRecord("u", "keep", 1.0, duration=45.0),
            EventRecord("u", "skip", 2.0, duration=10.0),
            EventRecord("u", "nodur", 3.0, duration=None),
        ]
        dataset = events_to_dataset(events, min_duration=30.0)
        items = [dataset.item_vocab.id_of(i) for i in dataset.sequence(0)]
        assert items == ["keep", "nodur"]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        events = [EventRecord("u", "i", 1.5, duration=90.0)]
        path = tmp_path / "log.tsv"
        assert write_events(path, events) == 1
        (loaded,) = read_events(path)
        assert loaded == events[0]

    def test_save_and_load_dataset(self, tmp_path, tiny_dataset):
        path = tmp_path / "dataset.tsv"
        n_rows = save_event_log(tiny_dataset, path)
        assert n_rows == tiny_dataset.n_consumptions()
        reloaded = load_event_log(path)
        assert reloaded.n_users == tiny_dataset.n_users
        # Per-user item-id sequences survive the round trip.
        for user_id in reloaded.user_vocab:
            new_user = reloaded.user_vocab.index_of(user_id)
            old_user = tiny_dataset.user_vocab.index_of(int(user_id))
            new_items = [
                reloaded.item_vocab.id_of(i) for i in reloaded.sequence(new_user)
            ]
            old_items = [
                str(tiny_dataset.item_vocab.id_of(i))
                for i in tiny_dataset.sequence(old_user)
            ]
            assert new_items == old_items


class TestOnErrorSkip:
    def _mostly_good_log(self, tmp_path, n_good, n_bad):
        lines = [f"u{i}\ti{i}\t{float(i)}" for i in range(n_good)]
        bad_lines = ["u\ti\tnot-a-number" for _ in range(n_bad)]
        # Bad rows first so their line numbers are predictable.
        path = tmp_path / "log.tsv"
        path.write_text("\n".join(bad_lines + lines) + "\n")
        return path

    def test_skip_quarantines_with_line_numbers(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=40, n_bad=1)
        report = LoaderReport()
        events = list(read_events(path, on_error="skip", report=report))
        assert len(events) == 40
        assert report.n_rows == 41
        assert report.n_skipped == 1
        assert report.skipped[0].line_number == 1
        assert "not-a-number" in report.skipped[0].reason
        assert "line 1" in report.render()

    def test_exactly_at_budget_passes(self, tmp_path):
        # 1 bad of 20 rows = 5% — exactly the default budget.
        path = self._mostly_good_log(tmp_path, n_good=19, n_bad=1)
        events = list(read_events(path, on_error="skip", error_budget=0.05))
        assert len(events) == 19

    def test_one_over_budget_raises(self, tmp_path):
        # 2 bad of 21 rows > 5%.
        path = self._mostly_good_log(tmp_path, n_good=19, n_bad=2)
        with pytest.raises(DataError, match="error budget"):
            list(read_events(path, on_error="skip", error_budget=0.05))

    def test_budget_error_names_first_bad_row(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=1, n_bad=9)
        with pytest.raises(DataError, match="line 1"):
            list(read_events(path, on_error="skip"))

    def test_default_still_raises_on_first_bad_row(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=40, n_bad=1)
        with pytest.raises(DataError, match=":1:"):
            list(read_events(path))

    def test_invalid_on_error_rejected(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=1, n_bad=0)
        with pytest.raises(ValueError, match="on_error"):
            list(read_events(path, on_error="ignore"))

    def test_invalid_budget_rejected(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=1, n_bad=0)
        with pytest.raises(ValueError, match="error_budget"):
            list(read_events(path, on_error="skip", error_budget=1.5))

    def test_load_event_log_forwards_policy(self, tmp_path):
        path = self._mostly_good_log(tmp_path, n_good=40, n_bad=1)
        report = LoaderReport()
        dataset = load_event_log(path, on_error="skip", report=report)
        assert dataset.n_users == 40
        assert report.n_skipped == 1


class TestNonFiniteNumbers:
    """A NaN stamp used to reorder the user's *other* events silently."""

    LOG = "u\ta\t3\nu\tc\t1\nu\tb\tnan\nu\td\t2\n"

    def _items(self, dataset):
        sequence = dataset.sequence(dataset.user_vocab.index_of("u"))
        return [dataset.item_vocab.id_of(i) for i in sequence]

    def test_nan_timestamp_is_a_malformed_row(self, tmp_path):
        path = _write(tmp_path / "log.tsv", self.LOG)
        with pytest.raises(DataError, match=r":3: non-finite timestamp 'nan'"):
            load_event_log(path)

    def test_nan_timestamp_is_skipped_against_the_budget(self, tmp_path):
        path = _write(tmp_path / "log.tsv", self.LOG)
        report = LoaderReport()
        dataset = load_event_log(
            path, on_error="skip", error_budget=0.25, report=report
        )
        assert self._items(dataset) == ["c", "d", "a"]
        assert [row.line_number for row in report.skipped] == [3]
        with pytest.raises(DataError, match="error budget"):
            load_event_log(path, on_error="skip", error_budget=0.2)

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "-Infinity", "NaN"])
    def test_non_finite_timestamps_rejected(self, tmp_path, stamp):
        path = _write(tmp_path / "log.tsv", f"u\ta\t1\nu\tb\t{stamp}\n")
        with pytest.raises(DataError, match=":2: non-finite timestamp"):
            list(read_events(path))

    def test_nan_duration_does_not_survive_the_listen_filter(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ta\t1\t45\nu\tb\t2\tnan\n")
        with pytest.raises(DataError, match=":2: non-finite duration 'nan'"):
            load_event_log(path, min_duration=30.0)

    def test_events_to_dataset_rejects_a_nan_timestamp(self):
        events = [EventRecord("u", "a", 1.0), EventRecord("u", "b", float("nan"))]
        with pytest.raises(DataError, match="non-finite timestamp nan"):
            events_to_dataset(events)


class TestEagerValidation:
    """Bad policy arguments fail at the call, not at the first ``next()``."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"on_error": "bogus"}, "on_error"),
            ({"on_error": "skip", "error_budget": 1.5}, "error_budget"),
            ({"error_budget": -0.1}, "error_budget"),
        ],
    )
    def test_read_events_validates_without_iterating(self, tmp_path, kwargs, match):
        with pytest.raises(ValueError, match=match):
            read_events(tmp_path / "missing.tsv", **kwargs)

    @pytest.mark.parametrize("kwargs", [{"on_error": "bogus"}, {"error_budget": 2.0}])
    def test_load_event_log_validates_before_reading(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            load_event_log(tmp_path / "missing.tsv", **kwargs)


# ----------------------------------------------------------------------
# The columnar tokenizer against the row path + tuple-sort oracle
# ----------------------------------------------------------------------


def _outcome(load, path, on_error, **kwargs):
    """What a load returns or raises, and the report it fills in."""
    report = LoaderReport()
    try:
        dataset = load(path, on_error=on_error, error_budget=0.25, report=report, **kwargs)
    except DataError as exc:
        result = ("DataError", str(exc))
    else:
        result = (
            dataset.name,
            list(dataset.user_vocab),
            list(dataset.item_vocab),
            [(s.user, s.items.tolist()) for s in dataset],
        )
    return result, (report.path, report.n_rows, report.skipped)


def _assert_matches_reference(path, **kwargs):
    for on_error in ("raise", "skip"):
        assert _outcome(load_event_log, path, on_error, **kwargs) == _outcome(
            load_event_log_reference, path, on_error, **kwargs
        )


@contextmanager
def _row_path_forbidden():
    """Fail the test if the load falls back to ``csv.reader``."""
    def refuse(*args, **kwargs):
        raise AssertionError("the row path ran on a clean log")

    with mock.patch.object(loaders.csv, "reader", refuse):
        yield


_CLEAN_USERS = ["u1", "u2", "u10", "U", "7"]
_CLEAN_ITEMS = ["a", "b", "c", "a1", "42"]
_CLEAN_STAMPS = ["0", "0.0", "-0.0", "1", "1.5", "2", "1_0", "1e1", "10", "-3"]
_CLEAN_DURATIONS = ["45", "10", "30", "29.999", "300.0"]
_DIRTY_IDS = ["ü", " u1", "u 1", '"u1"', "'a'", "", "a\x0bb", "a\x00"]
_DIRTY_STAMPS = ["inf", "-inf", "nan", "x", " 3", "", "1,5", '"2"']


@st.composite
def _logs(draw):
    """(text, delimiter, has_header): mostly clean, sometimes dirty."""
    delimiter = draw(st.sampled_from(["\t", ","]))
    clean = draw(st.booleans())
    users = _CLEAN_USERS + ([] if clean else _DIRTY_IDS)
    items = _CLEAN_ITEMS + ([] if clean else _DIRTY_IDS)
    stamps = _CLEAN_STAMPS + ([] if clean else _DIRTY_STAMPS)
    durations = _CLEAN_DURATIONS + ([] if clean else _DIRTY_STAMPS)
    n_columns = draw(st.sampled_from([3, 4]))
    row = st.tuples(
        st.sampled_from(users),
        st.sampled_from(items),
        st.sampled_from(stamps),
        st.sampled_from(durations),
    ).map(lambda cells: delimiter.join(cells[:n_columns]))
    if not clean:
        ragged = st.lists(st.sampled_from(_CLEAN_ITEMS + [""]), max_size=5)
        row = st.one_of(row, ragged.map(delimiter.join))
    lines = draw(st.lists(st.one_of(row, st.just("")), max_size=24))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, delimiter.join(["user", "item", "timestamp"]))
        # Blank lines may precede the header.
        lines[:0] = [""] * draw(st.integers(min_value=0, max_value=2))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text, delimiter, has_header


class TestColumnarLoaderMatchesReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        log=_logs(),
        chunk=st.integers(min_value=1, max_value=96),
        min_duration=st.sampled_from([None, 30.0]),
    )
    def test_fuzzed_logs(self, tmp_path, log, chunk, min_duration):
        text, delimiter, has_header = log
        path = tmp_path / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(loaders, "_CHUNK_CHARS", chunk):
            _assert_matches_reference(
                path,
                delimiter=delimiter,
                has_header=has_header,
                min_duration=min_duration,
            )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "\r\n",
            "u\ti\t1",
            "u\ti\t1\r\n\r\nv\tj\t0\r\n",
            "u\ti\t0.0\nu\tj\t-0.0\nu\tk\t0\n",
            "u\ti\t2\t45\nu\tj\t1\t10\nv\tk\t0\t5\n",
            "u\ti\t1\nu\tj\t2\t45\n",
            "u\ti\t1\t\t\n",
            "u\t\t1\n",
            "\ti\t1\n",
            "u\ti\t\n",
            "u\ti\t1\t\nv\tj\t2\t50\n",
            "1\t\t1\n2\t2\t2\n",
            "\t\t\nu\ti\t1\n",
            "\nuser\titem\tts\nu\ti\t1\n",
            "\r\n\t\t\r\nuser\titem\tts\r\nu\ti\t1\r\n",
            "u\ti\t1\ru\tj\t2\n",
            "u\ti\t1\r\r\n",
            'u\t"i\tj"\t1\n',
            "u \ti\t1\n",
            "ü\ti\t1\n",
            "u\ti\t1\tx\t\n",
            "u\ti\t1\t2\t3\n",
            "u\ti\n",
            "u\ti\t1\x0c\n",
            "u\ti\tnan\nu\tj\t1\n",
        ],
    )
    @pytest.mark.parametrize("has_header", [False, True])
    def test_edge_logs(self, tmp_path, text, has_header):
        path = tmp_path / "edge.tsv"
        path.write_bytes(text.encode("utf-8"))
        for min_duration in (None, 30.0, float("nan")):
            _assert_matches_reference(
                path, has_header=has_header, min_duration=min_duration
            )

    @pytest.mark.parametrize("has_header", [False, True])
    def test_field_over_the_csv_limit_takes_the_row_path(self, tmp_path, has_header):
        path = _write(tmp_path / "log.tsv", "user-0123456789\titem\t1\nu\ti\t2\n")
        old_limit = csv.field_size_limit(12)
        try:
            for load in (load_event_log, load_event_log_reference):
                with pytest.raises(csv.Error, match="field larger than field limit"):
                    load(path, has_header=has_header)
        finally:
            csv.field_size_limit(old_limit)

    def test_a_caller_report_accumulates_like_the_row_path(self, tmp_path):
        path = _write(tmp_path / "log.tsv", "u\ti\t1\nv\tj\t2\n")
        reports = LoaderReport(), LoaderReport()
        for load, report in zip((load_event_log, load_event_log_reference), reports):
            load(path, report=report)
            load(path, report=report)
        assert reports[0] == reports[1]
        assert reports[0].n_rows == 4

    def test_comma_delimiter(self, tmp_path):
        path = _write(tmp_path / "log.csv", "user,item,ts\nu,b,2\nu,a,1\nv,a,0\n")
        with _row_path_forbidden():
            loaded = load_event_log(path, delimiter=",", has_header=True)
        reference = load_event_log_reference(path, delimiter=",", has_header=True)
        assert [list(s) for s in loaded] == [list(s) for s in reference]
        assert list(loaded.item_vocab) == list(reference.item_vocab) == ["a", "b"]

    def test_empty_log(self, tmp_path):
        path = _write(tmp_path / "empty.tsv", "")
        report = LoaderReport()
        dataset = load_event_log(path, report=report)
        assert dataset.n_users == 0 and dataset.n_items == 0
        assert dataset.name == "empty"
        assert (report.path, report.n_rows) == (str(path), 0)

    def test_events_to_dataset_matches_reference(self):
        rng = np.random.default_rng(5)
        events = [
            EventRecord(
                f"u{rng.integers(6)}",
                f"i{rng.integers(9)}",
                float(rng.choice([-0.0, 0.0, 1.0, 2.5, 3.0])),
                None if rng.random() < 0.3 else float(rng.uniform(0, 60)),
            )
            for _ in range(300)
        ]
        for min_duration in (None, 30.0):
            loaded = events_to_dataset(events, name="x", min_duration=min_duration)
            reference = events_to_dataset_reference(
                events, name="x", min_duration=min_duration
            )
            assert list(loaded.user_vocab) == list(reference.user_vocab)
            assert list(loaded.item_vocab) == list(reference.item_vocab)
            assert list(loaded) == list(reference)


class TestColumnarPathEngages:
    """Without these, a silent fallback to the row path passes every check."""

    def _workload_log(self, tmp_path, durations):
        # The perfbench fit_tsppr shape: users interleaved, float stamps,
        # CRLF line ends from csv.writer; optionally the Last.fm duration.
        rng = np.random.default_rng(11)
        events = [
            EventRecord(
                str(rng.integers(40)),
                str(rng.integers(300)),
                float(clock),
                float(rng.uniform(2, 300)) if durations else None,
            )
            for clock in range(3000)
        ]
        path = tmp_path / "events.tsv"
        write_events(path, events)
        return path

    @pytest.mark.parametrize("durations", [False, True])
    @pytest.mark.parametrize("chunk", [None, 64, 7])
    def test_clean_log_never_calls_csv(self, tmp_path, durations, chunk):
        path = self._workload_log(tmp_path, durations)
        min_duration = loaders.MIN_LISTEN_SECONDS if durations else None
        reference = load_event_log_reference(path, min_duration=min_duration)
        report = LoaderReport()
        size = chunk or loaders._CHUNK_CHARS
        with _row_path_forbidden(), mock.patch.object(loaders, "_CHUNK_CHARS", size):
            loaded = load_event_log(path, min_duration=min_duration, report=report)
        assert list(loaded.user_vocab) == list(reference.user_vocab)
        assert list(loaded.item_vocab) == list(reference.item_vocab)
        assert list(loaded) == list(reference)
        assert (report.n_rows, report.skipped) == (3000, [])
        # Every sequence is a view of one item array.
        bases = {id(s.items.base) for s in loaded if len(s)}
        assert len(bases) == 1

    def test_dirty_log_takes_the_row_path(self, tmp_path):
        path = _write(tmp_path / "log.tsv", 'u\ti\t1\n"v"\tj\t2\n')
        with mock.patch.object(loaders.csv, "reader", wraps=loaders.csv.reader) as spy:
            load_event_log(path)
        assert spy.called
