"""SweepLog: the interactive task's columnar sweep record and its memo."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import wire
from repro.workloads.interactive import SweepLog, SweepSample

ROWS = st.lists(
    st.tuples(
        # NaN, ±inf, -0.0, subnormals and values >= 1e16 included.
        st.floats(),
        st.floats(),
        st.integers(),
        st.integers(),
        st.integers(),
    ),
    max_size=20,
)


def _log(rows):
    log = SweepLog()
    for row in rows:
        log.record(*row)
    return log


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
@example(rows=[(-0.0, 5e-324, 0, -1, 10**20), (1e16, 2.2250738585072014e-308, 1, 2, 3)])
def test_repr_is_the_list_of_samples_repr(rows):
    assert repr(_log(rows)) == repr([SweepSample(*row) for row in rows])


@settings(max_examples=50, deadline=None)
@given(rows=ROWS)
def test_pickle_and_wire_keep_columns_and_memo(rows):
    log = _log(rows)
    text = repr(log)
    for copy in (pickle.loads(pickle.dumps(log)), wire.decode(wire.encode(log))):
        # Compared as text: NaN != NaN, and -0.0 == 0.0.
        assert repr(copy._columns()) == repr(log._columns())
        assert copy._text == text
        assert repr(copy) == text


def test_pickle_computes_the_memo_once():
    log = _log([(0.0, 0.5, 1, 2, 3)])
    assert log._text is None
    loaded = pickle.loads(pickle.dumps(log))
    assert log._text is not None and loaded._text == log._text


def test_wire_without_memo_sends_columns_only():
    log = _log([(0.0, 0.5, 1, 2, 3)])
    decoded = wire.decode(wire.encode(log))
    assert decoded._text is None
    assert repr(decoded) == repr(log)


def test_record_after_repr_refreshes_the_text():
    log = _log([(0.0, 0.5, 1, 2, 3)])
    before = repr(log)
    log.record(1.0, 0.25, 0, 0, 0)
    rows = [SweepSample(0.0, 0.5, 1, 2, 3), SweepSample(1.0, 0.25, 0, 0, 0)]
    assert repr(log) == repr(rows) != before
    restored = pickle.loads(pickle.dumps(log))
    restored.record(2.0, 0.125, 4, 5, 6)
    assert repr(restored) == repr(rows + [SweepSample(2.0, 0.125, 4, 5, 6)])


def test_behaves_like_the_list_it_replaces():
    rows = [SweepSample(0.0, 0.5, 9, 1, 0), SweepSample(0.6, 0.1, 0, 0, 2)]
    log = _log([(s.start_time, s.response_time, s.hard_faults, s.soft_faults, s.rescues)
                for s in rows])
    assert len(log) == 2 and bool(log) and not SweepLog()
    assert list(log) == rows and log == rows and rows == log
    assert log[0] == rows[0] and log[-1] == rows[-1]
    assert log[1:] == rows[1:] and isinstance(log[1:], SweepLog)
    assert SweepLog() == []
    assert log != rows[:1]
    with pytest.raises(IndexError):
        log[2]
    one = log[:1]
    # The figures' warm-up skip: a single sweep falls back to itself.
    assert (one[1:] or one) is one
    assert sum(s.response_time for s in log[1:] or log) == 0.1


def test_copy_is_independent():
    log = _log([(0.0, 0.5, 1, 2, 3)])
    repr(log)
    copy = log.copy()
    copy.record(1.0, 1.0, 0, 0, 0)
    assert len(log) == 1 and len(copy) == 2
    assert repr(log) == repr([SweepSample(0.0, 0.5, 1, 2, 3)])


def test_ragged_columns_are_rejected():
    with pytest.raises(ValueError):
        SweepLog([0.0], [0.5], [1], [2], [])
