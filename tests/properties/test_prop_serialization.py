"""Property tests: JSONL observation traces round-trip exactly."""

from hypothesis import given, settings, strategies as st

from repro.observe.report import read_trace
from repro.observe.sinks import JsonlSink

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)

values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)

events = st.builds(
    lambda event_type, fields: {**fields, "type": event_type},
    st.text(),
    st.dictionaries(st.text(), values, max_size=5),
)


def write_trace(path, trace, mode="w"):
    with JsonlSink(path, mode=mode) as sink:
        for event in trace:
            sink.emit(event)


@settings(max_examples=40, deadline=None)
@given(st.lists(events, max_size=8))
def test_trace_round_trip(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace(path, trace)
    assert read_trace(path) == trace


@settings(max_examples=40, deadline=None)
@given(st.lists(events, min_size=1, max_size=8),
       st.lists(events, max_size=3))
def test_trace_overwrite_is_clean(tmp_path_factory, first, second):
    # A fresh trace over a longer old one keeps none of the old
    # records; appending keeps both in order.
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace(path, first)
    write_trace(path, second)
    assert read_trace(path) == second
    write_trace(path, first, mode="a")
    assert read_trace(path) == second + first
