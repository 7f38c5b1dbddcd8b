"""Property tests: serialisation round trips (traces, LaTeX escapes)."""

from hypothesis import given, settings, strategies as st

from repro.analysis.latex import escape
from repro.workloads.tracefile import read_trace_chunks, write_trace
from tests.oracle import pairs


def read_trace(path):
    """The ``(kind, vaddr)`` records of a trace file, in order."""
    return list(pairs(read_trace_chunks(path)))

references = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2**63 - 1)),
    max_size=300,
)


@settings(max_examples=50, deadline=None)
@given(references)
def test_trace_round_trip(tmp_path_factory, refs):
    path = tmp_path_factory.mktemp("traces") / "t.bin"
    count = write_trace(path, refs)
    assert count == len(refs)
    assert list(read_trace(path)) == refs


@settings(max_examples=50, deadline=None)
@given(references, references)
def test_trace_overwrite_is_clean(tmp_path_factory, first, second):
    # Re-recording over an existing file must leave exactly the new
    # stream (stale bytes from a longer old file must not leak).
    path = tmp_path_factory.mktemp("traces") / "t.bin"
    write_trace(path, first)
    write_trace(path, second)
    assert list(read_trace(path)) == second


latex_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=60,
)


@given(latex_text)
def test_escape_output_has_no_bare_specials(text):
    escaped = escape(text)
    # After escaping, specials only appear in sanctioned commands.
    stripped = (
        escaped.replace(r"\textbackslash{}", "")
        .replace(r"\textasciitilde{}", "")
        .replace(r"\textasciicircum{}", "")
        .replace(r"\&", "").replace(r"\%", "").replace(r"\$", "")
        .replace(r"\#", "").replace(r"\_", "")
        .replace(r"\{", "").replace(r"\}", "")
    )
    for char in "&%$#_{}\\~^":
        assert char not in stripped, (text, escaped)


@given(latex_text)
def test_escape_is_idempotent_on_clean_text(text):
    clean = "".join(
        ch for ch in text if ch not in "&%$#_{}\\~^"
    )
    assert escape(clean) == clean
