"""Property test: the sanitizer is silent on legal executions.

Arbitrary reference streams run under every sanitizer mode (in full
mode every reference's cache footprint is checked in-line, and every
mode sweeps the whole state at stream end).  If the simulator is
correct, no stream may raise
``InvariantViolation`` — any counterexample Hypothesis shrinks here is
a real model bug, not a test artifact.
"""

from hypothesis import given, settings, strategies as st

from repro.sanitize import Sanitizer
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses

from tests.conftest import TINY_PAGE, make_machine, simple_space

#: Pages per region the generated offsets stay inside (the tiny
#: address space's heap has 32 pages, code 4, stack 2).
REGION_SPANS = (("heap", 32), ("code", 4), ("stack", 2))

references = st.lists(
    st.tuples(
        st.sampled_from([IFETCH, READ, WRITE]),
        st.integers(0, len(REGION_SPANS) - 1),
        st.integers(0, 127),            # word offset within the span
    ),
    max_size=120,
)


def materialise(refs, regions):
    stream = []
    for kind, region_index, word in refs:
        name, pages = REGION_SPANS[region_index]
        if name == "code" and kind == WRITE:
            kind = READ         # a write to code is a real fault
        offset = (word * 4) % (pages * TINY_PAGE)
        stream.append((kind, regions[name].start + offset))
    return stream


@settings(max_examples=25, deadline=None)
@given(refs=references,
       mode=st.sampled_from(["full", "sampled", "epoch"]))
def test_uniprocessor_modes_silent(refs, mode):
    space_map, regions = simple_space()
    machine = make_machine(space_map)
    sanitizer = Sanitizer(mode=mode)
    sanitizer.attach(machine)
    # 16-reference chunks: sampled mode spot-checks each one's last.
    machine.run_chunks(
        chunk_accesses(iter(materialise(refs, regions)), 16)
    )
    sanitizer.check_now()
