"""Reference faults resolve on the chunked engine's inline miss path.

Under MISS and REF a miss to a mapped page whose reference bit is
clear sets the bit through the reference policy right after the
in-cache PTE walk, without the translator or ``cache.fill``.  These
tests pin that path against the frozen scalar oracle
(``tests/oracle.py``) and check that protection faults raised
mid-chunk leave the same books.  The translator walks page faults
only: once per fault, never for a resident page.
"""

import pytest

from repro.common.errors import ProtectionFault
from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.translation.incache import InCacheTranslator
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses

from tests.conftest import (
    BLOCK,
    TINY_CACHE,
    TINY_PAGE,
    simple_space,
    tiny_config,
)
from tests.machine.test_chunked_equivalence import machine_state
from tests.oracle import scalar_run

MAINTAINING_POLICIES = ("MISS", "REF")


@pytest.fixture
def translate_calls(monkeypatch):
    """Addresses passed to ``InCacheTranslator.translate``, per
    machine cache name."""
    calls = {}
    original = InCacheTranslator.translate

    def spy(self, vaddr):
        calls.setdefault(self.cache.name, []).append(vaddr)
        return original(self, vaddr)

    monkeypatch.setattr(InCacheTranslator, "translate", spy)
    return calls


def daemon_trace(regions, count):
    """Reads striding over 24 heap pages in the 32-line cache.

    Nearly every reference misses on a page that is already mapped,
    and a 64-reference poll interval lets the daemon clear reference
    bits of resident pages between them (under REF it also flushes
    the pages)."""
    heap = regions["heap"].start
    return [(READ, heap + (i * 37 % 96) * 32) for i in range(count)]


class TestDaemonClearedBits:
    @pytest.mark.parametrize("ref", MAINTAINING_POLICIES)
    def test_chunked_matches_tuple_oracle(self, ref, translate_calls):
        space_map, regions = simple_space()
        trace = daemon_trace(regions, 3000)
        oracle = SpurMachine(
            tiny_config(reference_policy=ref, daemon_poll_refs=64),
            space_map, name="oracle",
        )
        scalar_run(oracle, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(
            tiny_config(reference_policy=ref, daemon_poll_refs=64),
            space_map2, name="chunked",
        )
        chunked.run_chunks(chunk_accesses(iter(trace), 256))

        assert machine_state(chunked) == machine_state(oracle)
        faults = chunked.counters.read(Event.REFERENCE_FAULT)
        assert chunked.counters.read(Event.REFERENCE_CLEAR) > 0
        assert faults > 0
        # Only first touches (page faults) take the structural path;
        # every reference fault resolved inline.
        page_faults = chunked.counters.read(Event.PAGE_FAULT)
        assert len(translate_calls["chunked.cache"]) == page_faults
        assert len(translate_calls["oracle.cache"]) == (
            oracle.counters.read(Event.TRANSLATION)
        )


def cleared_reference(ref, runner):
    """Map two conflicting pages, clear the first one's reference
    bit, then re-reference it: a reference-fault miss on a valid PTE.

    ``runner(machine, refs)`` pushes references through one protocol.
    Returns ``(machine, pte, vaddr)``."""
    space_map, regions = simple_space()
    machine = SpurMachine(tiny_config(reference_policy=ref), space_map)
    heap = regions["heap"].start
    first, conflict = heap, heap + TINY_CACHE
    runner(machine, [(READ, first), (READ, conflict)])
    vpn = first >> machine.page_bits
    pte = machine.page_table.entry(vpn)
    assert pte.valid and pte.referenced
    machine.reference_policy.clear_reference(machine, vpn, pte)
    assert not pte.referenced
    assert machine.cache.probe(first) < 0
    return machine, pte, first


def run_tuples(machine, refs):
    scalar_run(machine, refs)


def run_flat(machine, refs):
    machine.run_chunks(chunk_accesses(iter(refs), 8))


class TestReferenceFaultMiss:
    @pytest.mark.parametrize("ref", MAINTAINING_POLICIES)
    def test_does_not_call_the_translator(self, ref, monkeypatch):
        machine, pte, vaddr = cleared_reference(ref, run_flat)
        faults = machine.counters.read(Event.REFERENCE_FAULT)
        cycles = machine.cycles
        calls = []

        def refuse(self, address):
            calls.append(address)
            raise AssertionError("reference fault took the slow path")

        monkeypatch.setattr(InCacheTranslator, "translate", refuse)
        run_flat(machine, [(READ, vaddr)])
        assert calls == []
        assert pte.referenced
        assert machine.counters.read(Event.REFERENCE_FAULT) == faults + 1
        assert machine.cache.probe(vaddr) >= 0
        assert machine.cycles - cycles >= (
            machine.fault_timing.reference_fault
        )

    @pytest.mark.parametrize("ref", MAINTAINING_POLICIES)
    @pytest.mark.parametrize("kind", [IFETCH, READ, WRITE])
    def test_matches_tuple_oracle(self, ref, kind):
        oracle, _, vaddr = cleared_reference(ref, run_tuples)
        run_tuples(oracle, [(kind, vaddr)])
        chunked, _, vaddr = cleared_reference(ref, run_flat)
        run_flat(chunked, [(kind, vaddr)])
        assert machine_state(chunked) == machine_state(oracle)
        assert chunked.counters.read(Event.REFERENCE_FAULT) == 1


def fault_trace(regions):
    """Warm-up, then a chunk of inline misses with a write to the
    read-only code region in the middle."""
    heap = regions["heap"].start
    code = regions["code"].start
    warm = [(IFETCH, code)] + [
        (READ, heap + page * 128) for page in range(16)
    ]
    conflicts = [(READ, heap + (i * 37 % 64) * 32) for i in range(200)]
    return warm, conflicts + [(WRITE, code + 64)] + conflicts


class TestProtectionFaultMidChunk:
    @pytest.mark.parametrize("ref", ("MISS", "REF", "NOREF"))
    def test_books_match_tuple_path(self, ref, translate_calls):
        def build(name):
            space_map, regions = simple_space()
            machine = SpurMachine(
                tiny_config(reference_policy=ref, daemon_poll_refs=64),
                space_map, name=name,
            )
            return machine, fault_trace(regions)

        oracle, (warm, faulting) = build("oracle")
        scalar_run(oracle, warm)
        with pytest.raises(ProtectionFault):
            scalar_run(oracle, faulting)

        chunked, (warm, faulting) = build("chunked")
        chunked.run_chunks(chunk_accesses(iter(warm), 512))
        warm_calls = len(translate_calls["chunked.cache"])
        with pytest.raises(ProtectionFault):
            chunked.run_chunks(chunk_accesses(iter(faulting), 512))

        assert machine_state(chunked) == machine_state(oracle)
        # The faulting write's page is resident, so its walk ran
        # inline like every miss of the chunk: the translator ran
        # once per page fault and never for the faulting chunk.
        assert len(translate_calls["chunked.cache"]) == warm_calls
        assert warm_calls == chunked.counters.read(Event.PAGE_FAULT)
        assert chunked.counters.read(Event.BLOCK_FILL) > 100


def pte_install_over_dirty_block(runner, name):
    """Map a heap page, dirty a block of another page in the line the
    page's PTE block maps to (evicting the PTE block), then read a
    fresh block of the page: its walk misses on the PTE and installs
    the PTE block over the dirty one, writing it back.

    ``runner(machine, refs)`` pushes references through one protocol.
    Returns the machine."""
    space_map, regions = simple_space()
    machine = SpurMachine(tiny_config(), space_map, name=name)
    cache = machine.cache
    heap = regions["heap"].start
    page = heap + 8 * TINY_PAGE
    vpn = page >> machine.page_bits
    pte_vaddr = machine.page_table.layout.pte_vaddr(vpn)
    line = cache.line_index(pte_vaddr)
    dirty = next(
        vaddr for vaddr in range(heap, page, BLOCK)
        if cache.line_index(vaddr) == line
    )
    fresh = next(
        page + offset for offset in range(BLOCK, TINY_PAGE, BLOCK)
        if cache.line_index(page + offset) != line
    )
    runner(machine, [(READ, page), (WRITE, dirty)])
    assert cache.probe(dirty) == line and cache.block_dirty[line]
    write_backs = machine.counters.read(Event.WRITE_BACK)
    runner(machine, [(READ, fresh)])
    assert cache.probe(pte_vaddr) == line and cache.holds_pte[line]
    assert machine.counters.read(Event.WRITE_BACK) == write_backs + 1
    return machine


class TestInlinePteInstall:
    def test_evicting_a_dirty_block_matches_tuple_oracle(
        self, translate_calls
    ):
        oracle = pte_install_over_dirty_block(run_tuples, "oracle")
        chunked = pte_install_over_dirty_block(run_flat, "chunked")
        assert machine_state(chunked) == machine_state(oracle)
        # The translator walked the two page faults only; the fresh
        # read's walk ran inline.
        assert len(translate_calls["oracle.cache"]) == 3
        assert len(translate_calls["chunked.cache"]) == 2
