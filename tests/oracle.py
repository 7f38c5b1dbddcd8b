"""The frozen scalar oracle: the simulator's original per-tuple loop.

:func:`scalar_run` is the reference loop the simulator ran before
flat chunks became its only stream format.  It takes ``(kind,
vaddr)`` tuples, resolves every miss through :func:`scalar_miss` (the machine's former scalar miss
path: the translator's walk, then ``VirtualCache.fill``, all with live
counters) and every unsettled write hit through
:meth:`SpurMachine._slow_write_hit`, and keeps no deferred books.
The production engine (``run_chunks`` → ``_run_refs``) must match
it bit for bit; the equivalence tests and the golden
``scalar-oracle`` mode check that it does.

Keep this loop frozen: a change here moves the yardstick, not the
simulator.
"""

from repro.common.errors import ProtectionFault
from repro.common.types import AccessKind, Protection
from repro.counters.events import Event

_WRITE = int(AccessKind.WRITE)
_RW = int(Protection.READ_WRITE)


def scalar_miss(machine, kind, vaddr):
    """Reference missed in the cache: translate, maybe fault, fill."""
    counters = machine.counters
    if kind == 0:
        counters.increment(Event.IFETCH_MISS)
    elif kind == 1:
        counters.increment(Event.READ_MISS)
    else:
        counters.increment(Event.WRITE_MISS)

    result = machine.translator.translate(vaddr)
    cycles = result.cycles
    pte = result.pte

    vpn = vaddr >> machine.page_bits
    if not pte.valid:
        cycles += machine.vm.handle_page_fault(vpn)

    cycles += machine.reference_policy.on_cache_miss(machine, pte)

    is_write = kind == _WRITE
    if is_write:
        page = machine.vm.page(vpn)
        if not page.writable:
            raise ProtectionFault(vaddr, "write to read-only region")
        counters.increment(Event.WRITE_MISS_FILL)
        cycles += machine.dirty_policy.on_write_miss(machine, pte, page)

    _, fill_cycles = machine.cache.fill(
        vaddr,
        pte.protection,
        page_dirty=machine.dirty_policy.fill_page_dirty(pte),
        by_write=is_write,
    )
    counters.increment(Event.BLOCK_FILL)
    return cycles + fill_cycles


def scalar_run(machine, accesses):
    """Simulate ``(kind, vaddr)`` references on *machine*, one by one.

    ``kind`` is an ``int(AccessKind)``.  Polls the page daemon before
    every ``daemon_poll_refs``-th reference of the call, exactly as
    ``SpurMachine.run_chunks`` does.  Returns the number of references
    processed.
    """
    cache = machine.cache
    line_block = cache.line_block
    block_dirty = cache.block_dirty
    page_dirty = cache.page_dirty
    prot = cache.prot
    block_bits = cache.block_bits
    index_mask = cache.index_mask
    slow_write_hit = machine._slow_write_hit

    interval = machine.config.daemon_poll_refs
    poll = machine.vm.daemon.poll if interval else None
    # Countdown to the next daemon poll: the schedule polls before
    # every ``interval``-th reference of the call, for any positive
    # interval.  With polling disabled the countdown starts at
    # (float) infinity so the zero test below never fires.
    until_poll = interval if poll is not None else float("inf")

    cycles = 0
    kind_counts = [0, 0, 0]
    processed = 0
    for kind, vaddr in accesses:
        processed += 1
        until_poll -= 1
        if not until_poll:
            cycles += poll()
            until_poll = interval
        kind_counts[kind] += 1
        block = vaddr >> block_bits
        index = block & index_mask
        if line_block[index] == block:
            if kind != _WRITE:
                cycles += 1
                continue
            if (
                block_dirty[index]
                and page_dirty[index]
                and prot[index] == _RW
            ):
                cycles += 1
                continue
            cycles += 1 + slow_write_hit(index, vaddr)
            continue
        cycles += 1 + scalar_miss(machine, kind, vaddr)

    machine.cycles += cycles
    machine.references += processed
    machine.counters.increment(Event.INSTRUCTION_FETCH, kind_counts[0])
    machine.counters.increment(Event.PROCESSOR_READ, kind_counts[1])
    machine.counters.increment(Event.PROCESSOR_WRITE, kind_counts[2])
    return processed


def pairs(chunks):
    """Flatten flat ``array('q')`` chunks into one ``(kind, vaddr)``
    tuple per reference.

    A kind word ``4 * (n - 1)`` above ``WRITE`` is a fetch run: ``n``
    instruction fetches of consecutive 4-byte words from ``vaddr``
    (``repro.workloads.base``), expanded here without that module's
    help.
    """
    for chunk in chunks:
        it = iter(chunk)
        for kind, vaddr in zip(it, it):
            if kind > _WRITE:
                for word in range(kind // 4 + 1):
                    yield 0, vaddr + 4 * word
            else:
                yield kind, vaddr


def scalar_run_chunks(machine, chunks):
    """:func:`scalar_run` over a chunk stream.

    Has the signature of ``SpurMachine.run_chunks``, so a test can
    monkeypatch it in and send every run of a whole campaign through
    the oracle.
    """
    return scalar_run(machine, pairs(chunks))
