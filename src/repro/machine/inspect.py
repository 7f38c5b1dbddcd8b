"""Machine-state inspection: human-readable dumps for debugging.

When a policy misbehaves the question is always "what exactly is in
the cache / page table / frame table right now?"  These helpers
answer it in a few readable lines instead of a debugger session, and
the examples use them for narration.
"""

from collections import Counter

from repro.common.types import Protection


def cache_summary(cache):
    """One-paragraph census of a cache's tag state."""
    states = Counter()
    dirty_blocks = 0
    dirty_pages = 0
    pte_blocks = 0
    for index in cache.resident_lines():
        states[cache.state[index].name] += 1
        dirty_blocks += cache.block_dirty[index]
        dirty_pages += cache.page_dirty[index]
        pte_blocks += cache.holds_pte[index]
    resident = sum(states.values())
    lines = [
        f"{cache.name}: {resident}/{cache.num_lines} lines valid",
        f"  block-dirty {dirty_blocks}, page-dirty copies "
        f"{dirty_pages}, PTE blocks {pte_blocks}",
    ]
    if states:
        census = ", ".join(
            f"{name} {count}" for name, count in sorted(states.items())
        )
        lines.append(f"  coherency: {census}")
    return "\n".join(lines)


def cache_lines(cache, limit=16):
    """Tabular dump of the first ``limit`` valid lines."""
    rows = [
        f"{'line':>5} {'vaddr':>10} {'prot':>5} {'pgD':>3} "
        f"{'blkD':>4} {'state':>15} {'pte':>3}"
    ]
    shown = 0
    for index in cache.resident_lines():
        if shown >= limit:
            rows.append(f"  ... and "
                        f"{len(cache.resident_lines()) - limit} more")
            break
        rows.append(
            f"{index:>5} {cache.line_address(index):#10x} "
            f"{Protection(cache.prot[index]).name[:5]:>5} "
            f"{int(cache.page_dirty[index]):>3} "
            f"{int(cache.block_dirty[index]):>4} "
            f"{cache.state[index].name:>15} "
            f"{int(cache.holds_pte[index]):>3}"
        )
        shown += 1
    return "\n".join(rows)


def vm_summary(machine):
    """Census of the VM: residency, dirtiness, swap, daemon state."""
    vm = machine.vm
    resident = 0
    dirty = 0
    inactive = 0
    swapped = 0
    for vpn, page in vm.pages.items():
        if page.frame is not None:
            resident += 1
            if page.inactive:
                inactive += 1
            elif machine.page_table.lookup(vpn).is_modified():
                dirty += 1
        if page.in_swap:
            swapped += 1
    frame_table = vm.frame_table
    lines = [
        f"memory: {resident}/{frame_table.allocatable_frames} frames "
        f"used ({vm.allocator.free_count} free)",
        f"  dirty resident pages {dirty}, inactive {inactive}, "
        f"pages with swap images {swapped}",
        f"  daemon: {type(vm.daemon).__name__}, "
        f"{vm.daemon.runs} pressure runs, "
        f"{vm.daemon.pages_reclaimed} reclaimed",
    ]
    stats = machine.swap.stats
    lines.append(
        f"  paging I/O: {stats.page_ins} in / {stats.page_outs} out, "
        f"{stats.zero_fills} zero-fills"
    )
    return "\n".join(lines)


def machine_summary(machine):
    """Everything at a glance: cycles, mix, cache, VM."""
    mix = machine.reference_mix
    lines = [
        f"{machine.name}: {machine.references:,} refs, "
        f"{machine.cycles:,} cycles "
        f"({machine.cycles / max(1, machine.references):.2f}/ref)",
        f"  mix: {mix.ifetches:,} ifetch / {mix.reads:,} read / "
        f"{mix.writes:,} write",
        cache_summary(machine.cache),
        vm_summary(machine),
    ]
    return "\n".join(lines)
