"""The invariant catalogue: pure check functions over live model state.

Each function inspects one subsystem and raises
:class:`~repro.sanitize.violation.InvariantViolation` on the first
breach it finds.  The functions mutate nothing and allocate only on
the failure path, so the sanitizer can run them at reference
granularity.  ``docs/invariants.md`` documents every invariant checked
here together with its identifier.

The checks deliberately reach into private state (the allocator's free
list, the frame table's owner array): the sanitizer is privileged
debugging machinery, not an API consumer.
"""

from repro.cache.coherence import CoherencyState
from repro.cache.columns import BOOL_COLUMNS, TAG_ARRAYS
from repro.sanitize.violation import InvariantViolation

_INVALID = int(CoherencyState.INVALID)
_OWNED_SHARED = int(CoherencyState.OWNED_SHARED)


def _line_state(cache, index):
    """Raw dump of one line's parallel-array slots (may be corrupt)."""
    return {
        field: getattr(cache, field)[index]
        for field in TAG_ARRAYS
    }


def check_line(cache, index, ref_index=None):
    """Validate the parallel-array slots of one cache line.

    ``line_block`` is the line's only tag: the resident block number,
    or -1 when the line is invalid.  The per-line legality rules:

    * an invalid line is fully quiescent — block number exactly -1,
      coherency state ``INVALID`` and block-dirty clear
      (``cache.invalid-quiescent``);
    * a valid line has a non-``INVALID`` coherency state
      (``cache.valid-state``);
    * no line is ``OWNED_SHARED``: only another board's read can
      share an owned block, and the machine has one board, so a write
      hit's ownership transition is UNOWNED to OWNED_EXCLUSIVE or
      nothing (``cache.no-shared-owner``);
    * a valid line's block maps to this line, ``line_block[i] &
      index_mask == i``, so the reference loop's single-compare hit
      test is the full direct-mapped tag check
      (``cache.line-block-index``);
    * the protection slot holds a legal two-bit encoding
      (``cache.protection-encoding``);
    * a block-dirty line is owned — Berkeley Ownership permits dirty
      data only in an OWNED state, which is also the "UNOWNED
      implies memory up to date" half of the protocol
      (``cache.dirty-owned``).
    """
    block = cache.line_block[index]
    state = cache.state[index]
    dirty = cache.block_dirty[index]
    if block < 0:
        if block != -1 or state != _INVALID or dirty:
            raise InvariantViolation(
                "cache.invalid-quiescent",
                f"invalid line {index} keeps block-number/state/dirty "
                f"residue",
                machine=cache.name,
                ref_index=ref_index,
                state=_line_state(cache, index),
            )
        return
    if state == _INVALID:
        raise InvariantViolation(
            "cache.valid-state",
            f"valid line {index} has coherency state INVALID",
            machine=cache.name,
            ref_index=ref_index,
            state=_line_state(cache, index),
        )
    if state == _OWNED_SHARED:
        raise InvariantViolation(
            "cache.no-shared-owner",
            f"line {index} is OWNED_SHARED, which needs a second "
            f"cache to hold a copy",
            machine=cache.name,
            ref_index=ref_index,
            state=_line_state(cache, index),
        )
    if block & cache.index_mask != index:
        raise InvariantViolation(
            "cache.line-block-index",
            f"line {index} holds block {block:#x}, which maps to line "
            f"{block & cache.index_mask}",
            machine=cache.name,
            ref_index=ref_index,
            state=_line_state(cache, index),
        )
    if not 0 <= cache.prot[index] <= 3:
        raise InvariantViolation(
            "cache.protection-encoding",
            f"line {index}: protection {cache.prot[index]!r} is not a "
            f"two-bit encoding",
            machine=cache.name,
            ref_index=ref_index,
            state=_line_state(cache, index),
        )
    if dirty and state < _OWNED_SHARED:
        raise InvariantViolation(
            "cache.dirty-owned",
            f"line {index} is block-dirty but not owned "
            f"(state {state!r}); an UNOWNED copy must match memory",
            machine=cache.name,
            ref_index=ref_index,
            state=_line_state(cache, index),
        )


def check_cache_arrays(cache, ref_index=None):
    """Validate a whole cache: array lengths plus every line.

    Invariant ``cache.array-lengths``: the six parallel tag arrays all
    have exactly ``num_lines`` entries — the structural precondition of
    the hot loop's unguarded indexing.
    """
    num_lines = cache.num_lines
    for field in TAG_ARRAYS:
        length = len(getattr(cache, field))
        if length != num_lines:
            raise InvariantViolation(
                "cache.array-lengths",
                f"parallel array {field!r} has {length} entries, "
                f"expected {num_lines}",
                machine=cache.name,
                ref_index=ref_index,
            )
    check_column_store(cache, ref_index=ref_index)
    for index in range(num_lines):
        check_line(cache, index, ref_index=ref_index)


def check_column_store(cache, ref_index=None):
    """Validate the cache's flat column store and its aliases.

    Invariant ``cache.column-store-agreement``, in two parts:

    * every flat tag-array attribute on the cache is the *same
      object* as the corresponding :class:`~repro.cache.columns.
      ColumnStore` column — the reference loop and the slow paths
      must mutate one buffer, and an accidental rebinding
      (``cache.line_block = [...]``) would silently desynchronize
      them;
    * flag columns hold only 0/1 — any other byte means a writer
      stored something other than a boolean into a flag.
    """
    columns = getattr(cache, "columns", None)
    if columns is None:
        return
    for name, column in columns.columns():
        if getattr(cache, name) is not column:
            raise InvariantViolation(
                "cache.column-store-agreement",
                f"cache attribute {name!r} was rebound away from its "
                f"column-store buffer",
                machine=cache.name,
                ref_index=ref_index,
            )
    for name in BOOL_COLUMNS:
        column = getattr(columns, name)
        for index, value in enumerate(column):
            if value > 1:
                raise InvariantViolation(
                    "cache.column-store-agreement",
                    f"flag column {name!r} holds non-boolean value "
                    f"{value} at line {index}",
                    machine=cache.name,
                    ref_index=ref_index,
                )


def check_dirty_policy(machine, ref_index=None):
    """Validate SPUR dirty-bit and protection copies against the PTEs.

    For every resident data block of an ordinary (non-page-table) page:

    * ``dirty.resident-mapped`` — the page is mapped: page flushes
      are mandatory on eviction precisely so a VIVT cache never hits
      on an unmapped page;
    * ``dirty.copy-not-cleaner`` — if the cached page-dirty copy is
      set, the PTE records the page as modified.  The converse (clear
      copy, dirty PTE) is the legal staleness the paper's dirty-bit
      misses repair; this direction would lose data at replacement.
      Skipped for policies whose cached copy does not track the PTE
      (``cached_dirty_tracks_pte`` is False, i.e. WRITE);
    * ``dirty.protection-not-weaker`` — the cached protection copy is
      never more permissive than the PTE.  Staler-but-stronger copies
      are the excess-fault mechanism; a weaker copy would let writes
      bypass a protection downgrade.
    """
    page_table = machine.page_table
    user_limit = page_table.layout.user_limit
    page_bits = machine.page_bits
    tracks_pte = machine.dirty_policy.cached_dirty_tracks_pte
    cache = machine.cache
    for index in range(cache.num_lines):
        if cache.line_block[index] < 0 or cache.holds_pte[index]:
            continue
        vaddr = cache.line_address(index)
        if vaddr >= user_limit:
            continue
        pte = page_table.lookup(vaddr >> page_bits)
        if not pte.valid:
            raise InvariantViolation(
                "dirty.resident-mapped",
                f"line {index} caches block {vaddr:#x} of an "
                f"unmapped page (vpn {vaddr >> page_bits})",
                machine=cache.name,
                ref_index=ref_index,
                state=_line_state(cache, index),
            )
        if (
            tracks_pte
            and cache.page_dirty[index]
            and not pte.is_modified()
        ):
            raise InvariantViolation(
                "dirty.copy-not-cleaner",
                f"line {index} claims page {vaddr >> page_bits} "
                f"dirty but its PTE says clean",
                machine=cache.name,
                ref_index=ref_index,
                state=dict(_line_state(cache, index),
                           pte=repr(pte)),
            )
        if cache.prot[index] > int(pte.protection):
            raise InvariantViolation(
                "dirty.protection-not-weaker",
                f"line {index} caches protection "
                f"{cache.prot[index]} above the PTE's "
                f"{int(pte.protection)} for page "
                f"{vaddr >> page_bits}",
                machine=cache.name,
                ref_index=ref_index,
                state=dict(_line_state(cache, index),
                           pte=repr(pte)),
            )


def check_vm(vm, ref_index=None):
    """Validate the VM system: frames, free list, PTEs, and swap.

    * ``vm.frame-bijection`` — the frame table and the per-page
      records are mutual inverses;
    * ``vm.free-list-disjoint`` — the allocator's free list holds no
      duplicates, no wired frames, and no occupied frames, and
      together with the occupied frames exactly covers the
      allocatable range;
    * ``vm.pte-frame-agreement`` — a valid PTE's physical page number
      is the frame its page record holds;
    * ``vm.swap-image`` — a page marked in-swap has a swap image;
    * ``vm.clock-resident`` — every page the clock daemon tracks as
      resident has a valid PTE whose frame it owns, so the daemon's
      scans read the PTE without a validity guard.
    """
    frame_table = vm.frame_table
    name = "vm"

    for vpn, page in vm.pages.items():
        pte = vm.page_table.lookup(vpn)
        if page.frame is not None:
            if frame_table.owner(page.frame) != vpn:
                raise InvariantViolation(
                    "vm.frame-bijection",
                    f"page {vpn} claims frame {page.frame} but the "
                    f"frame table records owner "
                    f"{frame_table.owner(page.frame)!r}",
                    machine=name, ref_index=ref_index,
                )
        if pte.valid:
            if page.frame is None:
                raise InvariantViolation(
                    "vm.pte-frame-agreement",
                    f"page {vpn} has a valid PTE but no frame",
                    machine=name, ref_index=ref_index,
                    state={"pte": repr(pte)},
                )
            if pte.ppn != page.frame:
                raise InvariantViolation(
                    "vm.pte-frame-agreement",
                    f"page {vpn}: PTE maps frame {pte.ppn} but the "
                    f"page record holds frame {page.frame}",
                    machine=name, ref_index=ref_index,
                    state={"pte": repr(pte)},
                )
        if page.in_swap and not vm.swap.has_image(vpn):
            raise InvariantViolation(
                "vm.swap-image",
                f"page {vpn} is marked in-swap but the swap device "
                f"holds no image for it",
                machine=name, ref_index=ref_index,
            )

    occupied = {}
    for frame in range(frame_table.num_frames):
        vpn = frame_table.owner(frame)
        if vpn is None:
            continue
        occupied[frame] = vpn
        page = vm.pages.get(vpn)
        if page is None or page.frame != frame:
            raise InvariantViolation(
                "vm.frame-bijection",
                f"frame {frame} records owner {vpn} but that page "
                f"holds frame "
                f"{page.frame if page is not None else None!r}",
                machine=name, ref_index=ref_index,
            )

    for vpn in vm.daemon._positions:
        pte = vm.page_table.peek(vpn)
        if (
            pte is None
            or not pte.valid
            or frame_table.owner(pte.ppn) != vpn
        ):
            raise InvariantViolation(
                "vm.clock-resident",
                f"the page daemon tracks page {vpn} as resident but "
                f"its PTE is {pte!r}",
                machine=name, ref_index=ref_index,
            )

    free = vm.allocator.free_frames
    free_set = set(free)
    if len(free_set) != len(free):
        raise InvariantViolation(
            "vm.free-list-disjoint",
            "the free list contains duplicate frames",
            machine=name, ref_index=ref_index,
            state={"free": sorted(free)},
        )
    overlap = free_set & set(occupied)
    if overlap:
        raise InvariantViolation(
            "vm.free-list-disjoint",
            f"frames {sorted(overlap)} are simultaneously free and "
            f"occupied",
            machine=name, ref_index=ref_index,
        )
    wired = [f for f in free_set if f < frame_table.wired_frames]
    if wired:
        raise InvariantViolation(
            "vm.free-list-disjoint",
            f"wired frames {sorted(wired)} are on the free list",
            machine=name, ref_index=ref_index,
        )
    covered = len(free_set) + len(occupied)
    if covered != frame_table.allocatable_frames:
        raise InvariantViolation(
            "vm.free-list-disjoint",
            f"free ({len(free_set)}) + occupied ({len(occupied)}) "
            f"frames do not cover the {frame_table.allocatable_frames} "
            f"allocatable frames",
            machine=name, ref_index=ref_index,
        )
