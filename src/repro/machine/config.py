"""Machine configurations.

Two stock geometries:

* :func:`paper_config` — the SPUR prototype exactly as Table 2.1
  describes it: 128 KB direct-mapped cache, 32-byte blocks, 4 KB
  pages, 5/6/8 MB of main memory.
* :func:`scaled_config` — the same machine shrunk by a configurable
  linear factor (default 8) with all the ratios the paper's phenomena
  depend on preserved: blocks per page, pages per cache, memory-to-
  cache ratio.  Pure-Python simulation of the paper-scale workloads
  would need hundreds of millions of references per data point; the
  scaled machine reproduces the shapes in minutes (DESIGN.md §2).
"""

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.params import (
    CacheGeometry,
    FaultTiming,
    MemoryTiming,
    PageGeometry,
    WORD_BYTES,
)
from repro.common.units import KB, MB

#: Table 2.1 verbatim, for the bench that regenerates it.
TABLE_2_1 = (
    ("Cache Size", "128 Kbytes"),
    ("Associativity", "Direct Mapped"),
    ("Block Size", "32 bytes"),
    ("Page Size", "4 Kbytes"),
    ("Instruction Buffer", "Disabled"),
    ("Processor cycle time", "150ns"),
    ("Backplane cycle time", "125ns"),
    ("Time to first word", "3 cycles"),
    ("Time to next word", "1 cycle"),
)


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a :class:`SpurMachine`."""

    name: str = "spur-prototype"
    cache: CacheGeometry = field(default_factory=CacheGeometry)
    page_bytes: int = 4 * KB
    memory_bytes: int = 8 * MB
    wired_frames: int = 8
    memory_timing: MemoryTiming = field(default_factory=MemoryTiming)
    fault_timing: FaultTiming = field(default_factory=FaultTiming)
    flush_strategy: str = "tag-checked"   # or "tagless"
    dirty_policy: str = "SPUR"
    reference_policy: str = "MISS"
    #: Page-daemon water marks in frames; ``None`` selects the
    #: geometry-derived defaults at machine build time.
    low_water: Optional[int] = None
    high_water: Optional[int] = None
    #: Multiplier on per-line flush and per-word zero-fill costs.  A
    #: geometry-scaled machine has the same *number* of pages as the
    #: prototype but 1/scale as many blocks (and words) per page, so
    #: page-granularity software costs (flush-on-clear, zero filling)
    #: would come out 1/scale as expensive relative to everything else;
    #: this factor restores the paper-relative cost.  1 at paper scale.
    flush_cost_scale: int = 1
    #: References between periodic page-daemon maintenance passes
    #: (Sprite's daemon cleared reference bits on a timer, not only
    #: under memory pressure).  Any positive interval; 0 disables.
    daemon_poll_refs: int = 65536
    #: Page-table region bases in the global virtual space.
    pte_base: int = 0x8000_0000
    second_level_base: int = 0xC000_0000
    user_limit: int = 0x8000_0000

    def __post_init__(self):
        if self.page_bytes < self.cache.block_bytes:
            raise ConfigurationError("page smaller than a cache block")
        if self.memory_bytes % self.page_bytes:
            raise ConfigurationError(
                "memory must be a whole number of pages"
            )
        frames = self.memory_bytes // self.page_bytes
        if self.wired_frames >= frames:
            raise ConfigurationError("wired frames consume all memory")
        if self.daemon_poll_refs < 0:
            raise ConfigurationError(
                "daemon_poll_refs must be 0 (disabled) or positive"
            )

    @property
    def num_frames(self):
        return self.memory_bytes // self.page_bytes

    @property
    def page_geometry(self):
        return PageGeometry(self.page_bytes, self.cache.block_bytes)

    @property
    def zero_fill_cycles(self):
        """CPU cycles to zero one page (one store per word).

        Scaled by ``flush_cost_scale`` so a shrunken page costs what
        the prototype's 4 KB page did relative to the rest of the run.
        """
        return (self.page_bytes // WORD_BYTES) * self.flush_cost_scale

    def with_memory(self, memory_bytes):
        """The same machine with a different memory size."""
        return replace(self, memory_bytes=memory_bytes)

    def with_policies(self, dirty=None, reference=None):
        """The same machine with different bit-maintenance policies."""
        changes = {}
        if dirty is not None:
            changes["dirty_policy"] = dirty
        if reference is not None:
            changes["reference_policy"] = reference
        return replace(self, **changes) if changes else self


def paper_config(memory_mb=8, **overrides):
    """The SPUR prototype of Table 2.1 with ``memory_mb`` of memory."""
    config = MachineConfig(
        name=f"spur-{memory_mb}mb",
        cache=CacheGeometry(size_bytes=128 * KB, block_bytes=32),
        page_bytes=4 * KB,
        memory_bytes=memory_mb * MB,
        fault_timing=FaultTiming(page_io=130_000),
    )
    return replace(config, **overrides) if overrides else config


def scaled_config(memory_ratio=40, scale=8, **overrides):
    """A geometry-preserving shrink of the prototype.

    Parameters
    ----------
    memory_ratio:
        Main-memory size as a multiple of the cache size.  The paper's
        5, 6, and 8 MB points against a 128 KB cache are ratios 40,
        48, and 64.
    scale:
        Linear shrink factor applied to the cache and page (block size
        is kept at 32 bytes — it is the unit of the phenomena, not a
        free parameter).

    With the default ``scale=8``: 16 KB cache, 512-byte pages
    (16 blocks per page, 32 pages of cache), and memory of
    ``memory_ratio * 16 KB``.
    """
    if scale < 1:
        raise ConfigurationError("scale must be >= 1")
    cache_bytes = (128 * KB) // scale
    page_bytes = (4 * KB) // scale
    config = MachineConfig(
        name=f"spur-scaled{scale}-r{memory_ratio}",
        cache=CacheGeometry(size_bytes=cache_bytes, block_bytes=32),
        page_bytes=page_bytes,
        memory_bytes=memory_ratio * cache_bytes,
        wired_frames=4,
        flush_cost_scale=scale,
        # Disk latency does not shrink with the machine; against the
        # shorter scaled runs we keep page I/O expensive relative to
        # compute, matching the paper's elapsed-time sensitivity to
        # paging (Table 4.1).
        fault_timing=FaultTiming(page_io=40_000),
    )
    return replace(config, **overrides) if overrides else config


def sun3_like_config(memory_mb=8, scale=8, **overrides):
    """A Sun-3-flavoured comparator machine.

    The paper repeatedly contrasts SPUR with the Sun-3 architecture:
    a direct-mapped virtual cache with synonym restrictions, 8 KB
    pages (twice SPUR's), and a hardware dirty-bit check on the first
    write to each cache block — our WRITE policy.  This preset builds
    that machine (geometry-scaled like :func:`scaled_config`) so the
    paper's "the Sun-3 mechanism is not justified" argument can be
    run as a machine-versus-machine comparison instead of a policy
    swap alone.

    The reference-bit side keeps SPUR's MISS approximation: the Sun-3
    kept reference bits in its memory-management RAM, which behaves
    comparably for the daemon's purposes.
    """
    if scale < 1:
        raise ConfigurationError("scale must be >= 1")
    cache_bytes = (64 * KB) // scale     # Sun-3/200 class cache
    page_bytes = (8 * KB) // scale       # 8 KB pages
    config = MachineConfig(
        name=f"sun3-like-{memory_mb}mb",
        cache=CacheGeometry(size_bytes=cache_bytes, block_bytes=32),
        page_bytes=page_bytes,
        memory_bytes=memory_mb * MB // scale,
        wired_frames=4,
        dirty_policy="WRITE",
        reference_policy="MISS",
        flush_cost_scale=scale,
        fault_timing=FaultTiming(page_io=40_000),
    )
    return replace(config, **overrides) if overrides else config


#: The paper's three measurement memory sizes, as cache ratios.
PAPER_MEMORY_RATIOS = {5: 40, 6: 48, 8: 64}
