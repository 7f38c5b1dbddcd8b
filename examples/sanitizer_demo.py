#!/usr/bin/env python3
"""Watch the runtime sanitizer catch a planted simulator bug.

The sanitizer (``repro.sanitize``) validates the model's structural
invariants while a simulation runs: the cache's nine parallel tag
arrays, Berkeley Ownership's global single-owner rule, the dirty-bit
policy's legal staleness directions, and the VM system's frame
accounting.  ``docs/invariants.md`` catalogues all of them.

This demo runs a healthy workload under the sanitizer, then corrupts
one tag-array slot the way a buggy code path would — marking a cached
block dirty without taking ownership — and shows the structured
``InvariantViolation`` that pinpoints the breach on the very next
reference to touch the line.

Run:
    python examples/sanitizer_demo.py
"""

import itertools

from repro.machine.config import scaled_config
from repro.machine.simulator import SpurMachine
from repro.sanitize import InvariantViolation, Sanitizer
from repro.workloads.base import READ
from repro.workloads.slc import SlcWorkload


def build():
    config = scaled_config(memory_ratio=48)
    instance = SlcWorkload().instantiate(config.page_bytes, seed=11)
    return SpurMachine(config, instance.space_map), instance


def main():
    machine, instance = build()
    sanitizer = Sanitizer(mode="full")
    sanitizer.attach(machine)

    print("1. A healthy run under the full-mode sanitizer")
    print("   ------------------------------------------")
    stream = instance.accesses()
    machine.run(itertools.islice(stream, 50_000))
    sanitizer.check_now()
    print(f"   {machine.references:,} references, "
          f"{sanitizer.line_checks:,} per-reference line checks, "
          f"{sanitizer.sweeps} full sweeps: no violations\n")

    print("2. Planting a bug: dirty block, ownership never acquired")
    print("   -----------------------------------------------------")
    cache = machine.cache
    index = next(iter(cache.resident_lines()))
    vaddr = cache.line_address(index)
    # Berkeley Ownership only permits dirty data in the OWNED states;
    # a write path that set block-dirty without the ownership
    # transaction would corrupt exactly like this.
    cache.block_dirty[index] = True
    cache.state[index] = 1                 # UNOWNED
    print(f"   corrupted line {index} (block {vaddr:#x}): "
          f"block_dirty=True, state=UNOWNED\n")

    print("3. The next reference to the line trips the sanitizer")
    print("   ---------------------------------------------------")
    try:
        machine.run([(READ, vaddr)])
        sanitizer.check_now()
    except InvariantViolation as violation:
        print("   InvariantViolation:")
        for line in str(violation).splitlines():
            print(f"     {line}")
        print(f"\n   invariant id: {violation.invariant}")
        print(f"   ref index:    {violation.ref_index}")
        return 0
    raise SystemExit("the sanitizer missed the planted corruption")


if __name__ == "__main__":
    raise SystemExit(main())
