"""Exception hierarchy for the SPUR reproduction.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures without also swallowing Python
built-ins.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A machine, cache, or experiment configuration is inconsistent.

    Raised eagerly at construction time (for example, a cache size that
    is not a power of two, or a memory size smaller than one page) so
    that misconfiguration never surfaces as a silent simulation bug.
    """


class AddressError(ReproError):
    """An address is outside the range a component can represent."""


class ProtectionFault(ReproError):
    """A memory access violated the page protection and no policy
    handler chose to resolve it.

    In normal operation protection faults are consumed by the dirty-bit
    policy machinery (they are how the FAULT and FLUSH alternatives set
    dirty bits).  This exception escapes only for genuine violations,
    such as a write to a page mapped read-only with no emulation in
    effect.
    """

    def __init__(self, vaddr, message="protection violation"):
        super().__init__(f"{message} at virtual address {vaddr:#x}")
        self.vaddr = vaddr
        self.message = message

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not from the
        # formatted text, so the fault survives a trip back from a
        # pool worker.
        return type(self), (self.vaddr, self.message)


class TraceFormatError(ReproError):
    """A serialised trace file is malformed or truncated."""
