"""The structured error the runtime sanitizer raises.

A violation is a *simulator bug*, never a modeled hardware event: the
checked invariants hold by construction in the real SPUR hardware, so
any breach means some Python code path corrupted the model state.  The
exception therefore carries everything needed to debug without a
reproduction run: which invariant failed, on which machine (or cache,
or VM), at which reference index into the access stream, and a dump of
the state the check was looking at.
"""

from repro.common.errors import ReproError


class InvariantViolation(ReproError):
    """A machine-checked invariant does not hold.

    Parameters
    ----------
    invariant:
        Stable identifier of the violated invariant (for example
        ``cache.line-block-index`` or ``vm.frame-bijection``); the catalogue
        lives in ``docs/invariants.md``.
    message:
        Human-readable description of the specific breach.
    machine:
        Name of the machine/cache/bus/VM the state belongs to.
    ref_index:
        Index into the access stream at which the breach was detected
        (None for checks run outside a reference stream).
    state:
        Dict dump of the relevant state, rendered into ``str(exc)``.
    """

    def __init__(self, invariant, message, machine=None, ref_index=None,
                 state=None):
        self.invariant = invariant
        self.machine = machine
        self.ref_index = ref_index
        self.state = dict(state) if state else {}
        super().__init__(self._render(message))

    def _render(self, message):
        where = []
        if self.machine is not None:
            where.append(f"machine={self.machine}")
        if self.ref_index is not None:
            where.append(f"ref_index={self.ref_index}")
        header = f"[{self.invariant}] {message}"
        if where:
            header += f" ({', '.join(where)})"
        if self.state:
            dump = "\n".join(
                f"    {key} = {value!r}"
                for key, value in sorted(self.state.items())
            )
            header += f"\n  state dump:\n{dump}"
        return header
