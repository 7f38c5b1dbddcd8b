"""The sixteen-counter bank with mode selection and 32-bit wraparound.

Two usage styles are supported:

* **Hardware-faithful**: program a mode with :meth:`set_mode`, run, and
  read the sixteen visible counters.  Events outside the selected mode
  are dropped, exactly as on the chip — this is what forces the paper's
  multiple-runs-per-measurement methodology.
* **Omniscient** (``mode=None``): every event is recorded.  The
  experiment drivers use this so one simulation pass yields the whole
  of Table 3.3; tests verify the two styles agree on shared events.
"""

from typing import Dict, Optional

from repro.counters.events import Event, MODE_SETS, NUM_COUNTERS, NUM_MODES

#: Counters are 32 bits wide on the chip and wrap silently.
COUNTER_MODULUS = 2**32

#: Every event, at the index of its slot (the enum's values run
#: 0, 1, 2, ... in definition order).
_EVENTS = tuple(Event)


class CounterSnapshot:
    """An immutable copy of counter values at a point in time.

    Supports subtraction, producing the per-interval deltas the
    experiment drivers report.  Deltas honour 32-bit wraparound: a
    counter that wrapped once between snapshots still yields the true
    interval count, provided fewer than 2**32 events occurred (the same
    assumption the SPUR measurement scripts made).
    """

    def __init__(self, values):
        self._values: Dict[Event, int] = dict(values)

    def __getitem__(self, event):
        return self._values.get(event, 0)

    def __contains__(self, event):
        return event in self._values

    def events(self):
        """The events this snapshot holds a value for."""
        return self._values.keys()

    def __sub__(self, earlier):
        if not isinstance(earlier, CounterSnapshot):
            return NotImplemented
        deltas = {}
        for event, value in self._values.items():
            before = earlier[event]
            deltas[event] = (value - before) % COUNTER_MODULUS
        return CounterSnapshot(deltas)

    def as_dict(self):
        """Return a plain ``{Event: count}`` dictionary copy."""
        return dict(self._values)

    def as_name_dict(self):
        """Return ``{event name: count}``, sorted by name.

        The JSON-friendly rendering trace sinks and reports use;
        inverse of ``{Event[name]: count for ...}``.
        """
        return {
            event.name: count
            for event, count in sorted(
                self._values.items(), key=lambda item: item[0].name
            )
        }

    def __repr__(self):
        parts = ", ".join(
            f"{event.name}={value}"
            for event, value in sorted(self._values.items())
        )
        return f"CounterSnapshot({parts})"


class PerformanceCounters:
    """The cache controller's counter bank.

    Parameters
    ----------
    mode:
        Counter mode (0..3) selecting one of :data:`MODE_SETS`, or
        ``None`` for the omniscient simulation-only mode that counts
        every event.

    The counting primitive is :attr:`slots`: one raw count per event,
    indexed by ``int(event)``, that slow-path code adds to in place
    (``slots[_PAGE_FAULT] += 1`` with ``_PAGE_FAULT =
    int(Event.PAGE_FAULT)`` bound at module level) at the cost of a
    list-slot add; :meth:`increment` is the same add behind a call.
    A slot holds ``False`` until its first add, so an add of 0 still
    makes the event appear, and it grows without bound: the 32-bit
    wrap and the mode's filter are applied when counts are read.
    """

    def __init__(self, mode: Optional[int] = None):
        #: Raw counts, never rebound (callers alias it).
        self.slots = [False] * len(_EVENTS)
        # The slots as of the last mode change: an event the mode
        # hides reads, and on the next change rolls back to, this.
        self._marks = list(self.slots)
        self._mode: Optional[int] = None
        self._visible = None
        self.set_mode(mode)

    @property
    def mode(self):
        return self._mode

    def set_mode(self, mode: Optional[int]):
        """Select a counter mode.

        Changing modes does *not* clear the counters (the hardware did
        not either); call :meth:`reset` explicitly.  Events the old
        mode hid are dropped here.
        """
        if mode is not None and mode not in MODE_SETS:
            raise ValueError(
                f"mode must be None or 0..{NUM_MODES - 1}, got {mode!r}"
            )
        slots = self.slots
        slots[:] = self._values()
        self._marks[:] = slots
        self._mode = mode
        self._visible = None if mode is None else frozenset(MODE_SETS[mode])

    def _values(self):
        """Raw counts as the mode sees them (``False`` if never
        counted)."""
        if self._visible is None:
            return list(self.slots)
        return [
            value if event in self._visible else mark
            for event, value, mark in zip(_EVENTS, self.slots, self._marks)
        ]

    def increment(self, event, amount=1):
        """Count ``amount`` occurrences of ``event``.

        Events not in the selected mode's set are dropped, mirroring
        the hardware.
        """
        self.slots[event] += amount

    def read(self, event):
        """Read one counter (0 if never incremented or not visible)."""
        if self._visible is None or event in self._visible:
            return self.slots[event] % COUNTER_MODULUS
        return self._marks[event] % COUNTER_MODULUS

    def snapshot(self):
        """Capture all counters as a :class:`CounterSnapshot`."""
        return CounterSnapshot(
            (event, value % COUNTER_MODULUS)
            for event, value in zip(_EVENTS, self._values())
            if value is not False
        )

    def reset(self):
        """Zero every counter."""
        self.slots[:] = self._marks[:] = [False] * len(_EVENTS)

    def visible_events(self):
        """Events countable under the current mode."""
        if self._visible is None:
            return tuple(Event)
        return tuple(MODE_SETS[self._mode])

    def register_layout(self):
        """Map physical counter registers to events for the mode.

        Returns a list of ``(register index, Event or None)`` pairs of
        length :data:`NUM_COUNTERS`; unused registers map to ``None``.
        Only meaningful for hardware modes.
        """
        if self._mode is None:
            raise ValueError("omniscient mode has no physical layout")
        events = MODE_SETS[self._mode]
        layout = []
        for register in range(NUM_COUNTERS):
            event = events[register] if register < len(events) else None
            layout.append((register, event))
        return layout
