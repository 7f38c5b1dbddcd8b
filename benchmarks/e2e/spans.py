"""Class-level span tracing for the traced benchmark run.

The traced run wraps the public methods at each layer boundary of the
simulator (:data:`LAYER_SPANS`) at class level, runs the workload, and
puts the original functions back.  Nothing under ``src/`` changes, and
the untraced runs never see a wrapper.

Every wrapped call is one span.  Open spans sit on a stack, so a
span's *self* time is its duration minus the durations of the wrapped
spans it called.  Spans stay in memory, aggregated by (cell label,
span name, parent span name) into ``[count, total_s, self_s]``.

Process-pool workers forked after :meth:`Tracer.install` inherit the
wrappers.  A worker writes its aggregate to the spool directory after
each cell, and :meth:`Tracer.merge_spool` folds those files into the
parent's aggregate once the pool has drained.  Workers started with
the ``spawn`` or ``forkserver`` methods import fresh, unwrapped
classes and report nothing.
"""

import importlib
import json
import os
import pathlib
import time

#: (module, class, method, span name) for every traced layer boundary.
#: Subclasses that override a method are wrapped too, so each dirty
#: and reference policy reports under its layer's one span name.
LAYER_SPANS = (
    ("repro.machine", "SpurMachine", "run_chunks", "machine.run_chunks"),
    ("repro.machine", "SpurMachine", "flush_page", "machine.flush_page"),
    ("repro.cache", "VirtualCache", "fill", "cache.fill"),
    ("repro.cache", "VirtualCache", "fill_fast", "cache.fill_fast"),
    ("repro.translation", "InCacheTranslator", "translate",
     "translation.translate"),
    ("repro.vm", "VirtualMemorySystem", "handle_page_fault",
     "vm.page_fault"),
    ("repro.vm", "ClockPageDaemon", "poll", "vm.daemon_poll"),
    ("repro.policies", "ReferenceBitPolicy", "on_cache_miss",
     "policies.reference"),
    ("repro.policies", "DirtyBitPolicy", "handle_write_hit",
     "policies.dirty"),
    ("repro.policies", "DirtyBitPolicy", "on_write_miss",
     "policies.dirty"),
)

#: Each ``next()`` on the chunk stream of a workload instance is one
#: span of this name.
GENERATE_SPAN = "workloads.generate"


def _class(module, name):
    return getattr(importlib.import_module(module), name)


def _subtree(cls):
    """*cls* and every subclass, depth first."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _subtree(sub)


class Tracer:
    """A span stack and its in-memory aggregate.

    ``spool`` is a directory pool workers write their aggregates to;
    ``None`` when the run has no pool.
    """

    def __init__(self, spool=None):
        self.spool = spool
        self.label = None
        self._stack = []          # open spans: [child seconds, name]
        self._aggregate = {}
        self._saved = []
        self._owner = os.getpid()

    # -- spans --------------------------------------------------------

    def _close(self, frame, elapsed, counted=True):
        """Pop *frame* and fold its timings into the aggregate."""
        stack = self._stack
        stack.pop()
        parent = None
        if stack:
            stack[-1][0] += elapsed
            parent = stack[-1][1]
        key = (self.label, frame[1], parent)
        entry = self._aggregate.get(key)
        if entry is None:
            entry = self._aggregate[key] = [0, 0.0, 0.0]
        entry[0] += counted
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]

    def span(self, name, function):
        """*function* wrapped so every call is one span called *name*."""
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                close(frame, clock() - started)

        traced.__wrapped__ = function
        return traced

    def generator_span(self, name, function):
        """*function*, which returns an iterator, wrapped so that each
        ``next()`` on the returned iterator is one span called *name*.

        The final ``next()`` that ends the stream is timed but not
        counted, so the count is the number of items produced.
        """
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def timed(iterator):
            while True:
                frame = [0.0, name]
                stack.append(frame)
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    close(frame, clock() - started, counted=False)
                    return
                close(frame, clock() - started)
                yield item

        def traced(*args, **kwargs):
            return timed(function(*args, **kwargs))

        traced.__wrapped__ = function
        return traced

    # -- installing and restoring -------------------------------------

    def _patch(self, cls, attr, wrapper):
        self._saved.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap every layer boundary, and label spans by cell."""
        for module, class_name, attr, name in LAYER_SPANS:
            for cls in _subtree(_class(module, class_name)):
                if attr in vars(cls):
                    self._patch(cls, attr, self.span(name, vars(cls)[attr]))
        instance = _class("repro.workloads", "WorkloadInstance")
        self._patch(instance, "access_chunks", self.generator_span(
            GENERATE_SPAN, vars(instance)["access_chunks"]))
        runner = _class("repro.api", "ExperimentRunner")
        self._patch(runner, "run", self._labelled(vars(runner)["run"]))

    def restore(self):
        """Put every wrapped method back, newest first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _labelled(self, run):
        """``ExperimentRunner.run`` wrapped to label the spans of each
        cell and, in a pool worker, to spool them after each cell."""
        tracer = self

        def labelled(*args, **kwargs):
            tracer.label = kwargs.get("label")
            try:
                return run(*args, **kwargs)
            finally:
                tracer.label = None
                if tracer.spool and os.getpid() != tracer._owner:
                    tracer._write_spool()

        labelled.__wrapped__ = run
        return labelled

    # -- results --------------------------------------------------------

    def rows(self):
        """The aggregate as ``[label, name, parent, count, total_s,
        self_s]`` rows."""
        return sorted(
            ([label, name, parent, *entry]
             for (label, name, parent), entry in self._aggregate.items()),
            key=lambda row: [part or "" for part in row[:3]],
        )

    def _write_spool(self):
        path = pathlib.Path(self.spool) / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.rows()))
        os.replace(tmp, path)

    def merge_spool(self):
        """Fold every pool worker's spooled aggregate into this one."""
        for path in pathlib.Path(self.spool).glob("*.json"):
            for label, name, parent, count, total, own in json.loads(
                path.read_text()
            ):
                entry = self._aggregate.setdefault(
                    (label, name, parent), [0, 0.0, 0.0]
                )
                entry[0] += count
                entry[1] += total
                entry[2] += own


def totals(rows):
    """``{span name: [count, total_s, self_s]}`` summed over cells and
    parents."""
    out = {}
    for _label, name, _parent, count, total, own in rows:
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += total
        entry[2] += own
    return out
