"""Finding and configuration records for the repo lint pass."""

from dataclasses import dataclass, fields

from repro.cache.columns import TAG_ARRAYS


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, renderable as ``path:line: RULE message``."""

    rule: str
    path: str
    line: int
    message: str

    def render(self):
        """The one-line ``path:line: rule message`` form."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Repo-specific knowledge the rules key on.

    Every field has the production default; tests override individual
    fields to aim the rules at crafted fixtures.
    """

    #: ``ClassName.method`` functions whose loops are hot paths (R001).
    hot_loops: tuple = ("SpurMachine._run_refs",)

    #: Call names permitted inside a hot loop without a purity proof
    #: (R001, R008).  Everything else must be pre-bound to a local and
    #: resolve to a provably pure project function.  The two entries
    #: are the reference loop's record peeks, locals bound to
    #: ``dict.get`` (``PageTable.peek`` and ``vm.pages.get``), which
    #: the call graph cannot resolve.  The alternatives cost more per
    #: miss: 53 ns a call hoisted, 82 ns through ``self``, 101 ns
    #: through a pure project helper (CPython 3.11, timeit, 2-vCPU
    #: x86-64 VM).
    hot_loop_attr_allowlist: frozenset = frozenset(
        {"pte_peek", "page_peek"}
    )

    #: ``ClassName.method`` functions shaped as two-level chunked hot
    #: loops (R001): an outer loop over flat chunks whose per-chunk
    #: level may use ``chunk_loop_attr_allowlist`` calls, and inner
    #: per-reference loops held to the strict hot-loop rules plus a
    #: ban on tuple allocation.
    chunked_hot_loops: tuple = ("SpurMachine.run_chunks",)

    #: Attribute-call names permitted at the per-chunk (outer) level
    #: of a chunked hot loop (R001).  ``tobytes``/``count`` cover the
    #: C-speed reference-mix tallies on each chunk's kind slice.
    chunk_loop_attr_allowlist: frozenset = frozenset(
        {"count", "tobytes"}
    )

    #: The cache's parallel tag arrays (R002); writes to
    #: ``<obj>.<field>[...]`` outside the sanctioned modules flag.
    tag_arrays: frozenset = frozenset(TAG_ARRAYS)

    #: Module basename -> fields it may write (R002).  ``"*"`` means
    #: every field.  cache.py owns the arrays; the machine's reference
    #: loop performs full inlined block installs (the same column
    #: sequence as ``VirtualCache.fill``) plus the documented
    #: single-field updates, and the dirty policies refresh their two
    #: cached-copy fields (see the docstring of
    #: ``repro/cache/cache.py``).
    tag_array_writers: tuple = (
        ("cache.py", "*"),
        ("simulator.py", "*"),
        ("dirty.py", frozenset({"prot", "page_dirty"})),
    )

    #: Basename of the module defining the Event enum and mode maps
    #: (R003 parses it from the scanned file set).
    events_module: str = "events.py"

    #: Names of the enum class and the mode-map constant in it.
    event_class: str = "Event"
    mode_sets_name: str = "MODE_SETS"

    #: Path of the event documentation page (R004).
    events_doc: str = "docs/events.md"

    # -- whole-program flow analysis (R005, R006, R008) ---------------

    #: Root qualnames of the simulation surface: the functions whose
    #: transitive callees the determinism audit (R005) and hot-path
    #: purity proof (R008) cover.  R001 cedes its attribute-call check
    #: to R008 for these functions (allocation discipline stays).
    effect_hot_loops: tuple = (
        "SpurMachine.run_chunks",
        "SpurMachine._run_refs",
        "SpurMachine._resolve_write_hit",
    )

    #: Root qualnames whose reachable code the cache-key soundness
    #: rule (R006) audits: everything that can influence a cached
    #: result, including machine construction from the runner.
    cache_roots: tuple = (
        "simulate_cell",
        "ExperimentRunner.run",
        "SpurMachine.run_chunks",
    )

    #: Top-level package names whose imports resolve to *project*
    #: functions rather than external callables.
    project_packages: frozenset = frozenset({"repro"})

    #: Method names excluded from the dynamic-dispatch fallback:
    #: generic container/string verbs that would otherwise join every
    #: same-named project method into one candidate pool (a stdlib
    #: ``list.append`` is no project method's problem).  Calls on
    #: these names resolve as *unresolved*.
    dynamic_skip_names: frozenset = frozenset({
        "__init__",
        "add", "append", "appendleft", "cancel", "clear", "close",
        "copy", "count", "decode", "discard", "done", "dump", "dumps",
        "encode", "endswith", "extend", "extendleft", "flush",
        "format", "get", "group", "hexdigest", "index", "insert",
        "items", "join", "keys", "load", "loads", "lower", "match",
        "mkdir", "open", "pop", "popleft", "put", "read", "remove",
        "replace", "result", "rstrip", "search", "setdefault",
        "shutdown", "sort", "split", "startswith", "strip", "sub",
        "submit", "tobytes", "update", "upper", "values", "write",
    })

    #: Name of the module-level function that derives the result
    #: cache key (R006 parses which of its parameters it actually
    #: reads, and which attributes call sites forward into it).
    cache_key_function: str = "cache_key"

    #: The frozen machine-configuration dataclass: every field read of
    #: it on the simulation path must be cache-key-covered (R006).
    config_class: str = "MachineConfig"

    #: Option/cell dataclasses whose field reads R006 audits the same
    #: way.
    option_classes: tuple = ("RunOptions", "RunCell")

    #: Receiver spellings that identify an audited class when static
    #: typing cannot (``options.workers`` reads RunOptions even though
    #: ``options`` is an untyped parameter).
    option_aliases: tuple = (
        ("config", "MachineConfig"),
        ("options", "RunOptions"),
        ("opts", "RunOptions"),
        ("cell", "RunCell"),
    )

    #: Fields declared inert for caching: they steer *how* a run
    #: executes (parallelism, caching, observation) but can never
    #: change its counters, so they are legitimately absent from the
    #: cache key.
    cache_inert_fields: frozenset = frozenset({
        "workers", "cache_dir",
        "sanitize", "observe", "epoch_refs", "trace_sink", "progress",
        "label",
    })

    #: Root qualnames of the campaign resume machinery (R005): cell
    #: identity must be deterministic, or a restarted campaign derives
    #: different keys and recomputes (or worse, mismatches) completed
    #: work.  Audited with the same
    #: nondeterminism evidence as the simulation path; names absent
    #: from the scanned file set are skipped.
    resume_identity_roots: tuple = ("cell_key",)

    #: Effect flags a hot-loop callee may not have, even transitively
    #: (R008).  ``counters`` and ``tag-write`` are the sanctioned
    #: bookkeeping effects and stay out of this set.
    effect_forbidden_flags: frozenset = frozenset({
        "io", "clock", "env", "random", "unordered-iter",
        "global-mutation",
    })

    def replace(self, **overrides):
        """A copy with the given fields overridden."""
        values = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        values.update(overrides)
        return LintConfig(**values)


__all__ = ["Finding", "LintConfig"]
