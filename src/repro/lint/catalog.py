"""The rule catalog: one entry per rule, used by ``--explain``.

Each entry is the prose a developer needs at the moment a rule fires:
what invariant it protects, why the repo cares, and how to fix or —
when justified — suppress a finding.  ``docs/analysis.md`` renders
the same material at length.
"""

RULES = {
    "E000": (
        "Syntax errors",
        "A file that does not parse cannot be analysed; the finding\n"
        "carries the parser's message.  Fix the syntax — there is no\n"
        "suppression for this rule.",
    ),
    "R001": (
        "Hot-loop allocation and call discipline",
        "The reference loop named in `hot_loops`\n"
        "(`SpurMachine._run_refs`) and the chunk loop named in\n"
        "`chunked_hot_loops` (`SpurMachine.run_chunks`) are the\n"
        "simulator's throughput budget: no attribute calls (pre-bind\n"
        "methods to locals before the loop), no comprehensions, no\n"
        "list/dict/set literals, and in\n"
        "chunked loops no per-reference tuple boxing.  Chunked loops\n"
        "must keep the two-level chunk/reference shape.  For\n"
        "functions also in `effect_hot_loops`, the attribute-call ban\n"
        "is handled by R008's call-graph proof instead of a spelling\n"
        "ban.",
    ),
    "R002": (
        "Parallel tag-array write discipline",
        "The cache's tag arrays are parallel lists indexed by line;\n"
        "a write from an unsanctioned module can desynchronise them\n"
        "without failing any unit test until much later.  Route the\n"
        "update through VirtualCache, or extend\n"
        "`tag_array_writers` when a module legitimately owns a field.",
    ),
    "R003": (
        "Event exhaustiveness",
        "Every Event member must belong to a MODE_SETS mode (else no\n"
        "campaign can count it) and must be incremented somewhere in\n"
        "the scanned sources (else it is dead weight in every table).",
    ),
    "R004": (
        "Event documentation coverage",
        "docs/events.md must mention every Event member; reviewers\n"
        "navigate the Table 3-2 reproduction by that page.",
    ),
    "R005": (
        "Determinism audit of the simulation path",
        "Code reachable from the hot-loop roots may not iterate sets\n"
        "(arbitrary order), call unseeded `random`, or read the\n"
        "wall clock / environment: the parallel campaign cache\n"
        "assumes two runs of the same cell are bit-identical.\n"
        "The campaign resume machinery\n"
        "(`resume_identity_roots`: cell keying and journal replay)\n"
        "is audited the same way — a resumed campaign must derive\n"
        "identical keys on every run or it recomputes work its\n"
        "journal already holds.  Fixes: iterate `sorted(...)`,\n"
        "thread an explicit seeded generator, hoist clock reads to\n"
        "the runner (host timing is declared cache-inert there).\n"
        "Membership tests on sets are fine — only iteration order\n"
        "leaks.",
    ),
    "R006": (
        "Cache-key soundness",
        "Every MachineConfig/RunOptions/RunCell field read on the\n"
        "simulation path must be covered by the cache_key spec or\n"
        "declared in `cache_inert_fields`.  A field that changes\n"
        "results but not the key silently serves stale cached\n"
        "counters.  Coverage is derived, not trusted: the rule parses\n"
        "which parameters cache_key's body reads and which attributes\n"
        "call sites forward into it.",
    ),
    "R007": (
        "Worker safety",
        "A callable handed to `pool.submit` crosses a process\n"
        "boundary: lambdas and nested functions cannot be pickled,\n"
        "and module-global mutation happens in the child and is\n"
        "silently lost.  Submit a module-level function and return\n"
        "the data.  The proof follows the submitted function's\n"
        "callees transitively, so the whole per-cell simulation a\n"
        "pool batch runs is held to it.",
    ),
    "R008": (
        "Transitive hot-path purity",
        "Every call inside a hot loop is resolved through the\n"
        "project call graph and its transitive effects inferred: a\n"
        "callee may count (`counters`) and write tag arrays\n"
        "(`tag-write`) but may not reach IO, clock/env/random reads,\n"
        "set iteration, or global mutation.  A helper that the\n"
        "analysis proves pure passes without being hand-allowlisted —\n"
        "this is R001's attribute-call ban upgraded from spelling to\n"
        "proof.  A call the graph cannot resolve fails the proof:\n"
        "pre-bind a project helper or extend the allowlist.",
    ),
}


def explain(rule):
    """Render the catalog entry for *rule*, or ``None`` if unknown."""
    entry = RULES.get(rule.upper())
    if entry is None:
        return None
    title, body = entry
    return f"{rule.upper()} — {title}\n\n{body}"


__all__ = ["RULES", "explain"]
