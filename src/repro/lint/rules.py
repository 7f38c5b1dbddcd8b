"""The four syntactic repo lint rules (R001-R004).

Each rule is a function ``(project, config) -> list[Finding]`` where
``project`` is the engine's analysis context (parsed modules plus the
whole-program tables — these four only use ``project.modules``; the
flow rules in :mod:`repro.lint.flowrules` use the rest).  The rules
encode repo-specific discipline that generic linters cannot see:

R001
    Hot-path purity.  The inner loops of the functions named in
    ``config.hot_loops`` (by default the simulator's one reference
    loop, ``SpurMachine._run_refs``) may not make attribute calls
    (``obj.m()``), build comprehensions, or allocate list/dict/set
    literals — every callable and container must be pre-bound to a
    local before the loop.  The simulator's throughput lives and dies
    on this.

    Functions named in ``config.chunked_hot_loops`` (by default
    ``SpurMachine.run_chunks``) are held to the two-level batched
    shape instead: they must contain a reference loop nested inside
    the chunk loop; the per-chunk (outer) level
    may additionally call the ``config.chunk_loop_attr_allowlist``
    methods (C-speed whole-chunk operations like ``.count``); and the
    per-reference (inner) levels obey the strict rules above plus a
    ban on tuple allocation — nothing may be boxed per reference.

    Functions also named in ``config.effect_hot_loops`` cede the
    attribute-call check to R008, which proves each call's transitive
    purity through the call graph instead of banning it by spelling;
    the allocation discipline here still applies.

R002
    Parallel-array write discipline.  The cache's tag arrays are
    parallel lists indexed by line; a write to one from an
    unsanctioned module can desynchronise them without tripping any
    unit test until much later.  Only the writers named in
    ``config.tag_array_writers`` may assign ``<obj>.<field>[...]``.

R003
    Event exhaustiveness.  Every ``Event`` member must appear in some
    ``MODE_SETS`` entry (else no measurement campaign can count it)
    and must be incremented somewhere in the scanned sources (else it
    is dead weight in every results table).

R004
    Event documentation.  ``docs/events.md`` must name every ``Event``
    member; Table 3-2 reviewers navigate by that page.
"""

import ast
import os

from repro.lint.findings import Finding

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
_DISPLAYS = (ast.List, ast.Dict, ast.Set)


# -- R001: hot-path purity ---------------------------------------------


def _qualified_functions(tree):
    """Yield (qualname, FunctionDef) for every function in *tree*."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def _loop_bodies(func):
    """Yield every For/While node in *func*, including nested ones."""
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            yield node


def check_hot_loops(project, config):
    findings = []
    wanted = set(config.hot_loops)
    chunked = set(config.chunked_hot_loops)
    effect_checked = set(config.effect_hot_loops)
    allow = config.hot_loop_attr_allowlist
    for module in project.modules:
        for qualname, func in _qualified_functions(module.tree):
            attr_calls = qualname not in effect_checked
            if qualname in wanted:
                for loop in _loop_bodies(func):
                    # The iterable of a ``for`` is evaluated once;
                    # only the body (and ``while`` tests,
                    # re-evaluated each iteration) are hot.
                    hot_nodes = list(loop.body) + list(loop.orelse)
                    if isinstance(loop, ast.While):
                        hot_nodes.append(loop.test)
                    for stmt in hot_nodes:
                        for node in ast.walk(stmt):
                            finding = _classify_hot_node(
                                node, qualname, module.path, allow,
                                attr_calls=attr_calls,
                            )
                            if finding is not None:
                                findings.append(finding)
            if qualname in chunked:
                findings.extend(_check_chunked_function(
                    func, qualname, module.path, config,
                    attr_calls=attr_calls,
                ))
    return findings


def _direct_loops(node):
    """Loops in *node* not nested inside another loop (or function)."""
    loops = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.For, ast.While, ast.AsyncFor)):
            loops.append(child)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return loops


def _own_level_nodes(loop):
    """AST nodes that execute at *loop*'s own nesting level.

    Stops at child loops — their bodies are the next level down —
    but keeps each child ``for``'s iterable, which is evaluated once
    per iteration of *this* loop.  A child ``while``'s test runs at
    the child's level and is skipped with it.
    """
    roots = list(loop.body) + list(loop.orelse)
    if isinstance(loop, ast.While):
        roots.append(loop.test)
    nodes = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.For, ast.AsyncFor)):
            stack.append(node.iter)
            continue
        if isinstance(node, ast.While):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def _check_chunked_function(func, qualname, path, config,
                            attr_calls=True):
    """R001 for a two-level chunked hot loop.

    Depth 0 (the per-chunk level) may call the chunk allowlist's
    methods; depth >= 1 (the per-reference levels) is held to the
    strict hot-loop rules and may not allocate tuples either.
    """
    findings = []
    top_loops = _direct_loops(func)
    if top_loops and not any(_direct_loops(loop)
                             for loop in top_loops):
        findings.append(Finding(
            "R001", path, func.lineno,
            f"{qualname} is a chunked hot loop but has no nested "
            f"reference loop; expected the two-level chunk/reference "
            f"shape",
        ))

    def visit(loop, depth):
        allow = (config.chunk_loop_attr_allowlist if depth == 0
                 else config.hot_loop_attr_allowlist)
        for node in _own_level_nodes(loop):
            finding = _classify_hot_node(node, qualname, path, allow,
                                         attr_calls=attr_calls)
            if finding is not None:
                findings.append(finding)
            elif (depth >= 1 and isinstance(node, ast.Tuple)
                    and isinstance(node.ctx, ast.Load)):
                findings.append(Finding(
                    "R001", path, node.lineno,
                    f"tuple literal allocates inside the "
                    f"per-reference loop of {qualname}; nothing may "
                    f"be boxed per reference",
                ))
        for child in _direct_loops(loop):
            visit(child, depth + 1)

    for loop in top_loops:
        visit(loop, 0)
    return findings


def _classify_hot_node(node, qualname, path, allow, attr_calls=True):
    if isinstance(node, ast.Call):
        if not attr_calls:
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr not in allow:
            return Finding(
                "R001", path, node.lineno,
                f"attribute call `.{func.attr}(...)` inside the hot "
                f"loop of {qualname}; pre-bind the method to a local "
                f"before the loop",
            )
    elif isinstance(node, _COMPREHENSIONS):
        return Finding(
            "R001", path, node.lineno,
            f"comprehension allocates inside the hot loop of "
            f"{qualname}; hoist it out of the loop",
        )
    elif isinstance(node, _DISPLAYS):
        return Finding(
            "R001", path, node.lineno,
            f"{type(node).__name__.lower()} literal allocates inside "
            f"the hot loop of {qualname}; hoist it out of the loop",
        )
    return None


# -- R002: parallel-array write discipline -----------------------------


def _sanctioned_fields(basename, writers):
    for name, fields in writers:
        if name == basename:
            return fields
    return frozenset()


def _assignment_targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def check_tag_array_writes(project, config):
    findings = []
    for module in project.modules:
        basename = os.path.basename(module.path)
        sanctioned = _sanctioned_fields(
            basename, config.tag_array_writers
        )
        if sanctioned == "*":
            continue
        for node in ast.walk(module.tree):
            for target in _assignment_targets(node):
                field = _tag_array_field(target, config.tag_arrays)
                if field is None or field in sanctioned:
                    continue
                findings.append(Finding(
                    "R002", module.path, target.lineno,
                    f"write to parallel tag array `.{field}` outside "
                    f"its sanctioned writers; route the update "
                    f"through VirtualCache so the parallel arrays "
                    f"stay in lock-step",
                ))
    return findings


def _tag_array_field(target, tag_arrays):
    """The tag-array field *target* writes, or None.

    Matches element writes — ``<expr>.field[...] = ...`` — only.
    Those are the desynchronisation hazard: one array mutates while
    its siblings keep the old line.  Plain attribute binds are
    deliberately ignored; names like ``valid`` and ``state`` are
    scalar fields on PTEs and other records all over the tree.
    """
    if not isinstance(target, ast.Subscript):
        return None
    value = target.value
    if isinstance(value, ast.Attribute) and value.attr in tag_arrays:
        return value.attr
    return None


# -- R003: Event exhaustiveness ----------------------------------------


def _find_events_module(modules, config):
    for module in modules:
        if os.path.basename(module.path) == config.events_module:
            return module
    return None


def _event_members(events_module, config):
    """``{name: lineno}`` for every member of the Event enum."""
    members = {}
    for node in events_module.tree.body:
        if (isinstance(node, ast.ClassDef)
                and node.name == config.event_class):
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            members[target.id] = item.lineno
    return members


def _mode_set_members(events_module, config):
    """Every ``Event.X`` name referenced inside ``MODE_SETS``."""
    names = set()
    for node in events_module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name)
                   and t.id == config.mode_sets_name
                   for t in node.targets):
            continue
        for sub in ast.walk(node.value):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == config.event_class):
                names.add(sub.attr)
    return names


def _event_names(node, config):
    """Every ``Event.X`` name referenced inside *node*."""
    return {
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == config.event_class
    }


def _incremented_members(modules, config):
    """Every ``Event.X`` passed to an ``increment(...)`` call or added
    to a counter slot: ``slots[_X] += n`` where the module binds
    ``_X = int(Event.X)``."""
    names = set()
    for module in modules:
        slot_events = {
            node.targets[0].id: _event_names(node.value, config)
            for node in module.tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "int"
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AugAssign):
                index = getattr(node.target, "slice", None)
                if isinstance(index, ast.Name):
                    names |= slot_events.get(index.id, set())
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "increment"):
                for arg in node.args + [kw.value for kw in node.keywords]:
                    names |= _event_names(arg, config)
    return names


def check_event_exhaustiveness(project, config):
    modules = project.modules
    events_module = _find_events_module(modules, config)
    if events_module is None:
        return []
    members = _event_members(events_module, config)
    in_modes = _mode_set_members(events_module, config)
    incremented = _incremented_members(modules, config)

    findings = []
    for name, lineno in members.items():
        if name not in in_modes:
            findings.append(Finding(
                "R003", events_module.path, lineno,
                f"{config.event_class}.{name} is not assigned to any "
                f"{config.mode_sets_name} mode; no measurement "
                f"campaign can count it",
            ))
        if name not in incremented:
            findings.append(Finding(
                "R003", events_module.path, lineno,
                f"{config.event_class}.{name} is never passed to "
                f"increment() or added to a counter slot anywhere in "
                f"the scanned sources",
            ))
    return findings


# -- R004: Event documentation -----------------------------------------


def _resolve_events_doc(events_module, config):
    """Locate ``config.events_doc`` from cwd or the module's ancestors.

    Tries the path relative to the working directory first (the
    normal ``python -m repro.lint src/`` invocation from the repo
    root), then walks up from the events module so the rule also
    works when lint is pointed at the tree from elsewhere.
    """
    candidate = config.events_doc
    if os.path.isabs(candidate):
        return candidate if os.path.exists(candidate) else None
    if os.path.exists(candidate):
        return candidate
    directory = os.path.dirname(os.path.abspath(events_module.path))
    while True:
        probe = os.path.join(directory, candidate)
        if os.path.exists(probe):
            return probe
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def check_event_docs(project, config):
    events_module = _find_events_module(project.modules, config)
    if events_module is None:
        return []
    members = _event_members(events_module, config)
    if not members:
        return []
    doc_path = _resolve_events_doc(events_module, config)
    if doc_path is None:
        return [Finding(
            "R004", events_module.path, 1,
            f"event documentation {config.events_doc!r} not found; "
            f"every {config.event_class} member must be documented "
            f"there",
        )]
    with open(doc_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    findings = []
    for name, lineno in sorted(members.items(),
                               key=lambda item: item[1]):
        if name not in text:
            findings.append(Finding(
                "R004", events_module.path, lineno,
                f"{config.event_class}.{name} is not mentioned in "
                f"{config.events_doc}; document it or drop the event",
            ))
    return findings


ALL_RULES = (
    check_hot_loops,
    check_tag_array_writes,
    check_event_exhaustiveness,
    check_event_docs,
)

__all__ = [
    "ALL_RULES",
    "check_hot_loops",
    "check_tag_array_writes",
    "check_event_exhaustiveness",
    "check_event_docs",
]
