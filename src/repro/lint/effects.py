"""Per-function effect inference over the call graph.

Each function gets a frozenset of effect *flags*, the union of what
its own body does (the intrinsic scan) and what everything it can
reach through the call graph does (a monotone fixpoint, so cycles and
recursion converge).  The flags:

``clock`` / ``env`` / ``random`` / ``unordered-iter``
    The nondeterminism family (``NONDET``): wall-clock reads,
    environment reads, unseeded randomness, iteration over a set.
    Any of these reachable from the simulator loop breaks the
    bit-equivalence the parallel layer rests on (R005).

``io``
    Writes to the outside world: ``print``, ``open``, stdout/stderr.

``global-mutation``
    Rebinding or mutating a module-level name — unsafe in a worker
    function that may run in a forked pool (R007).

``counters``
    Scalar attribute writes (``self.misses += 1``): the sanctioned
    bookkeeping effect of the hot path.

``tag-write``
    Subscript stores into the parallel tag arrays (R002's territory),
    tracked transitively so a helper that pokes ``valid[...]`` marks
    its callers.

``unknown-call``
    The function (or something it reaches) makes a call the graph
    could not resolve.  This is the asymmetry knob: the determinism
    *audit* (R005) ignores it, the purity *proof* (R008) treats it as
    failure to prove.

Display classification (the lattice's readable face) is
:func:`classify`: nondeterministic > io > tag-array-writer >
counters-only > pure.
"""

import ast

from repro.lint.symbols import dotted_parts

IO = "io"
CLOCK = "clock"
ENV = "env"
RANDOM = "random"
UNORDERED_ITER = "unordered-iter"
GLOBAL_MUTATION = "global-mutation"
COUNTERS = "counters"
TAG_WRITE = "tag-write"
UNKNOWN_CALL = "unknown-call"

#: The flags that break run-to-run bit-equivalence.
NONDET = frozenset({CLOCK, ENV, RANDOM, UNORDERED_ITER})

#: Dotted-name prefixes of external callables, mapped to their flags.
#: Longest prefix wins; an empty flag set means "known benign".
_EXTERNAL_EFFECTS = (
    ("time.", frozenset({CLOCK})),
    ("datetime.", frozenset({CLOCK})),
    ("random.Random", frozenset()),       # seedable instance
    ("random.seed", frozenset()),
    ("random.", frozenset({RANDOM})),
    ("numpy.random.", frozenset({RANDOM})),
    # Array arithmetic/indexing is pure.
    ("numpy.", frozenset()),
    ("secrets.", frozenset({RANDOM})),
    ("uuid.", frozenset({RANDOM})),
    ("os.urandom", frozenset({RANDOM})),
    ("os.environ", frozenset({ENV})),
    ("os.getenv", frozenset({ENV})),
    ("os.cpu_count", frozenset({ENV})),
    ("os.getpid", frozenset({ENV})),
    ("os.", frozenset({IO})),
    ("sys.stdout", frozenset({IO})),
    ("sys.stderr", frozenset({IO})),
    ("sys.", frozenset()),
    ("builtins.print", frozenset({IO})),
    ("builtins.open", frozenset({IO})),
    ("builtins.input", frozenset({IO})),
    ("builtins.breakpoint", frozenset({IO})),
    ("builtins.", frozenset()),
    ("pathlib.", frozenset({IO})),
    ("shutil.", frozenset({IO})),
    ("tempfile.", frozenset({IO})),
    ("subprocess.", frozenset({IO})),
    ("socket.", frozenset({IO})),
    ("logging.", frozenset({IO})),
    ("concurrent.", frozenset({IO})),
    ("multiprocessing.", frozenset({IO})),
    ("pickle.", frozenset({IO})),
)

#: Pure-by-construction stdlib surface: calls here carry no flags and
#: do not poison a purity proof.
_BENIGN_ROOTS = frozenset({
    "abc", "array", "bisect", "collections", "contextlib", "copy",
    "dataclasses", "enum", "functools", "hashlib", "heapq",
    "itertools", "json", "math", "operator", "re", "string", "struct",
    "textwrap", "types", "typing", "warnings", "argparse", "ast",
    "difflib", "fnmatch", "statistics",
})

#: Non-call attribute reads with effects (no Call node to resolve).
_ATTR_EFFECTS = {
    "os.environ": frozenset({ENV}),
    "sys.argv": frozenset({ENV}),
    "sys.stdout": frozenset({IO}),
    "sys.stderr": frozenset({IO}),
    "sys.stdin": frozenset({IO}),
}

#: Mutating method names on a module-global receiver.
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "remove",
    "discard", "pop", "popleft", "appendleft", "clear", "setdefault",
})


def external_effects(dotted):
    """Flags for an external dotted callable, or ``None`` if unknown."""
    for prefix, flags in _EXTERNAL_EFFECTS:
        if dotted == prefix or dotted.startswith(prefix):
            return flags
    if dotted.split(".")[0] in _BENIGN_ROOTS:
        return frozenset()
    return None


def _is_set_expr(node, set_names, set_attrs, class_name):
    """Whether *node* statically looks like a set being iterated."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        if parts and parts[-1] in ("set", "frozenset"):
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        chain = dotted_parts(node)
        if (chain and len(chain) == 2 and chain[0] == "self"
                and class_name is not None):
            return chain[1] in set_attrs.get(class_name, frozenset())
    if isinstance(node, (ast.BinOp, ast.BoolOp)):
        children = (node.values if isinstance(node, ast.BoolOp)
                    else (node.left, node.right))
        return any(
            _is_set_expr(child, set_names, set_attrs, class_name)
            for child in children
        )
    return False


def _set_constructor(value):
    """Whether an assigned value constructs a set/frozenset."""
    if isinstance(value, ast.Set):
        return True
    if isinstance(value, ast.SetComp):
        return True
    if isinstance(value, ast.Call):
        parts = dotted_parts(value.func)
        return bool(parts) and parts[-1] in ("set", "frozenset")
    return False


def _collect_set_attrs(symbols):
    """``{class name: {attrs assigned a set anywhere in the class}}``."""
    set_attrs = {}
    for class_name, infos in symbols.classes.items():
        attrs = set()
        for info in infos:
            for method in info.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not _set_constructor(node.value):
                        continue
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            attrs.add(target.attr)
        if attrs:
            set_attrs[class_name] = frozenset(attrs)
    return set_attrs


class EffectTable:
    """Intrinsic + transitive effects for every project function."""

    def __init__(self, symbols, callgraph, config):
        self.symbols = symbols
        self.callgraph = callgraph
        self.config = config
        self._set_attrs = _collect_set_attrs(symbols)
        #: qualname -> frozenset of flags from the function body alone.
        self.intrinsic = {}
        #: qualname -> [(path, lineno, flag, detail)] finding evidence.
        self.evidence = {}
        for qualname, infos in symbols.functions.items():
            flags = set()
            evidence = []
            for info in infos:
                self._scan_body(info, flags, evidence)
            self._scan_calls(qualname, flags, evidence)
            self.intrinsic[qualname] = frozenset(flags)
            self.evidence[qualname] = evidence
        self.transitive = self._fixpoint()

    # -- intrinsic scan ------------------------------------------------

    def _scan_body(self, info, flags, evidence):
        set_names = set()
        declared_global = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                if _set_constructor(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
            elif isinstance(node, ast.Global):
                declared_global.update(node.names)

        def note(lineno, flag, detail):
            flags.add(flag)
            evidence.append((info.module_path, lineno, flag, detail))

        for node in ast.walk(info.node):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter, set_names, self._set_attrs,
                                info.class_name):
                    note(node.lineno, UNORDERED_ITER,
                         "iterates a set in arbitrary order")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_names,
                                    self._set_attrs, info.class_name):
                        note(node.lineno, UNORDERED_ITER,
                             "comprehension over a set in "
                             "arbitrary order")
            elif isinstance(node, ast.Attribute):
                chain = dotted_parts(node)
                if chain and len(chain) >= 2:
                    imported = self.symbols.import_target(
                        info.module_path, chain[0]
                    )
                    if imported is not None:
                        dotted = ".".join((imported,) + chain[1:])
                        for name, attr_flags in _ATTR_EFFECTS.items():
                            if dotted.startswith(name):
                                for flag in attr_flags:
                                    note(node.lineno, flag,
                                         f"reads `{name}`")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._scan_store(node, info, declared_global, note)

    def _scan_store(self, node, info, declared_global, note):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name):
                if (target.id in declared_global
                        or (isinstance(node, ast.AugAssign)
                            and self.symbols.is_module_global(
                                info.module_path, target.id))):
                    note(node.lineno, GLOBAL_MUTATION,
                         f"rebinds module global `{target.id}`")
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (isinstance(base, ast.Name)
                        and self.symbols.is_module_global(
                            info.module_path, base.id)
                        and base.id not in _local_params(info.node)
                        and base.id not in _local_assigned(info.node)):
                    note(node.lineno, GLOBAL_MUTATION,
                         f"writes into module global `{base.id}`")
                elif isinstance(base, ast.Attribute):
                    if base.attr in self.config.tag_arrays:
                        note(node.lineno, TAG_WRITE,
                             f"stores into tag array `.{base.attr}`")
                    else:
                        note(node.lineno, COUNTERS,
                             f"stores into `.{base.attr}[...]`")
            elif isinstance(target, ast.Attribute):
                note(node.lineno, COUNTERS,
                     f"writes attribute `.{target.attr}`")

    def _scan_calls(self, qualname, flags, evidence):
        for site in self.callgraph.sites_for(qualname):
            if site.kind == "external":
                external = external_effects(site.external)
                if external is None:
                    flags.add(UNKNOWN_CALL)
                    evidence.append((site.path, site.lineno,
                                     UNKNOWN_CALL,
                                     f"calls external "
                                     f"`{site.external}`"))
                else:
                    for flag in external:
                        flags.add(flag)
                        evidence.append((site.path, site.lineno, flag,
                                         f"calls `{site.external}`"))
            elif site.kind == "unresolved":
                flags.add(UNKNOWN_CALL)
                evidence.append((site.path, site.lineno, UNKNOWN_CALL,
                                 f"unresolvable call {site.display}"))
            # A mutating method on a module-global receiver is a
            # global mutation regardless of how (or whether) the
            # call itself resolved.
            func = site.node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _MUTATING_METHODS):
                for info in self.symbols.functions.get(qualname, []):
                    if (info.module_path == site.path
                            and self.symbols.is_module_global(
                                info.module_path, func.value.id)
                            and func.value.id
                            not in _local_params(info.node)
                            and func.value.id
                            not in _local_assigned(info.node)):
                        flags.add(GLOBAL_MUTATION)
                        evidence.append(
                            (site.path, site.lineno, GLOBAL_MUTATION,
                             f"mutates module global "
                             f"`{func.value.id}`")
                        )
                        break

    # -- propagation ---------------------------------------------------

    def _fixpoint(self):
        """Union effects over call edges until stable (cycles OK)."""
        effects = {q: set(flags) for q, flags in self.intrinsic.items()}
        changed = True
        while changed:
            changed = False
            for qualname, callees in self.callgraph.edges.items():
                mine = effects[qualname]
                before = len(mine)
                for callee in callees:
                    mine.update(effects.get(callee, ()))
                if len(mine) != before:
                    changed = True
        return {q: frozenset(flags) for q, flags in effects.items()}

    # -- queries -------------------------------------------------------

    def effects_of(self, qualname):
        """Transitive flags of *qualname* (empty set if unscanned)."""
        return self.transitive.get(qualname, frozenset())

    def intrinsic_of(self, qualname):
        """*qualname*'s own flags, before call-graph propagation."""
        return self.intrinsic.get(qualname, frozenset())

    def evidence_of(self, qualname):
        """``(path, lineno, flag, detail)`` records behind the flags."""
        return self.evidence.get(qualname, [])


def _local_assigned(func_node):
    """Names (re)bound inside the function: locals shadow globals."""
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, (ast.comprehension,)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _local_params(func_node):
    args = func_node.args
    names = set()
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        names.update(arg.arg for arg in group)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def classify(flags):
    """Human-readable effect class, most severe wins."""
    if flags & NONDET:
        return "nondeterministic"
    if IO in flags:
        return "io"
    if TAG_WRITE in flags:
        return "tag-array-writer"
    if flags & {COUNTERS, GLOBAL_MUTATION}:
        return "counters-only"
    return "pure"


__all__ = [
    "CLOCK", "COUNTERS", "ENV", "GLOBAL_MUTATION", "IO", "NONDET",
    "RANDOM", "TAG_WRITE", "UNKNOWN_CALL", "UNORDERED_ITER",
    "EffectTable", "classify", "external_effects",
]
