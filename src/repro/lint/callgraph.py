"""Call-graph construction over the project symbol table.

Every call site in every scanned function is resolved to one of:

``function``
    A direct project function/method hit — a module-level call, a
    constructor, a ``self``/typed-receiver method whose class (or base
    chain) defines it, or a pre-bound local (``write_hit =
    self._resolve_write_hit`` before a hot loop) traced back to its
    definition.

``dynamic``
    The dynamic-dispatch fallback: the receiver's class could not be
    recovered, so the candidate pool is *every* project method with
    that name.  Names in ``LintConfig.dynamic_skip_names`` (generic
    container verbs like ``get``/``append`` that would false-match
    stdlib calls onto unrelated project methods) skip the pool and
    resolve as ``unresolved`` instead.

``external``
    A dotted call whose root is an imported module alias
    (``time.perf_counter()``) or an IO-shaped builtin (``print``);
    carries the dotted name for the effect tables.

``builtin``
    A plain builtin (``len``, ``iter``, ``zip`` ...): effect-free.

``unresolved``
    Nothing provable.  Consumers choose their polarity: the
    determinism audit (R005) treats unresolved as silent, the hot-path
    proof (R008) treats it as a failure to prove purity.

Edges are keyed by qualified name (``Class.method``); same-named
definitions in different modules share a node and their effects union
— a deliberate, conservative merge.
"""

import ast
import builtins
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lint.symbols import dotted_parts

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Builtins with observable effects; resolved as ``external`` with a
#: ``builtins.``-prefixed dotted name so the effect tables see them.
_EFFECT_BUILTINS = frozenset({"print", "open", "input", "exec", "eval",
                              "breakpoint", "globals", "vars"})


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    node: ast.Call
    kind: str                      # function|dynamic|external|builtin|unresolved
    display: str                   # how to name the callee in findings
    candidates: Tuple[str, ...] = ()   # callee qualnames (project)
    external: Optional[str] = None     # dotted name for externals
    path: str = ""                     # module the call appears in

    @property
    def lineno(self):
        return self.node.lineno


def _local_method_bindings(func_node):
    """Pre-bound locals: ``{name: (method/attr names,)}``.

    ``write_hit = self._resolve_write_hit`` binds ``write_hit`` to the
    attribute name ``_resolve_write_hit``; conditional forms
    (``poll = a.poll if x else None``) contribute every arm.  Only the *outermost* attribute of each
    chain is a candidate callable — ``self.vm.daemon.poll`` binds
    ``poll``, not ``vm``.
    """
    bindings = {}

    def outer_attrs(expr):
        names = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
                continue  # never descend into the chain's value
            if isinstance(node, ast.Call):
                continue  # call results are values, not callables
            stack.extend(ast.iter_child_nodes(node))
        return names

    for node in ast.walk(func_node):
        if not isinstance(node, ast.Assign):
            continue
        names = outer_attrs(node.value)
        if not names:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                merged = bindings.get(target.id, ()) + tuple(
                    name for name in names
                    if name not in bindings.get(target.id, ())
                )
                bindings[target.id] = merged
    return bindings


class CallGraph:
    """Call sites, edges, and reachability over a symbol table."""

    def __init__(self, symbols, config):
        self.symbols = symbols
        self.config = config
        #: qualname -> [CallSite] (unioned over same-named defs).
        self.sites = {}
        #: qualname -> frozenset of callee qualnames.
        self.edges = {}
        #: qualname -> frozenset of external dotted names.
        self.externals = {}
        for qualname, infos in symbols.functions.items():
            sites = []
            for info in infos:
                sites.extend(self._resolve_function(info))
            self.sites[qualname] = sites
            callees = set()
            external = set()
            for site in sites:
                callees.update(site.candidates)
                if site.external:
                    external.add(site.external)
            self.edges[qualname] = frozenset(callees)
            self.externals[qualname] = frozenset(external)

    # -- resolution ----------------------------------------------------

    def _resolve_function(self, info):
        bindings = _local_method_bindings(info.node)
        local_classes = self.symbols.local_class_bindings(info.node)
        sites = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                site = self._resolve_call(
                    node, info, bindings, local_classes
                )
                site.path = info.module_path
                sites.append(site)
        return sites

    def _method_candidates(self, method_name, class_names):
        found = []
        for class_name in class_names:
            for candidate in self.symbols.method_in_class(
                class_name, method_name
            ):
                if candidate.qualname not in found:
                    found.append(candidate.qualname)
        return tuple(found)

    def _dynamic_candidates(self, method_name):
        if method_name in self.config.dynamic_skip_names:
            return None
        infos = self.symbols.by_name.get(method_name, [])
        return tuple(sorted({info.qualname for info in infos}))

    def _resolve_call(self, node, info, bindings, local_classes):
        func = node.func
        symbols = self.symbols

        if isinstance(func, ast.Name):
            name = func.id
            if name in bindings:
                candidates = ()
                for attr in bindings[name]:
                    dynamic = self._dynamic_candidates(attr)
                    if dynamic:
                        candidates += tuple(
                            q for q in dynamic if q not in candidates
                        )
                if candidates:
                    return CallSite(node, "function", f"{name}()",
                                    candidates=candidates)
                return CallSite(node, "unresolved", f"{name}()")
            target = symbols.module_functions.get(
                (info.module_path, name)
            )
            if target is not None:
                return CallSite(node, "function", f"{name}()",
                                candidates=(target.qualname,))
            if name in symbols.classes:
                candidates = self._method_candidates(
                    "__init__", (name,)
                )
                return CallSite(node, "function", f"{name}()",
                                candidates=candidates)
            imported = symbols.import_target(info.module_path, name)
            if imported is not None:
                return self._imported_call(node, name, imported)
            if name in _EFFECT_BUILTINS:
                return CallSite(node, "external", f"{name}()",
                                external=f"builtins.{name}")
            if name in _BUILTIN_NAMES:
                return CallSite(node, "builtin", f"{name}()")
            return CallSite(node, "unresolved", f"{name}()")

        if isinstance(func, ast.Attribute):
            attr = func.attr
            if (isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"
                    and info.class_name):
                bases = ()
                for cinfo in symbols.class_infos(info.class_name):
                    bases += tuple(
                        base for base in cinfo.bases
                        if base not in bases
                    )
                candidates = self._method_candidates(attr, bases)
                if candidates:
                    return CallSite(node, "function",
                                    f"super().{attr}()",
                                    candidates=candidates)
                return CallSite(node, "unresolved",
                                f"super().{attr}()")
            chain = dotted_parts(func)
            if chain is not None and len(chain) >= 2:
                root = chain[0]
                imported = symbols.import_target(
                    info.module_path, root
                )
                if imported is not None:
                    dotted = ".".join((imported,) + chain[1:])
                    return self._imported_call(node, attr, dotted)
                receiver = symbols.receiver_classes(
                    chain[:-1], info.class_name
                )
                if receiver is None and chain[0] in local_classes:
                    receiver = ()
                    for class_name in local_classes[chain[0]]:
                        if class_name not in receiver:
                            receiver += (class_name,)
                    receiver = symbols.receiver_classes(
                        (receiver[0],) + chain[1:-1], None
                    ) if len(chain) > 2 else receiver
                if receiver:
                    candidates = self._method_candidates(
                        attr, receiver
                    )
                    if candidates:
                        return CallSite(
                            node, "function", f".{attr}()",
                            candidates=candidates,
                        )
            dynamic = self._dynamic_candidates(attr)
            if dynamic is None:
                return CallSite(node, "unresolved", f".{attr}()")
            if dynamic:
                return CallSite(node, "dynamic", f".{attr}()",
                                candidates=dynamic)
            return CallSite(node, "unresolved", f".{attr}()")

        return CallSite(node, "unresolved", "<expr>()")

    def _imported_call(self, node, name, dotted):
        """A call through an import: project re-import or external."""
        root = dotted.split(".")[0]
        if root in self.config.project_packages:
            dynamic = self._dynamic_candidates(dotted.split(".")[-1])
            if dynamic:
                return CallSite(node, "function", f"{name}()",
                                candidates=dynamic)
            return CallSite(node, "unresolved", f"{name}()")
        return CallSite(node, "external", f"{name}()",
                        external=dotted)

    # -- reachability --------------------------------------------------

    def reachable(self, roots):
        """``{qualname: parent}`` for everything reachable from roots.

        Roots map to ``None``; every other entry's parent chain walks
        back to a root (shortest path, BFS order), which findings use
        to show *why* a function is on the audited surface.
        """
        parents = {}
        queue = deque()
        for root in roots:
            if root in self.edges and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def path_to_root(self, parents, qualname):
        """Call chain from a root down to *qualname* (inclusive)."""
        path = []
        current = qualname
        while current is not None:
            path.append(current)
            current = parents.get(current)
        path.reverse()
        return path

    def sites_for(self, qualname):
        """Every :class:`CallSite` inside *qualname*'s bodies."""
        return self.sites.get(qualname, [])


__all__ = ["CallGraph", "CallSite"]
