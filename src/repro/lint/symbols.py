"""Project-wide symbol table for the whole-program lint pass.

The flow rules (R005, R006, R008) need to answer questions a single parsed
file cannot: *which function does this call land in*, *what class does
``self.vm.daemon`` hold*, *which dataclass fields does ``RunOptions``
declare*.  :class:`SymbolTable` indexes every scanned module once:

* functions and methods by qualified name (``Class.method`` / ``func``)
  and by bare method name (the dynamic-dispatch fallback pool),
* classes with their base names, methods, properties, and — for
  dataclasses and annotated classes — declared fields,
* per-class attribute types recovered from constructor assignments
  (``self.daemon = ClockPageDaemon(...)`` types ``self.daemon``),
* per-module import aliases (``import time`` / ``from x import y``)
  so external calls resolve to dotted names like ``time.perf_counter``,
* per-module global (module-level) variable names, for the
  global-mutation effect.

Resolution is deliberately *best effort*: Python cannot be statically
typed after the fact, so every consumer treats "unknown" as its own
answer (optimistic for the determinism audit, pessimistic for the
hot-path purity proof — see :mod:`repro.lint.effects`).
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One function or method definition in the scanned tree."""

    qualname: str
    name: str
    class_name: Optional[str]
    module_path: str
    node: ast.AST
    lineno: int
    is_property: bool = False

    def __repr__(self):
        return f"FunctionInfo({self.qualname!r}, {self.module_path!r})"


@dataclass
class ClassInfo:
    """One class definition: bases, members, and recovered attr types."""

    name: str
    module_path: str
    node: ast.AST
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    properties: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()
    is_dataclass: bool = False
    #: attr name -> class names assigned to it (``self.x = Cls(...)``).
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def dotted_parts(expr):
    """The ``a.b.c`` chain of *expr* as a name tuple, or ``None``.

    Accepts ``Name`` and nested ``Attribute`` nodes only; anything with
    a call, subscript, or literal in the chain has no static spelling.
    """
    parts = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return None


def _decorator_names(node):
    names = []
    for decorator in node.decorator_list:
        parts = dotted_parts(decorator)
        if parts is None and isinstance(decorator, ast.Call):
            parts = dotted_parts(decorator.func)
        if parts:
            names.append(".".join(parts))
    return names


def _annotated_names(class_node):
    """Class-level annotated names, in declaration order.

    For a dataclass these are exactly the generated fields; for plain
    classes they are still the declared data surface.
    """
    names = []
    for item in class_node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            names.append(item.target.id)
    return tuple(names)


def constructed_classes(value):
    """Class names *value* may construct (walks IfExp/BoolOp arms)."""
    if isinstance(value, ast.Call):
        parts = dotted_parts(value.func)
        if parts:
            return (parts[-1],)
        return ()
    if isinstance(value, ast.IfExp):
        arms = constructed_classes(value.body) + constructed_classes(
            value.orelse
        )
        return _dedupe(arms)
    if isinstance(value, ast.BoolOp):
        result = ()
        for item in value.values:
            result += constructed_classes(item)
        return _dedupe(result)
    return ()


def _dedupe(names):
    seen = ()
    for name in names:
        if name not in seen:
            seen += (name,)
    return seen


class SymbolTable:
    """Index of every definition in a parsed module set."""

    def __init__(self, modules):
        self.modules = list(modules)
        #: qualname -> [FunctionInfo] (same-named defs across modules
        #: share an entry; consumers union over the list).
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: bare method/function name -> [FunctionInfo].
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: class name -> [ClassInfo].
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: module path -> {alias -> dotted import target}.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: module path -> module-level assigned names.
        self.module_globals: Dict[str, set] = {}
        #: (module path, name) -> FunctionInfo for module-level defs.
        self.module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        for module in self.modules:
            self._index_module(module)
        for infos in self.classes.values():
            for info in infos:
                self._recover_attr_types(info)

    # -- indexing ------------------------------------------------------

    def _index_module(self, module):
        imports = {}
        globals_here = set()
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    imports[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    imports[name] = f"{node.module}.{alias.name}"
            elif isinstance(node, _FUNCTION_NODES):
                self._add_function(module, node, None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        globals_here.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                globals_here.add(element.id)
        self.imports[module.path] = imports
        self.module_globals[module.path] = globals_here

    def _add_function(self, module, node, class_name,
                      is_property=False):
        qualname = (f"{class_name}.{node.name}" if class_name
                    else node.name)
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            class_name=class_name,
            module_path=module.path,
            node=node,
            lineno=node.lineno,
            is_property=is_property,
        )
        self.functions.setdefault(qualname, []).append(info)
        self.by_name.setdefault(node.name, []).append(info)
        if class_name is None:
            self.module_functions[(module.path, node.name)] = info
        return info

    def _add_class(self, module, node):
        bases = []
        for base in node.bases:
            parts = dotted_parts(base)
            if parts:
                bases.append(parts[-1])
        decorators = _decorator_names(node)
        info = ClassInfo(
            name=node.name,
            module_path=module.path,
            node=node,
            bases=tuple(bases),
            fields=_annotated_names(node),
            is_dataclass=any("dataclass" in name
                             for name in decorators),
        )
        properties = []
        for item in node.body:
            if isinstance(item, _FUNCTION_NODES):
                is_property = "property" in _decorator_names(item)
                member = self._add_function(
                    module, item, node.name, is_property=is_property
                )
                info.methods[item.name] = member
                if is_property:
                    properties.append(item.name)
        info.properties = tuple(properties)
        self.classes.setdefault(node.name, []).append(info)

    def _recover_attr_types(self, info):
        """Type ``self.x`` from constructor-style assignments."""
        attr_types = {}
        for method in info.methods.values():
            local_classes = self.local_class_bindings(method.node)
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    names = tuple(
                        name
                        for name in constructed_classes(node.value)
                        if name in self.classes
                    )
                    if (not names and isinstance(node.value, ast.Name)
                            and node.value.id in local_classes):
                        names = local_classes[node.value.id]
                    if names:
                        previous = attr_types.get(target.attr, ())
                        merged = previous + tuple(
                            name for name in names
                            if name not in previous
                        )
                        attr_types[target.attr] = merged
        info.attr_types = attr_types

    # -- queries -------------------------------------------------------

    def local_class_bindings(self, func_node):
        """``{local name: (class names,)}`` from constructor assigns."""
        bindings = {}
        for node in ast.walk(func_node):
            if not isinstance(node, ast.Assign):
                continue
            names = tuple(
                name for name in constructed_classes(node.value)
                if name in self.classes
            )
            if not names:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = names
        return bindings

    def class_infos(self, name):
        """Every :class:`ClassInfo` defined under *name*."""
        return self.classes.get(name, [])

    def method_in_class(self, class_name, method_name, _seen=None):
        """Resolve *method_name* on *class_name*, walking base names."""
        if _seen is None:
            _seen = set()
        if class_name in _seen:
            return []
        _seen.add(class_name)
        found = []
        for info in self.class_infos(class_name):
            if method_name in info.methods:
                found.append(info.methods[method_name])
                continue
            for base in info.bases:
                found.extend(
                    self.method_in_class(base, method_name, _seen)
                )
        return found

    def receiver_classes(self, chain, context_class):
        """Classes an attribute chain may hold, or ``None`` if unknown.

        *chain* is the receiver part of a call — ``("self", "vm",
        "daemon")`` for ``self.vm.daemon.poll()`` — and *context_class*
        the class of the enclosing method.  Each step follows the
        recovered ``attr_types``; any unknown step returns ``None``.
        """
        if not chain:
            return None
        if chain[0] == "self" and context_class:
            current = (context_class,)
            rest = chain[1:]
        elif chain[0] in self.classes:
            current = (chain[0],)
            rest = chain[1:]
        else:
            return None
        for attr in rest:
            next_classes = ()
            for name in current:
                for info in self.class_infos(name):
                    next_classes += tuple(
                        candidate
                        for candidate in info.attr_types.get(attr, ())
                        if candidate not in next_classes
                    )
            if not next_classes:
                return None
            current = next_classes
        return current

    def dataclass_fields(self, class_name):
        """Declared field names of *class_name* (annotated members)."""
        fields = ()
        for info in self.class_infos(class_name):
            fields += tuple(
                name for name in info.fields if name not in fields
            )
        return fields

    def is_module_global(self, module_path, name):
        """Whether *name* is assigned at module level in that file."""
        return name in self.module_globals.get(module_path, set())

    def import_target(self, module_path, name):
        """The dotted import behind *name* in that file, or ``None``."""
        return self.imports.get(module_path, {}).get(name)


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "SymbolTable",
    "constructed_classes",
    "dotted_parts",
]
