"""Collect sources, parse once, build the analysis, run every rule."""

import ast
import os
from dataclasses import dataclass, field
from typing import List

from repro.lint.callgraph import CallGraph
from repro.lint.effects import EffectTable
from repro.lint.findings import Finding, LintConfig
from repro.lint.flowrules import FLOW_RULES
from repro.lint.rules import ALL_RULES
from repro.lint.symbols import SymbolTable


@dataclass(frozen=True)
class Module:
    """One parsed source file handed to the rules."""

    path: str
    tree: ast.Module
    source: str


@dataclass
class Project:
    """The whole-program analysis context every rule receives.

    The syntactic rules (R001-R004) read only ``modules``; the flow
    rules (R005, R006, R008) consume the symbol table, call graph, and
    effect table built over the same parsed set.
    """

    modules: List[Module]
    config: LintConfig
    symbols: SymbolTable = field(repr=False)
    callgraph: CallGraph = field(repr=False)
    effects: EffectTable = field(repr=False)


_SKIP_DIRS = {"__pycache__", ".git", ".egg-info"}


def collect_files(paths):
    """Every ``.py`` file under *paths* (files or directories).

    A path that does not exist raises ``FileNotFoundError`` — a typo'd
    target must not report a clean 0-findings run.
    """
    files = []
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"lint target does not exist: {path}"
            )
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if d not in _SKIP_DIRS and not d.endswith(".egg-info")
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    return files


def parse_modules(files):
    """Parse *files*; syntax errors become findings, not crashes.

    Returns ``(modules, findings)``.
    """
    modules = []
    findings = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            findings.append(Finding(
                "E000", path, error.lineno or 1,
                f"syntax error: {error.msg}",
            ))
            continue
        modules.append(Module(path=path, tree=tree, source=source))
    return modules, findings


def build_project(modules, config=None):
    """Build the symbol table, call graph, and effect table once."""
    if config is None:
        config = LintConfig()
    symbols = SymbolTable(modules)
    callgraph = CallGraph(symbols, config)
    effects = EffectTable(symbols, callgraph, config)
    return Project(
        modules=modules,
        config=config,
        symbols=symbols,
        callgraph=callgraph,
        effects=effects,
    )


def run_lint(paths, config=None):
    """Lint *paths* and return findings sorted by location."""
    if config is None:
        config = LintConfig()
    modules, findings = parse_modules(collect_files(paths))
    project = build_project(modules, config)
    for rule in ALL_RULES + FLOW_RULES:
        findings.extend(rule(project, config))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


__all__ = [
    "Module",
    "Project",
    "build_project",
    "collect_files",
    "parse_modules",
    "run_lint",
]
