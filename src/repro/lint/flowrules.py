"""R005, R006 and R008: the whole-program flow rules.

Unlike R001-R004 (syntactic, per-file), these rules consume the
project analysis built by the engine — symbol table, call graph,
effect table — and reason about what code *reachable from* the
simulation surface does:

R005
    Determinism audit.  Any nondeterministic effect (set iteration,
    unseeded ``random``, wall-clock or environment reads) in code
    reachable from the hot-loop roots breaks the bit-equivalence that
    the parallel campaign cache rests on.  Unresolvable calls are
    *not* findings here: an audit that cried wolf on every untypable
    receiver would be ignored.

R006
    Cache-key soundness.  A field of ``MachineConfig``/``RunOptions``/
    ``RunCell`` read on the simulation path but absent from the
    ``cache_key`` spec (and not declared inert) means two runs that
    differ in that field share a cache entry — the stale-result bug
    class.  The rule derives coverage from the key function itself:
    which parameters its body reads, plus which attributes call sites
    forward into it.

R008
    Transitive hot-path purity.  R001's attribute-call ban, escalated:
    every call inside a hot loop is resolved through the call graph
    and its *transitive* effects checked against the forbidden set.
    A helper proven pure (or counters/tag-write only) passes without
    being hand-allowlisted; a call that cannot be resolved at all is
    a finding — this is a proof, so "unknown" fails it.
"""

import ast

from repro.lint import effects as fx
from repro.lint.findings import Finding
from repro.lint.rules import _direct_loops, _own_level_nodes
from repro.lint.symbols import dotted_parts


def _chain(callgraph, parents, qualname):
    return " -> ".join(callgraph.path_to_root(parents, qualname))


# -- R005: determinism audit -------------------------------------------


def check_determinism(project, config):
    findings = []
    callgraph = project.callgraph
    seen = set()

    def audit(roots, describe):
        parents = callgraph.reachable(roots)
        for qualname in sorted(parents):
            for path, lineno, flag, detail in (
                project.effects.evidence_of(qualname)
            ):
                if flag not in fx.NONDET:
                    continue
                key = (path, lineno, flag)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    "R005", path, lineno,
                    describe(qualname, detail,
                             _chain(callgraph, parents, qualname)),
                ))

    audit(
        config.effect_hot_loops,
        lambda qualname, detail, chain: (
            f"nondeterminism on the simulation path: {qualname} "
            f"{detail} (reached via {chain}); serial and parallel "
            f"runs must stay bit-identical"
        ),
    )
    # The resume machinery gets the same audit with its own message:
    # cell keys must come out identical on every run, or a resumed
    # campaign recomputes (or mismatches) work its result cache
    # already holds.  Roots absent from the scanned file set
    # simply contribute nothing, keeping partial-tree lints clean.
    audit(
        config.resume_identity_roots,
        lambda qualname, detail, chain: (
            f"nondeterminism on the resume-identity path: {qualname} "
            f"{detail} (reached via {chain}); a resumable campaign "
            f"must derive identical cell keys on every run"
        ),
    )
    return findings


# -- R006: cache-key soundness -----------------------------------------


def _param_names(func_node):
    args = func_node.args
    names = set()
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        names.update(arg.arg for arg in group)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _read_params(func_node):
    """Parameters the function body actually reads (Name loads)."""
    params = _param_names(func_node)
    read = set()
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in params):
            read.add(node.id)
    return read


def _forwarded_attrs(project, key_qualname):
    """Attribute names passed as arguments into the key function.

    ``cache_key(cell.config, cell.workload, cell.seed, ...)`` marks
    ``config``/``workload``/``seed`` as key-covered field names.
    """
    covered = set()
    for sites in project.callgraph.sites.values():
        for site in sites:
            if key_qualname not in site.candidates:
                continue
            arguments = list(site.node.args)
            arguments += [kw.value for kw in site.node.keywords]
            for arg in arguments:
                if isinstance(arg, ast.Attribute):
                    covered.add(arg.attr)
    return covered


def check_cache_key(project, config):
    symbols = project.symbols
    key_info = None
    for (_, name), info in sorted(symbols.module_functions.items()):
        if name == config.cache_key_function:
            key_info = info
            break
    if key_info is None:
        return []

    read = _read_params(key_info.node)
    covered = read | _forwarded_attrs(project, key_info.qualname)
    covered |= set(config.cache_inert_fields)
    config_covered = "config" in read

    aliases = dict(config.option_aliases)
    audited = {config.config_class} | set(config.option_classes)
    fields_of = {
        name: set(symbols.dataclass_fields(name)) for name in audited
    }

    parents = project.callgraph.reachable(config.cache_roots)
    findings = []
    seen = set()
    for qualname in sorted(parents):
        for info in symbols.functions.get(qualname, []):
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                chain = dotted_parts(node)
                if chain is None or len(chain) < 2:
                    continue
                receiver, attr = chain[-2], chain[-1]
                classes = ()
                if receiver in aliases:
                    classes = (aliases[receiver],)
                else:
                    resolved = symbols.receiver_classes(
                        chain[:-1], info.class_name
                    )
                    if resolved:
                        classes = tuple(
                            name for name in resolved
                            if name in audited
                        )
                for class_name in classes:
                    if attr not in fields_of.get(class_name, ()):
                        continue
                    if (class_name == config.config_class
                            and config_covered):
                        continue
                    if attr in covered:
                        continue
                    key = (info.module_path, node.lineno,
                           class_name, attr)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        "R006", info.module_path, node.lineno,
                        f"{qualname} reads {class_name}.{attr} on "
                        f"the simulation path, but the field is "
                        f"neither covered by "
                        f"{config.cache_key_function}() nor declared "
                        f"cache-inert; a cached result could go "
                        f"stale when it changes",
                    ))
    return findings


# -- R008: transitive hot-path purity ----------------------------------


def check_transitive_purity(project, config):
    findings = []
    chunked = set(config.chunked_hot_loops)
    forbidden = set(config.effect_forbidden_flags)
    for qualname in sorted(set(config.effect_hot_loops)):
        for info in project.symbols.functions.get(qualname, []):
            findings.extend(_check_hot_function(
                project, config, info, qualname,
                qualname in chunked, forbidden,
            ))
    return findings


def _check_hot_function(project, config, info, qualname, is_chunked,
                        forbidden):
    sites = {
        id(site.node): site
        for site in project.callgraph.sites_for(qualname)
        if site.path == info.module_path
    }
    findings = []
    seen = set()

    def judge(call, allow):
        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            name = None
        if name is not None and name in allow:
            return
        site = sites.get(id(call))
        if site is None:
            return
        finding = _judge_site(project, config, site, qualname,
                              forbidden)
        if finding is not None and finding not in seen:
            seen.add(finding)
            findings.append(finding)

    def visit(loop, depth):
        if is_chunked and depth == 0:
            allow = (config.chunk_loop_attr_allowlist
                     | config.hot_loop_attr_allowlist)
        else:
            allow = config.hot_loop_attr_allowlist
        for node in _own_level_nodes(loop):
            if isinstance(node, ast.Call):
                judge(node, allow)
        for child in _direct_loops(loop):
            visit(child, depth + 1)

    for loop in _direct_loops(info.node):
        visit(loop, 0)
    return findings


def _judge_site(project, config, site, qualname, forbidden):
    if site.kind == "builtin":
        return None
    if site.kind == "external":
        flags = fx.external_effects(site.external)
        if flags is None:
            return Finding(
                "R008", site.path, site.lineno,
                f"external call `{site.external}` in the hot loop of "
                f"{qualname} has no known effect signature; purity "
                f"is unprovable",
            )
        bad = flags & forbidden
        if bad:
            return Finding(
                "R008", site.path, site.lineno,
                f"external call `{site.external}` in the hot loop of "
                f"{qualname} has effects {_render_flags(bad)}",
            )
        return None
    if site.kind == "unresolved":
        return Finding(
            "R008", site.path, site.lineno,
            f"call {site.display} in the hot loop of {qualname} "
            f"cannot be statically resolved, so its purity is "
            f"unprovable; pre-bind a project helper or extend the "
            f"allowlist",
        )
    flags = set()
    for candidate in site.candidates:
        flags |= project.effects.effects_of(candidate)
    bad = flags & forbidden
    if bad:
        worst = _worst_candidate(project, site.candidates, forbidden)
        return Finding(
            "R008", site.path, site.lineno,
            f"call {site.display} in the hot loop of {qualname} "
            f"reaches {worst} whose transitive effects include "
            f"{_render_flags(bad)}; the hot path may only count and "
            f"write tag arrays",
        )
    return None


def _worst_candidate(project, candidates, forbidden):
    for candidate in sorted(candidates):
        if project.effects.effects_of(candidate) & forbidden:
            return candidate
    return sorted(candidates)[0] if candidates else "<unknown>"


def _render_flags(flags):
    return "{" + ", ".join(sorted(flags)) + "}"


FLOW_RULES = (
    check_determinism,
    check_cache_key,
    check_transitive_purity,
)

__all__ = [
    "FLOW_RULES",
    "check_cache_key",
    "check_determinism",
    "check_transitive_purity",
]
