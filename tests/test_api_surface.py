"""Public-API surface checks.

Ensures every name each package advertises in ``__all__`` actually
resolves, that the factories cover every registered policy, and that
public callables carry docstrings — the "documented public API"
deliverable, enforced rather than hoped for.
"""

import importlib
import inspect

import pytest

PACKAGES = (
    "repro",
    "repro.api",
    "repro.common",
    "repro.counters",
    "repro.cache",
    "repro.observe",
    "repro.options",
    "repro.translation",
    "repro.vm",
    "repro.policies",
    "repro.machine",
    "repro.workloads",
    "repro.analysis",
    "repro.parallel",
    "repro.lint",
)

MODULES = (
    "repro.cli",
    "repro.common.bitfields",
    "repro.common.errors",
    "repro.common.params",
    "repro.common.rng",
    "repro.common.types",
    "repro.common.units",
    "repro.cache.block",
    "repro.cache.cache",
    "repro.cache.coherence",
    "repro.cache.columns",
    "repro.cache.flush",
    "repro.translation.incache",
    "repro.translation.pagetable",
    "repro.translation.pte",
    "repro.counters.counters",
    "repro.counters.events",
    "repro.counters.methodology",
    "repro.vm.allocator",
    "repro.vm.faults",
    "repro.vm.frames",
    "repro.vm.segments",
    "repro.vm.swap",
    "repro.vm.system",
    "repro.vm.pagedaemon",
    "repro.policies.dirty",
    "repro.policies.reference",
    "repro.policies.costs",
    "repro.policies.model",
    "repro.machine.config",
    "repro.machine.cpu",
    "repro.machine.simulator",
    "repro.machine.runner",
    "repro.observe.observer",
    "repro.observe.progress",
    "repro.observe.report",
    "repro.observe.series",
    "repro.observe.sinks",
    "repro.parallel.cache",
    "repro.parallel.executor",
    "repro.workloads.base",
    "repro.workloads.catalog",
    "repro.workloads.devsystems",
    "repro.workloads.mix",
    "repro.workloads.slc",
    "repro.workloads.synthetic",
    "repro.workloads.workload1",
    "repro.analysis.charts",
    "repro.analysis.experiments",
    "repro.analysis.paper_data",
    "repro.analysis.stats",
    "repro.analysis.tables",
    "repro.analysis.targets",
    "repro.analysis.tracestats",
    "repro.analysis.sweeps",
    "repro.sanitize.checks",
    "repro.sanitize.sanitizer",
    "repro.sanitize.violation",
    "repro.lint.findings",
    "repro.lint.symbols",
    "repro.lint.callgraph",
    "repro.lint.effects",
    "repro.lint.engine",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), package


@pytest.mark.parametrize("module_name", PACKAGES + MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports are documented at home
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if (method.__doc__ or "").strip():
                        continue
                    # An override inherits its contract: documented
                    # if any base class documents the same method.
                    inherited = any(
                        (getattr(base, method_name, None) is not None
                         and (getattr(base, method_name).__doc__
                              or "").strip())
                        for base in member.__mro__[1:]
                    )
                    if not inherited:
                        undocumented.append(
                            f"{name}.{method_name}"
                        )
    assert not undocumented, (
        f"{module_name}: missing docstrings on {undocumented}"
    )


def test_policy_factories_cover_registries():
    from repro.policies.costs import DIRTY_POLICY_NAMES
    from repro.policies.dirty import make_dirty_policy
    from repro.policies.reference import (
        REFERENCE_POLICY_NAMES,
        make_reference_policy,
    )

    for name in DIRTY_POLICY_NAMES + ("PROTMISS",):
        assert make_dirty_policy(name).name == name
    for name in REFERENCE_POLICY_NAMES:
        assert make_reference_policy(name).name == name


def test_version_is_pep440_ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)
