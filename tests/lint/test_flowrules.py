"""Golden-finding tests for the flow rules R005, R006 and R008.

Each rule gets fixture packages with known violations (the rule must
fire on exactly those) and sanctioned equivalents (it must stay
quiet).  The acceptance fixtures from the issue are here too: R006
flagging a config field missing from the cache key, and R008
accepting an inferred-pure helper old R001 would have rejected.
"""

import textwrap

import pytest

from repro.lint import LintConfig, run_lint

REFS = ("Machine.run",)


def write(directory, name, source):
    path = directory / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def findings_for(rule, paths, config):
    return [f for f in run_lint(paths, config) if f.rule == rule]


@pytest.fixture
def flow_config():
    """Aim the flow rules at fixture qualnames, not SpurMachine."""
    return LintConfig().replace(
        hot_loops=(),
        chunked_hot_loops=(),
        effect_hot_loops=("Machine.run",),
        cache_roots=("simulate",),
    )


class TestR005Determinism:
    def test_fires_on_reachable_set_iteration(self, tmp_path,
                                              flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def __init__(self):
                    self._pages = set()

                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self._tally()
                    return total

                def _tally(self):
                    total = 0
                    for vpn in self._pages:
                        total += vpn
                    return total
            """)
        found = findings_for("R005", [path], flow_config)
        assert len(found) == 1
        assert "iterates a set" in found[0].message
        assert "Machine.run -> Machine._tally" in found[0].message

    def test_quiet_on_membership_and_sorted(self, tmp_path,
                                            flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def __init__(self):
                    self._pages = set()

                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self._tally(ref)
                    return total

                def _tally(self, ref):
                    if ref in self._pages:
                        return sum(v for v in sorted(self._pages))
                    return 0
            """)
        assert findings_for("R005", [path], flow_config) == []

    def test_fires_on_reachable_clock_read(self, tmp_path,
                                           flow_config):
        path = write(tmp_path, "mod.py", """\
            import time

            class Machine:
                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self._step(ref)
                    return total

                def _step(self, ref):
                    return time.perf_counter()
            """)
        found = findings_for("R005", [path], flow_config)
        assert len(found) == 1
        assert "time.perf_counter" in found[0].message

    def test_fires_on_unseeded_random_and_environ(self, tmp_path,
                                                  flow_config):
        path = write(tmp_path, "mod.py", """\
            import os
            import random

            class Machine:
                def run(self, refs):
                    return self._noise() + self._knob()

                def _noise(self):
                    return random.random()

                def _knob(self):
                    return int(os.environ.get("KNOB", "0"))
            """)
        found = findings_for("R005", [path], flow_config)
        messages = " | ".join(f.message for f in found)
        assert "random.random" in messages
        assert "os.environ" in messages

    def test_quiet_when_unreachable(self, tmp_path, flow_config):
        path = write(tmp_path, "mod.py", """\
            import time

            class Machine:
                def run(self, refs):
                    return len(refs)

                def report(self):
                    return time.perf_counter()
            """)
        assert findings_for("R005", [path], flow_config) == []

    def test_seeded_rng_is_quiet(self, tmp_path, flow_config):
        path = write(tmp_path, "mod.py", """\
            import random

            class Machine:
                def __init__(self, seed):
                    self._rng = random.Random(seed)

                def run(self, refs):
                    return len(refs)
            """)
        assert findings_for("R005", [path], flow_config) == []


CACHE_FIXTURE_CONFIG = """\
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MachineConfig:
        levels: int = 2
        block_bytes: int = 32

    @dataclass(frozen=True)
    class RunOptions:
        workers: int = 1
        fanciness: int = 0
    """


class TestR006CacheKeySoundness:
    def test_flags_config_field_missing_from_key(self, tmp_path,
                                                 flow_config):
        # The acceptance fixture: cache_key never hashes the config,
        # but the simulation reads config.levels — two configs with
        # different levels would share a cache entry.
        write(tmp_path, "conf.py", CACHE_FIXTURE_CONFIG)
        path = write(tmp_path, "sim.py", """\
            def cache_key(workload, seed):
                return (workload, seed)

            def simulate(config, workload, seed):
                depth = config.levels
                return cache_key(workload, seed) + (depth,)
            """)
        found = findings_for("R006", [str(tmp_path)], flow_config)
        assert len(found) == 1
        assert "MachineConfig.levels" in found[0].message
        assert found[0].path == path

    def test_quiet_when_config_is_hashed(self, tmp_path,
                                         flow_config):
        write(tmp_path, "conf.py", CACHE_FIXTURE_CONFIG)
        write(tmp_path, "sim.py", """\
            def cache_key(config, workload, seed):
                return (config, workload, seed)

            def simulate(config, workload, seed):
                depth = config.levels
                return cache_key(config, workload, seed) + (depth,)
            """)
        assert findings_for("R006", [str(tmp_path)],
                            flow_config) == []

    def test_inert_fields_are_quiet_but_others_flag(self, tmp_path,
                                                    flow_config):
        write(tmp_path, "conf.py", CACHE_FIXTURE_CONFIG)
        path = write(tmp_path, "sim.py", """\
            def cache_key(config, workload, seed):
                return (config, workload, seed)

            def simulate(config, workload, seed, options):
                if options.workers > 1:
                    pass
                return config.levels + options.fanciness
            """)
        found = findings_for("R006", [str(tmp_path)], flow_config)
        assert len(found) == 1
        assert "RunOptions.fanciness" in found[0].message
        assert found[0].path == path

    def test_call_site_forwarded_fields_count_as_covered(
            self, tmp_path, flow_config):
        write(tmp_path, "conf.py", CACHE_FIXTURE_CONFIG)
        write(tmp_path, "sim.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RunCell:
                config: object
                workload: object
                seed: int

            def cache_key(config, workload, seed):
                return (config, workload, seed)

            def simulate(cell):
                return cache_key(cell.config, cell.workload,
                                 cell.seed)
            """)
        assert findings_for("R006", [str(tmp_path)],
                            flow_config) == []

    def test_skipped_without_cache_key_function(self, tmp_path,
                                                flow_config):
        write(tmp_path, "conf.py", CACHE_FIXTURE_CONFIG)
        write(tmp_path, "sim.py", """\
            def simulate(config, workload):
                return config.levels
            """)
        assert findings_for("R006", [str(tmp_path)],
                            flow_config) == []


class TestR008TransitivePurity:
    def test_accepts_inferred_pure_helper_r001_rejected(
            self, tmp_path, flow_config):
        # The acceptance fixture: a direct attribute call in the hot
        # loop.  Old R001 (no effect checking) rejects it outright;
        # with the function under R008's proof the pure helper passes
        # with no allowlist entry.
        source = """\
            class Machine:
                def helper(self, x):
                    return x * 2

                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self.helper(ref)
                    return total
            """
        path = write(tmp_path, "mod.py", source)
        old = LintConfig().replace(
            hot_loops=("Machine.run",), chunked_hot_loops=(),
            effect_hot_loops=(),
        )
        assert len(findings_for("R001", [path], old)) == 1
        new = flow_config.replace(hot_loops=("Machine.run",))
        assert findings_for("R001", [path], new) == []
        assert findings_for("R008", [path], new) == []

    def test_fires_when_helper_reaches_io(self, tmp_path,
                                          flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def emit(self, x):
                    print(x)

                def run(self, refs):
                    for ref in refs:
                        self.emit(ref)
            """)
        found = findings_for("R008", [path], flow_config)
        assert len(found) == 1
        assert "Machine.emit" in found[0].message
        assert "io" in found[0].message

    def test_fires_on_unresolvable_call(self, tmp_path, flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def run(self, refs):
                    for ref in refs:
                        ref.mystery()
            """)
        found = findings_for("R008", [path], flow_config)
        assert len(found) == 1
        assert "cannot be statically resolved" in found[0].message

    def test_fires_on_clock_external_call(self, tmp_path,
                                          flow_config):
        path = write(tmp_path, "mod.py", """\
            import time

            class Machine:
                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += time.perf_counter()
                    return total
            """)
        found = findings_for("R008", [path], flow_config)
        assert len(found) == 1
        assert "time.perf_counter" in found[0].message

    def test_fires_when_helper_mutates_a_module_global(
            self, tmp_path, flow_config):
        path = write(tmp_path, "mod.py", """\
            TOTALS = {}

            class Machine:
                def note(self, ref):
                    TOTALS[ref] = 1

                def run(self, refs):
                    for ref in refs:
                        self.note(ref)
            """)
        found = findings_for("R008", [path], flow_config)
        assert len(found) == 1
        assert "Machine.note" in found[0].message
        assert "global-mutation" in found[0].message

    def test_transitive_global_mutation_is_caught(self, tmp_path,
                                                  flow_config):
        # The mutation sits two calls below the loop, in a module
        # function the loop never names.
        path = write(tmp_path, "mod.py", """\
            SEEN = []

            def remember(ref):
                SEEN.append(ref)

            class Machine:
                def step(self, ref):
                    remember(ref)
                    return ref

                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self.step(ref)
                    return total
            """)
        found = findings_for("R008", [path], flow_config)
        assert len(found) == 1
        assert "global-mutation" in found[0].message

    def test_instance_state_is_not_global_mutation(self, tmp_path,
                                                   flow_config):
        path = write(tmp_path, "mod.py", """\
            SEEN = []

            class Machine:
                def step(self, ref):
                    self.seen = ref
                    return len(SEEN)

                def run(self, refs):
                    total = 0
                    for ref in refs:
                        total += self.step(ref)
                    return total
            """)
        assert findings_for("R008", [path], flow_config) == []

    def test_counters_and_prebound_calls_pass(self, tmp_path,
                                              flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def _miss(self, ref):
                    self.misses += 1
                    return 1

                def run(self, refs):
                    miss = self._miss
                    total = 0
                    for ref in refs:
                        total += miss(ref)
                    return total
            """)
        assert findings_for("R008", [path], flow_config) == []

    def test_allowlisted_names_are_skipped(self, tmp_path,
                                           flow_config):
        path = write(tmp_path, "mod.py", """\
            class Machine:
                def run(self, refs):
                    for ref in refs:
                        ref.mystery()
            """)
        lenient = flow_config.replace(
            hot_loop_attr_allowlist=frozenset({"mystery"})
        )
        assert findings_for("R008", [path], lenient) == []

