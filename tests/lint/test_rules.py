"""Each lint rule fires on a crafted negative and stays quiet on the
sanctioned equivalent — plus the acceptance check that the repo at
HEAD is clean.
"""

import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from repro.lint import Finding, LintConfig, run_lint
from repro.lint.__main__ import main as lint_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def write(directory, name, source):
    path = directory / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def findings_for(rule, paths, config):
    return [f for f in run_lint(paths, config) if f.rule == rule]


@pytest.fixture
def config():
    return LintConfig().replace(hot_loops=("Machine.run",))


class TestR001HotLoopPurity:
    def test_fires_on_dirty_loop(self, tmp_path, config):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run(self, accesses):
                    total = 0
                    for ref in accesses:
                        self.cache.touch(ref)
                        squares = [r * r for r in (1, 2)]
                        table = {}
                    return total
            """)
        found = findings_for("R001", [path], config)
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any("attribute call" in m for m in messages)
        assert any("comprehension" in m for m in messages)
        assert any("dict literal" in m for m in messages)

    def test_quiet_on_prebound_loop(self, tmp_path, config):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run(self, accesses):
                    touch = self.cache.touch
                    table = {}
                    total = 0
                    for ref in accesses:
                        total += touch(ref)
                    return total
            """)
        assert findings_for("R001", [path], config) == []

    def test_other_functions_unconstrained(self, tmp_path, config):
        path = write(tmp_path, "cold.py", """\
            class Machine:
                def report(self, rows):
                    for row in rows:
                        self.sink.emit([row])
            """)
        assert findings_for("R001", [path], config) == []

    def test_allowlist_suppresses_named_calls(self, tmp_path, config):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run(self, accesses):
                    for ref in accesses:
                        self.cache.touch(ref)
            """)
        lenient = config.replace(
            hot_loop_attr_allowlist=frozenset({"touch"})
        )
        assert findings_for("R001", [path], lenient) == []

    def test_while_test_is_hot(self, tmp_path, config):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run(self, accesses):
                    while self.queue.pending():
                        pass
            """)
        assert len(findings_for("R001", [path], config)) == 1


class TestR001ChunkedShape:
    @pytest.fixture
    def chunked(self):
        return LintConfig().replace(
            hot_loops=(),
            chunked_hot_loops=("Machine.run_chunks",),
        )

    def test_quiet_on_two_level_shape(self, tmp_path, chunked):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    miss = self.miss
                    total = 0
                    for chunk in chunks:
                        kinds = chunk[0::2]
                        total += kinds.count(0)
                        it = iter(chunk)
                        for kind, vaddr in zip(it, it):
                            total += miss(kind, vaddr)
                    return total
            """)
        assert findings_for("R001", [path], chunked) == []

    def test_fires_on_missing_inner_loop(self, tmp_path, chunked):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    total = 0
                    for chunk in chunks:
                        total += len(chunk)
                    return total
            """)
        found = findings_for("R001", [path], chunked)
        assert len(found) == 1
        assert "two-level chunk/reference shape" in found[0].message

    def test_chunk_allowlist_is_outer_level_only(self, tmp_path,
                                                 chunked):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    total = 0
                    for chunk in chunks:
                        it = iter(chunk)
                        for kind, vaddr in zip(it, it):
                            total += chunk.count(kind)
                    return total
            """)
        found = findings_for("R001", [path], chunked)
        assert len(found) == 1
        assert "attribute call `.count(...)`" in found[0].message

    def test_fires_on_attribute_call_in_inner_loop(self, tmp_path,
                                                   chunked):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    for chunk in chunks:
                        it = iter(chunk)
                        for kind, vaddr in zip(it, it):
                            self.cache.touch(vaddr)
            """)
        found = findings_for("R001", [path], chunked)
        assert len(found) == 1
        assert "pre-bind the method" in found[0].message

    def test_fires_on_tuple_allocation_in_inner_loop(self, tmp_path,
                                                     chunked):
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    miss = self.miss
                    for chunk in chunks:
                        it = iter(chunk)
                        for kind, vaddr in zip(it, it):
                            ref = (kind, vaddr)
                            miss(ref)
            """)
        found = findings_for("R001", [path], chunked)
        assert len(found) == 1
        assert "nothing may be boxed per reference" in found[0].message

    def test_segmented_while_counts_as_inner_level(self, tmp_path,
                                                   chunked):
        # A while between the chunk loop and the zip loop (the
        # daemon-poll segmentation shape) is a per-reference level:
        # strict rules apply inside it.
        path = write(tmp_path, "hot.py", """\
            class Machine:
                def run_chunks(self, chunks):
                    for chunk in chunks:
                        start = 0
                        while start < len(chunk):
                            squares = [x for x in chunk]
                            start += 2
            """)
        found = findings_for("R001", [path], chunked)
        assert len(found) == 1
        assert "comprehension" in found[0].message


class TestR002TagArrayWrites:
    def test_fires_outside_sanctioned_writers(self, tmp_path, config):
        path = write(tmp_path, "rogue.py", """\
            def poke(cache, index):
                cache.line_block[index] = -1
                cache.state[index] |= 1
            """)
        found = findings_for("R002", [path], config)
        assert len(found) == 2
        assert all("parallel tag array" in f.message for f in found)

    def test_cache_module_writes_anything(self, tmp_path, config):
        path = write(tmp_path, "cache.py", """\
            def fill(self, index):
                self.line_block[index] = 7
                self.prot[index] = 1
            """)
        assert findings_for("R002", [path], config) == []

    def test_partial_sanction_is_field_scoped(self, tmp_path, config):
        path = write(tmp_path, "dirty.py", """\
            def refresh(cache, index):
                cache.page_dirty[index] = True
                cache.line_block[index] = 9
            """)
        found = findings_for("R002", [path], config)
        assert len(found) == 1
        assert ".line_block" in found[0].message

    def test_scalar_attributes_ignored(self, tmp_path, config):
        path = write(tmp_path, "records.py", """\
            def invalidate(pte):
                pte.valid = False
                pte.state = "gone"
            """)
        assert findings_for("R002", [path], config) == []


EVENTS_FIXTURE = """\
    import enum

    class Event(enum.IntEnum):
        ALPHA = 0
        BETA = 1
        GAMMA = 2

    MODE_SETS = {
        0: (Event.ALPHA, Event.BETA),
    }
    """


class TestR003EventExhaustiveness:
    def test_fires_on_unmapped_and_dead_events(self, tmp_path, config):
        write(tmp_path, "events.py", EVENTS_FIXTURE)
        write(tmp_path, "user.py", """\
            from events import Event

            def tally(counters, n):
                counters.increment(Event.ALPHA)
                counters.increment(Event.GAMMA, n)
            """)
        found = findings_for("R003", [str(tmp_path)], config)
        messages = " | ".join(f.message for f in found)
        assert len(found) == 2
        assert "Event.GAMMA is not assigned to any MODE_SETS" in messages
        assert "Event.BETA is never passed to increment()" in messages

    def test_quiet_when_exhaustive(self, tmp_path, config):
        write(tmp_path, "events.py", """\
            import enum

            class Event(enum.IntEnum):
                ALPHA = 0

            MODE_SETS = {0: (Event.ALPHA,)}
            """)
        write(tmp_path, "user.py", """\
            def tally(counters):
                counters.increment(Event.ALPHA)
            """)
        assert findings_for("R003", [str(tmp_path)], config) == []

    def test_slot_adds_count_as_increments(self, tmp_path, config):
        write(tmp_path, "events.py", EVENTS_FIXTURE.replace(
            "(Event.ALPHA, Event.BETA)",
            "(Event.ALPHA, Event.BETA, Event.GAMMA)"))
        write(tmp_path, "user.py", """\
            from events import Event

            _ALPHA = int(Event.ALPHA)
            _BETA = int(Event.BETA)
            _GAMMA = Event.GAMMA

            def tally(slots, n):
                slots[_ALPHA] += 1
                slots[_BETA] += n
                slots[_GAMMA] = 1
            """)
        found = findings_for("R003", [str(tmp_path)], config)
        # An assignment is not an add, and only int(Event.X) names a
        # slot: GAMMA stays dead.
        assert [f.message.split()[0] for f in found] == ["Event.GAMMA"]

    def test_skipped_without_events_module(self, tmp_path, config):
        path = write(tmp_path, "plain.py", "x = 1\n")
        assert findings_for("R003", [path], config) == []


class TestR004EventDocs:
    def test_fires_on_undocumented_event(self, tmp_path, config):
        write(tmp_path, "events.py", EVENTS_FIXTURE)
        doc = tmp_path / "events.md"
        doc.write_text("| ALPHA | ... |\n| BETA | ... |\n")
        documented = config.replace(events_doc=str(doc))
        found = findings_for("R004", [str(tmp_path)], documented)
        assert len(found) == 1
        assert "Event.GAMMA is not mentioned" in found[0].message

    def test_fires_on_missing_doc(self, tmp_path, config):
        write(tmp_path, "events.py", EVENTS_FIXTURE)
        missing = config.replace(events_doc="no/such/doc.md")
        found = findings_for("R004", [str(tmp_path)], missing)
        assert len(found) == 1
        assert "not found" in found[0].message

    def test_quiet_when_documented(self, tmp_path, config):
        write(tmp_path, "events.py", EVENTS_FIXTURE)
        doc = tmp_path / "events.md"
        doc.write_text("ALPHA BETA GAMMA\n")
        documented = config.replace(events_doc=str(doc))
        assert findings_for("R004", [str(tmp_path)], documented) == []


class TestEngine:
    def test_syntax_error_is_a_finding(self, tmp_path):
        path = write(tmp_path, "broken.py", "def f(:\n")
        found = run_lint([path])
        assert [f.rule for f in found] == ["E000"]

    def test_findings_sorted_and_rendered(self, tmp_path, config):
        path = write(tmp_path, "rogue.py", """\
            def poke(cache, index):
                cache.state[index] = 3
            """)
        found = run_lint([path], config)
        assert found[0].render() == (
            f"{path}:2: R002 write to parallel tag array `.state` "
            f"outside its sanctioned writers; route the update "
            f"through VirtualCache so the parallel arrays stay in "
            f"lock-step"
        )

    def test_finding_is_hashable_record(self):
        finding = Finding("R999", "x.py", 3, "msg")
        assert finding.render() == "x.py:3: R999 msg"
        assert hash(finding)


class TestRepoIsClean:
    def test_src_passes_every_rule(self):
        assert run_lint([str(REPO_ROOT / "src")]) == []

    def test_cli_rejects_missing_target(self, capsys):
        assert lint_main(["no/such/dir"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cli_exit_codes(self, tmp_path, capsys):
        assert lint_main([str(REPO_ROOT / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out
        path = write(tmp_path, "rogue.py", """\
            def poke(cache, index):
                cache.line_block[index] = -1
            """)
        assert lint_main([path]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "1 finding" in out

    def test_docs_catalogue_has_exactly_the_emitted_rules(self):
        emitted = set()
        for path in (REPO_ROOT / "src" / "repro" / "lint").glob("*.py"):
            emitted |= set(re.findall(r'Finding\(\s*"(\w+)"',
                                      path.read_text(encoding="utf-8")))
        doc = (REPO_ROOT / "docs" / "analysis.md").read_text(
            encoding="utf-8")
        headings = set(re.findall(r"^### ([A-Z]\d{3})\b", doc,
                                  re.MULTILINE))
        assert "E000" in emitted
        assert headings == emitted


ROGUE = """\
    def poke(cache, index):
        cache.line_block[index] = -1
    """


class TestCommandLine:
    def test_one_line_per_finding_then_a_summary(self, tmp_path,
                                                 capsys):
        path = write(tmp_path, "rogue.py", """\
            def poke(cache, index):
                cache.line_block[index] = -1
                cache.state[index] = 3
            """)
        assert lint_main([path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines[:-1]] == [
            [f"{path}:2:", "R002"], [f"{path}:3:", "R002"],
        ]
        assert lines[-1] == f"repro.lint: 2 findings in {path}"

    def test_lints_every_path_given(self, tmp_path, capsys):
        first = write(tmp_path, "first.py", ROGUE)
        clean = tmp_path / "pkg"
        clean.mkdir()
        second = write(clean, "second.py", ROGUE)
        assert lint_main([first, str(clean)]) == 1
        out = capsys.readouterr().out
        assert f"{first}:2: R002" in out
        assert f"{second}:2: R002" in out
        assert out.splitlines()[-1] == (
            f"repro.lint: 2 findings in {first} {clean}"
        )

    def test_defaults_to_src(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "src").mkdir()
        write(tmp_path / "src", "rogue.py", ROGUE)
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "repro.lint: 1 finding in src"
        )

    @pytest.mark.parametrize("argv", [
        ["--quiet"],
        ["--format", "json"],
        ["--write-baseline", "lint.json"],
    ], ids=["quiet", "format", "write-baseline"])
    def test_takes_no_options(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(argv + ["src"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_runs_as_a_module(self, tmp_path):
        path = write(tmp_path, "rogue.py", ROGUE)
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", path],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 1
        assert result.stdout.startswith(f"{path}:2: R002 ")
