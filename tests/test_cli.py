"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9.9"])


class TestStaticCommands:
    def test_table_2_1(self, capsys):
        assert main(["table", "2.1"]) == 0
        out = capsys.readouterr().out
        assert "128 Kbytes" in out
        assert "Direct Mapped" in out

    def test_table_3_1(self, capsys):
        assert main(["table", "3.1"]) == 0
        out = capsys.readouterr().out
        for policy in ("FAULT", "FLUSH", "SPUR", "WRITE", "MIN"):
            assert policy in out

    def test_table_3_2(self, capsys):
        assert main(["table", "3.2"]) == 0
        out = capsys.readouterr().out
        assert "t_ds" in out and "1000" in out

    def test_table_3_4_from_paper(self, capsys):
        assert main(["table", "3.4", "--source", "paper"]) == 0
        out = capsys.readouterr().out
        assert "35.3M" in out  # WORKLOAD1@5MB WRITE cell

    def test_formats(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "SPUR PTE" in out
        assert "SPUR Cache Tag" in out


class TestSimulationCommands:
    def test_run_slc(self, capsys):
        assert main([
            "run", "--workload", "slc", "--length", "0.01",
            "--dirty", "FAULT", "--ref", "NOREF",
        ]) == 0
        out = capsys.readouterr().out
        assert "dirty=FAULT" in out
        assert "page-ins" in out

    def test_run_dev_host(self, capsys):
        assert main([
            "run", "--workload", "dev-sloth", "--length", "0.01",
        ]) == 0
        assert "dev-sloth" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["doom", "spec.json"])
    def test_run_unknown_workload(self, name):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", name])
        assert excinfo.value.code == (
            f"unknown workload {name!r}; try slc, workload1 or "
            f"dev-<host>"
        )

    def test_run_unknown_dev_host(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "dev-hal9000"])

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "t21.txt"
        assert main(["table", "2.1", "--out", str(target)]) == 0
        assert "128 Kbytes" in target.read_text()

    def test_table_3_3_miniature(self, capsys):
        assert main(["table", "3.3", "--length", "0.005"]) == 0
        assert "N_zfod" in capsys.readouterr().out

    def test_table_3_4_measured_miniature(self, capsys):
        assert main([
            "table", "3.4", "--source", "measured",
            "--length", "0.005",
        ]) == 0
        assert "measured counts" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main([
            "characterize", "--workload", "workload1",
            "--length", "0.01", "--max-references", "20000",
        ]) == 0
        out = capsys.readouterr().out
        assert "working set" in out
        assert "reuse distances" in out

    @pytest.mark.parametrize("command", ["characterize"])
    def test_negative_reference_cap_exits_with_one_line(
            self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--max-references", "-3"])
        assert excinfo.value.code == "max_references must be >= 0, got -3"
        assert "Traceback" not in capsys.readouterr().err

    def test_campaign_writes_every_artefact(self, tmp_path):
        assert main([
            "campaign", "--out-dir", str(tmp_path), "--length", "0.005",
            "--reps", "1",
        ]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "table_3_3.txt", "table_3_4_paper.txt",
            "table_3_4_measured.txt", "table_3_5.txt", "table_4_1.txt",
            "REPRODUCTION_REPORT.md",
        }
        report = (tmp_path / "REPRODUCTION_REPORT.md").read_text()
        assert "## Shape-target checklist" in report
        assert "not evaluated at length 0.005" in report
        table = (tmp_path / "table_4_1.txt").read_text()
        assert table.rstrip("\n") in report

    def test_campaign_runs_tables_at_the_given_seed(self, tmp_path,
                                                    capsys):
        assert main([
            "campaign", "--out-dir", str(tmp_path), "--length", "0.02",
            "--reps", "1", "--seed", "1",
        ]) == 0
        seeded = {
            number: (tmp_path / f"table_{number}.txt").read_text()
            for number in ("3_3", "3_5")
        }
        capsys.readouterr()
        for number in ("3.3", "3.5"):
            tables = {}
            for seed in ("0", "1"):
                assert main([
                    "table", number, "--length", "0.02", "--seed", seed,
                ]) == 0
                tables[seed] = capsys.readouterr().out
            stem = number.replace(".", "_")
            assert seeded[stem] == tables["1"]
            assert seeded[stem] != tables["0"]

    @pytest.mark.parametrize("min_length,code", [
        (0.005, 1), (0.01, 0),
    ], ids=["at-length-fails", "below-length-skipped"])
    def test_campaign_exit_code_follows_targets(self, tmp_path,
                                                monkeypatch, capsys,
                                                min_length, code):
        from repro.analysis import targets

        broken = dataclasses.replace(
            targets.TARGETS[0], check=lambda rows: False,
            min_length=min_length,
        )
        monkeypatch.setattr(targets, "TARGETS",
                            (broken,) + targets.TARGETS[1:])
        assert main([
            "campaign", "--out-dir", str(tmp_path), "--length", "0.005",
            "--reps", "1",
        ]) == code
        # Every artefact is written whatever the verdict.
        assert len(list(tmp_path.iterdir())) == 6
        report = (tmp_path / "REPRODUCTION_REPORT.md").read_text()
        failed = f"target FAILED: {broken.name}"
        assert (failed in capsys.readouterr().err) == bool(code)
        assert ("FAILED" in report) == bool(code)


class TestParallelCommands:
    def test_table_with_workers_and_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "table", "3.3", "--length", "0.005",
            "--workers", "2", "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Warm cache: identical artefact, no re-simulation needed.
        assert first == second
        assert any(cache_dir.glob("??/*.json"))

    def test_campaign_writes_artefacts_and_caches(self, tmp_path,
                                                  capsys):
        out_dir = tmp_path / "out"
        cache_dir = tmp_path / "cache"
        argv = [
            "campaign", "--out-dir", str(out_dir),
            "--length", "0.005", "--reps", "1",
            "--workers", "2", "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {"table_3_3.txt", "table_3_4_measured.txt",
                "table_3_5.txt", "table_4_1.txt"} <= names
        cached = sorted(cache_dir.glob("??/*.json"))
        assert cached
        first = {p.name: p.read_text() for p in cached}
        # Second run resolves entirely from the cache: same artefacts,
        # no new cache entries.
        assert main(argv) == 0
        capsys.readouterr()
        assert {
            p.name: p.read_text()
            for p in sorted(cache_dir.glob("??/*.json"))
        } == first

    @pytest.mark.parametrize("argv,message", [
        (["table", "4.1", "--workers", "0"],
         "workers must be >= 1, got 0"),
        (["table", "4.1", "--epoch-refs", "0"],
         "epoch_refs must be >= 1, got 0"),
        (["table", "4.1", "--reps", "0"], "reps must be >= 1, got 0"),
        (["table", "4.1", "--reps", "-1"], "reps must be >= 1, got -1"),
        (["table", "3.3", "--length", "0"],
         "length must be > 0, got 0.0"),
        (["table", "3.3", "--length", "-1"],
         "length must be > 0, got -1.0"),
        (["run", "--memory-ratio", "0"],
         "wired frames consume all memory"),
        (["run", "--dirty", "BOGUS"],
         "unknown dirty-bit policy 'BOGUS'; expected one of "
         "['FAULT', 'FLUSH', 'MIN', 'PROTMISS', 'SPUR', 'WRITE']"),
    ], ids=["workers", "epoch-refs", "reps0", "reps-neg", "length0",
            "length-neg", "memory-ratio", "dirty"])
    def test_invalid_option_exits_with_one_line(self, tmp_path, capsys,
                                                argv, message):
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--trace", str(trace)])
        # A string SystemExit code is printed as one line, never as a
        # traceback; an error it replaces is not chained.
        assert excinfo.value.code == message
        error = excinfo.value
        assert error.__context__ is None or error.__suppress_context__
        assert "Traceback" not in capsys.readouterr().err
        assert not trace.exists()

    def test_campaign_with_no_reps_runs_no_cell(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.parallel import executor

        ran = []
        monkeypatch.setattr(executor, "simulate_cell", ran.append)
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--reps", "0",
                  "--out-dir", str(tmp_path / "out")])
        assert excinfo.value.code == "reps must be >= 1, got 0"
        assert ran == []
        assert not (tmp_path / "out").exists()
        capsys.readouterr()


class TestCampaignSurface:
    @pytest.mark.parametrize("argv", [
        ["worker", "--cells", "shard.json"],
        ["campaign", "serve"],
        ["campaign", "status", "--port", "1"],
        ["all"],
        ["report"],
        ["lint", "src"],
        ["record", "t.trace"],
        ["replay", "t.trace"],
    ], ids=["worker", "serve", "status", "all", "report", "lint",
            "record", "replay"])
    def test_retired_subcommand_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["table", "4.1"], ["campaign"],
    ], ids=["table", "campaign"])
    @pytest.mark.parametrize("flag,value", [
        ("--driver", "subprocess"),
        ("--retries", "1"),
        ("--retry-backoff", "0.5"),
        ("--cell-timeout", "5"),
        ("--journal", "j.jsonl"),
        ("--no-cache", None),
    ])
    def test_retired_flag_is_rejected(self, capsys, command, flag,
                                      value):
        with pytest.raises(SystemExit) as excinfo:
            main(command + [flag] + ([value] if value else []))
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["campaign", "--reps", "0", "--out-dir", "out"],
    ], ids=["campaign"])
    def test_out_is_rejected_where_nothing_reads_it(self, capsys,
                                                    tmp_path, argv):
        # The campaign writes under --out-dir; an --out it would
        # ignore is a usage error.  (The bad --reps stops a parser
        # that still takes --out before it runs anything.)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert ("unrecognized arguments: --out"
                in capsys.readouterr().err)
