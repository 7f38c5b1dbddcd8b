"""Result-cache key derivation and hit/miss/invalidation behaviour."""

import dataclasses
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.parallel import (
    CACHE_FORMAT,
    CacheKeyError,
    ResultCache,
    RunCell,
    cache_key,
    cell_key,
    result_from_payload,
    result_to_payload,
)
from repro.parallel.cache import _canonical
from repro.workloads.catalog import workload_by_name
from repro.workloads.devsystems import DEV_SYSTEM_PROFILES
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

TINY_SCALE = 0.004


def tiny_run(seed=0):
    return ExperimentRunner().run(
        scaled_config(memory_ratio=40),
        SlcWorkload(length_scale=TINY_SCALE),
        seed=seed, max_references=2000,
    )


class TestCacheKey:
    def test_stable_across_equal_inputs(self):
        a = cache_key(scaled_config(memory_ratio=40),
                      SlcWorkload(length_scale=0.5), 3, 1000)
        b = cache_key(scaled_config(memory_ratio=40),
                      SlcWorkload(length_scale=0.5), 3, 1000)
        assert a == b

    @pytest.mark.parametrize("change", [
        lambda c, w, s, m: (c.with_memory(c.memory_bytes * 2), w, s, m),
        lambda c, w, s, m: (c.with_policies(dirty="FAULT"), w, s, m),
        lambda c, w, s, m: (c.with_policies(reference="NOREF"),
                            w, s, m),
        lambda c, w, s, m: (c, SlcWorkload(length_scale=0.25), s, m),
        lambda c, w, s, m: (c, Workload1(length_scale=0.5), s, m),
        lambda c, w, s, m: (c, w, s + 1, m),
        lambda c, w, s, m: (c, w, s, 999),
        lambda c, w, s, m: (c, w, s, None),
    ])
    def test_any_input_change_changes_the_key(self, change):
        base = (scaled_config(memory_ratio=40),
                SlcWorkload(length_scale=0.5), 3, 1000)
        assert cache_key(*base) != cache_key(*change(*base))

    def test_workload_class_distinguishes_equal_state(self):
        """Two recipes with identical fields but different classes
        must not share a key."""
        slc = SlcWorkload(length_scale=0.5)
        w1 = Workload1(length_scale=0.5)
        config = scaled_config(memory_ratio=40)
        assert cache_key(config, slc, 0) != cache_key(config, w1, 0)

    def test_uncanonical_input_raises(self):
        class Opaque:
            pass

        workload = SlcWorkload(length_scale=0.5)
        workload.helper = Opaque()
        with pytest.raises(CacheKeyError):
            cache_key(scaled_config(memory_ratio=40), workload, 0)

    def test_canonical_distinguishes_float_from_int(self):
        assert _canonical(1) != _canonical(1.0)

    def test_canonical_dict_order_independent(self):
        assert _canonical({"a": 1, "b": 2}) == _canonical(
            {"b": 2, "a": 1}
        )


def tiny_cell(seed=0):
    return RunCell(scaled_config(memory_ratio=40),
                   SlcWorkload(length_scale=TINY_SCALE),
                   seed=seed, max_references=2000, label=f"s{seed}")


class TestCellKey:
    def test_is_the_cache_key_of_the_cells_inputs(self):
        cell = tiny_cell(seed=3)
        assert cell_key(cell) == cache_key(
            cell.config, cell.workload, cell.seed, cell.max_references
        )

    def test_keys_match_between_equal_cells(self):
        # Two independently built but equal cells share one key: the
        # property every resume and every cache hit rests on.
        a = tiny_cell(seed=3)
        b = tiny_cell(seed=3)
        assert a is not b
        assert cell_key(a) == cell_key(b) is not None

    def test_unkeyable_cell_has_no_identity(self):
        class Opaque:
            pass

        cell = tiny_cell()
        cell.workload.helper = Opaque()
        assert cell_key(cell) is None

    @pytest.mark.parametrize("field, value", [
        ("sanitize", "full"),
        ("label", "renamed"),
        ("observe", True),
        ("epoch_refs", 123),
    ])
    def test_run_settings_stay_out_of_the_key(self, field, value):
        # These fields change how a cell is run or reported, never
        # what it measures, so a campaign re-run with different
        # settings still resumes every finished cell.
        cell = tiny_cell(seed=3)
        changed = dataclasses.replace(cell, **{field: value})
        assert getattr(changed, field) != getattr(cell, field)
        assert cell_key(changed) == cell_key(cell)


#: Every workload recipe the CLI can name (bar ``.json`` specs).
WORKLOAD_NAMES = ["slc", "workload1"] + sorted({
    f"dev-{profile.hostname}" for profile in DEV_SYSTEM_PROFILES
})


def named_cell(name):
    return RunCell(scaled_config(memory_ratio=40),
                   workload_by_name(name, length_scale=0.5),
                   seed=7, max_references=1000, label=name)


@pytest.fixture(scope="module")
def fresh_interpreter_keys():
    """``cell_key`` of every named cell, computed in a spawned process.

    A spawned interpreter has its own string-hash seed, so equal keys
    prove the key never depends on per-process state — the property
    that lets a cache written by one run resume another.
    """
    context = multiprocessing.get_context("spawn")
    cells = [named_cell(name) for name in WORKLOAD_NAMES]
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        keys = list(pool.map(cell_key, cells))
    return dict(zip(WORKLOAD_NAMES, keys))


class TestKeysAcrossProcesses:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_fresh_interpreter_derives_the_same_key(
            self, name, fresh_interpreter_keys):
        key = cell_key(named_cell(name))
        assert key is not None
        assert fresh_interpreter_keys[name] == key


class TestSerialisation:
    def test_round_trip(self):
        result = tiny_run()
        restored = result_from_payload(
            json.loads(json.dumps(result_to_payload(result)))
        )
        assert restored == result
        # Event-keyed counts survive the name round trip.
        assert restored.events == result.events

    def test_host_seconds_excluded(self):
        result = tiny_run()
        assert result.host_seconds > 0
        payload = result_to_payload(result)
        assert "host_seconds" not in payload
        assert result_from_payload(payload).host_seconds == 0.0

    @pytest.mark.parametrize("damage", [
        "missing-field", "unknown-event", "events-not-a-mapping",
        "other-format", "not-a-dict",
    ])
    def test_malformed_payload_raises(self, damage):
        # KeyError/TypeError is the contract the cache relies on to
        # treat a payload as a miss.
        payload = damaged_payload(result_to_payload(tiny_run()), damage)
        with pytest.raises((KeyError, TypeError)):
            result_from_payload(payload)


def damaged_payload(payload, damage):
    """*payload* broken in one of the ways a stale or corrupt entry is."""
    payload = json.loads(json.dumps(payload))
    if damage == "missing-field":
        del payload["cycles"]
    elif damage == "unknown-event":
        payload["events"]["NO_SUCH_EVENT"] = 1
    elif damage == "events-not-a-mapping":
        payload["events"] = sorted(payload["events"].items())
    elif damage == "other-format":
        payload["format"] = CACHE_FORMAT + 1
    elif damage == "not-a-dict":
        payload = [payload]
    return payload


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_run()
        key = cache_key(scaled_config(memory_ratio=40),
                        SlcWorkload(length_scale=TINY_SCALE), 0, 2000)
        assert cache.get(key) is None
        cache.put(key, result)
        reloaded = cache.get(key)
        assert reloaded == result
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_reload_from_fresh_instance(self, tmp_path):
        """A second session over the same directory hits."""
        result = tiny_run()
        key = cache_key(scaled_config(memory_ratio=40),
                        SlcWorkload(length_scale=TINY_SCALE), 0, 2000)
        ResultCache(tmp_path).put(key, result)
        assert ResultCache(tmp_path).get(key) == result

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_run()
        workload = SlcWorkload(length_scale=TINY_SCALE)
        cache.put(cache_key(scaled_config(memory_ratio=40),
                            workload, 0, 2000), result)
        other = cache_key(scaled_config(memory_ratio=48),
                          workload, 0, 2000)
        assert cache.get(other) is None

    def test_every_store_is_fsynced_before_it_is_visible(
            self, tmp_path, monkeypatch):
        # A killed campaign resumes from whatever entries are visible,
        # so each one must reach the disk before it is renamed into
        # place.
        cache = ResultCache(tmp_path)
        result = tiny_run()
        keys = [
            cache_key(scaled_config(memory_ratio=40),
                      SlcWorkload(length_scale=TINY_SCALE), seed, 2000)
            for seed in range(2)
        ]
        visible_at_fsync = []
        real_fsync = os.fsync

        def spy(fd):
            visible_at_fsync.append(
                cache.path_for(keys[len(visible_at_fsync)]).exists()
            )
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        for key in keys:
            cache.put(key, result)
        assert visible_at_fsync == [False, False]
        assert all(cache.get(key) == result for key in keys)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(scaled_config(memory_ratio=40),
                        SlcWorkload(length_scale=TINY_SCALE), 0, 2000)
        cache.put(key, tiny_run())
        cache.path_for(key).write_text("{ truncated")
        assert cache.get(key) is None

    def test_format_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(scaled_config(memory_ratio=40),
                        SlcWorkload(length_scale=TINY_SCALE), 0, 2000)
        cache.put(key, tiny_run())
        payload = json.loads(cache.path_for(key).read_text())
        payload["format"] = CACHE_FORMAT + 1
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_run()
        for seed in range(3):
            key = cache_key(scaled_config(memory_ratio=40),
                            SlcWorkload(length_scale=TINY_SCALE),
                            seed, 2000)
            cache.put(key, dataclasses.replace(result, seed=seed))
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0


@pytest.fixture(scope="module")
def stored():
    """One tiny result and keys for three seeds of its recipe."""
    result = tiny_run()
    keys = [
        cache_key(scaled_config(memory_ratio=40),
                  SlcWorkload(length_scale=TINY_SCALE), seed, 2000)
        for seed in range(3)
    ]
    return result, keys


def stray_files(root):
    return sorted(path.name for path in root.glob("??/*.tmp*"))


class TestDurableStore:
    """The cache is the resume ledger: what it promises a killed run."""

    def test_missing_root_directories_are_created(self, tmp_path,
                                                  stored):
        result, (key, *_) = stored
        root = tmp_path / "a" / "b" / "cache"
        cache = ResultCache(root)
        assert root.is_dir()
        cache.put(key, result)
        assert ResultCache(root).get(key) == result

    def test_empty_store_misses_every_key(self, tmp_path, stored):
        _, keys = stored
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        assert [cache.get(key) for key in keys] == [None] * len(keys)
        assert (cache.hits, cache.misses, cache.stores) == (
            0, len(keys), 0)

    def test_last_store_wins(self, tmp_path, stored):
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        later = dataclasses.replace(result, cycles=result.cycles + 1)
        cache.put(key, later)
        assert len(cache) == 1
        assert ResultCache(tmp_path).get(key) == later

    def test_entry_is_one_sorted_json_line_under_a_two_level_fanout(
            self, tmp_path, stored):
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        path = cache.path_for(key)
        assert path == tmp_path / key[:2] / f"{key}.json"
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["format"] == CACHE_FORMAT
        assert payload == result_to_payload(result)

    def test_store_leaves_no_temp_file(self, tmp_path, stored):
        result, keys = stored
        cache = ResultCache(tmp_path)
        for key in keys:
            cache.put(key, result)
        assert stray_files(tmp_path) == []
        assert len(cache) == len(keys)

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_interrupted_store_keeps_the_previous_entry(
            self, tmp_path, stored, monkeypatch, step):
        # A store that dies before its rename must leave the entry a
        # reader sees untouched: old payload, never a partial one.
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)
        cache.put(key, result)

        def killed(*args):
            raise OSError("killed mid-store")

        monkeypatch.setattr(os, step, killed)
        later = dataclasses.replace(result, cycles=result.cycles + 1)
        with pytest.raises(OSError):
            cache.put(key, later)
        monkeypatch.undo()
        assert cache.stores == 1
        assert ResultCache(tmp_path).get(key) == result

    def test_interrupted_first_store_leaves_no_entry(
            self, tmp_path, stored, monkeypatch):
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)

        def killed(*args):
            raise OSError("killed mid-store")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            cache.put(key, result)
        monkeypatch.undo()
        # The torn temp file is left behind but is not an entry.
        assert len(stray_files(tmp_path)) == 1
        assert len(cache) == 0
        assert ResultCache(tmp_path).get(key) is None

    def test_counters_are_per_instance(self, tmp_path, stored):
        result, (first, second, _) = stored
        writer = ResultCache(tmp_path)
        writer.put(first, result)
        reader = ResultCache(tmp_path)
        assert reader.get(first) == result
        assert reader.get(second) is None
        assert (writer.hits, writer.misses, writer.stores) == (0, 0, 1)
        assert (reader.hits, reader.misses, reader.stores) == (1, 1, 0)

    def test_stats_line_reports_traffic_and_root(self, tmp_path,
                                                 stored):
        result, (first, second, _) = stored
        cache = ResultCache(tmp_path)
        cache.get(first)
        cache.put(first, result)
        cache.get(first)
        cache.get(second)
        assert cache.stats_line() == (
            f"cache: 1 hits, 2 misses, 1 stores ({tmp_path})"
        )

    def test_clear_keeps_the_root_and_accepts_new_stores(
            self, tmp_path, stored):
        result, keys = stored
        cache = ResultCache(tmp_path)
        for key in keys:
            cache.put(key, result)
        cache.clear()
        assert tmp_path.is_dir()
        assert [cache.get(key) for key in keys] == [None] * len(keys)
        cache.put(keys[0], result)
        assert len(cache) == 1
        assert cache.get(keys[0]) == result


class TestDamageTolerance:
    """Unreadable entries are misses; a store over them heals them."""

    @pytest.mark.parametrize("damage", [
        "missing-field", "unknown-event", "events-not-a-mapping",
        "other-format", "not-a-dict", "truncated", "empty", "not-json",
    ])
    def test_damaged_entry_reads_as_miss_until_restored(
            self, tmp_path, stored, damage):
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        path = cache.path_for(key)
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "not-json":
            path.write_text("\x00 not json\n")
        else:
            path.write_text(json.dumps(
                damaged_payload(result_to_payload(result), damage)
            ))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, result)
        assert cache.get(key) == result

    def test_damage_is_local_to_its_entry(self, tmp_path, stored):
        result, keys = stored
        cache = ResultCache(tmp_path)
        for key in keys:
            cache.put(key, result)
        cache.path_for(keys[1]).write_text("{ torn")
        again = ResultCache(tmp_path)
        assert [again.get(key) == result for key in keys] == [
            True, False, True]
        assert (again.hits, again.misses) == (2, 1)

    def test_stray_temp_file_is_neither_an_entry_nor_a_hit(
            self, tmp_path, stored):
        # A store killed between write and rename leaves its temp
        # file: a complete payload, but never renamed into place.
        result, (key, *_) = stored
        cache = ResultCache(tmp_path)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.with_name(path.name + ".tmp999999").write_text(
            json.dumps(result_to_payload(result))
        )
        assert len(cache) == 0
        assert cache.get(key) is None
        cache.put(key, result)
        assert len(cache) == 1
        assert cache.get(key) == result

    def test_unreadable_entry_reads_as_miss(self, tmp_path, stored):
        _, (key, *_) = stored
        cache = ResultCache(tmp_path)
        cache.path_for(key).mkdir(parents=True)
        assert cache.get(key) is None
        assert cache.misses == 1
