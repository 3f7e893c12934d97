"""Tests for the persistent schedule store (:mod:`repro.sched.store`):
entry format, corruption tolerance, versioning, cross-process atomicity,
the memo read-through/write-through wiring, and warm-store determinism
of the sweep."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.graph.builder import ddg_from_source
from repro.machine.specs import resolve_machine
from repro.sched import cache as sched_cache
from repro.sched import store as sched_store
from repro.sched.base import ScheduleError
from repro.sched.cache import CacheStats
from repro.sched.hrms import HRMSScheduler
from repro.sched.store import STORE_VERSION, ScheduleStore

FIG2 = "x[i] = y[i]*a + y[i-3]"
KEY = ("fingerprint", "machine", "scheduler", 3, None)
NAMESPACES = ("mii", "schedule", "spill", "alloc")


def _memo(namespace):
    """The process-wide memo of a store namespace."""
    (memo,) = [m for m in sched_cache._MEMOS if m.namespace == namespace]
    return memo


@pytest.fixture(autouse=True)
def _clean_caches():
    sched_cache.clear()
    sched_store.configure(None)
    yield
    sched_cache.clear()
    sched_store.configure(None)


# ----------------------------------------------------------------------
class TestStoreBasics:
    def test_round_trip(self, tmp_path):
        store = ScheduleStore(tmp_path)
        assert store.get("mii", KEY) is None
        assert store.put("mii", KEY, 7)
        assert store.get("mii", KEY) == 7

    def test_persists_across_instances(self, tmp_path):
        ScheduleStore(tmp_path).put("mii", KEY, {"a": [1, 2]})
        assert ScheduleStore(tmp_path).get("mii", KEY) == {"a": [1, 2]}

    def test_namespaces_are_independent(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("mii", KEY, 1)
        store.put("schedule", KEY, 2)
        assert store.get("mii", KEY) == 1
        assert store.get("schedule", KEY) == 2

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("mii", KEY, 1)
        store.put("mii", KEY[:-1] + (4,), 2)
        assert store.get("mii", KEY) == 1
        assert store.get("mii", KEY[:-1] + (4,)) == 2

    def test_clear_and_accounting(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("mii", KEY, 1)
        assert len(store.entries()) == 1
        assert store.total_bytes() > 0
        store.clear()
        assert store.entries() == []
        assert store.get("mii", KEY) is None

    def test_eviction_respects_cap(self, tmp_path):
        store = ScheduleStore(tmp_path, max_bytes=2048)
        for i in range(256):
            store.put("mii", ("k", i), b"x" * 64)
        assert store.total_bytes() <= 2048

    @staticmethod
    def _count_scans(store, monkeypatch):
        scans = []
        entries = store.entries
        monkeypatch.setattr(
            store, "entries", lambda: scans.append(1) or entries()
        )
        return scans

    def test_puts_under_the_cap_scan_once(self, tmp_path, monkeypatch):
        ScheduleStore(tmp_path).put("mii", ("old",), 1)
        store = ScheduleStore(tmp_path)
        scans = self._count_scans(store, monkeypatch)
        assert store.get("mii", ("old",)) == 1
        assert scans == []  # opening and reading never scan
        for i in range(200):
            store.put("mii", ("k", i), b"x" * 64)
        assert len(scans) == 1
        assert len(store.entries()) == 201

    def test_writer_rescans_after_a_sixteenth_of_the_cap(
        self, tmp_path, monkeypatch
    ):
        store = ScheduleStore(tmp_path, max_bytes=16 * 10_000)
        scans = self._count_scans(store, monkeypatch)
        for i in range(5):  # one scan, then four ~2 kB entries
            store.put("mii", ("k", i), b"x" * 2000)
        assert len(scans) == 1
        store.put("mii", ("k", 5), b"x" * 2000)  # past 10 kB written
        assert len(scans) == 2

    def test_unpicklable_value_is_a_soft_failure(self, tmp_path):
        store = ScheduleStore(tmp_path)
        assert store.put("mii", KEY, lambda: None) is False
        assert store.get("mii", KEY) is None

    def test_explicit_evict_respects_requested_cap(self, tmp_path):
        store = ScheduleStore(tmp_path)  # default (huge) cap
        for i in range(32):
            store.put("mii", ("k", i), b"x" * 64)
        before = store.total_bytes()
        remaining = store.evict(before // 4)
        assert remaining <= before // 4
        assert remaining == store.total_bytes()
        assert store.entries()  # partial eviction, not a wipe

    def test_evict_under_cap_is_a_no_op(self, tmp_path):
        store = ScheduleStore(tmp_path)
        for i in range(8):
            store.put("mii", ("k", i), b"x" * 64)
        entries = sorted(store.entries())
        assert store.evict() == store.total_bytes()
        assert sorted(store.entries()) == entries

    def test_evict_drops_oldest_first(self, tmp_path):
        import os

        store = ScheduleStore(tmp_path)
        for i in range(4):
            store.put("mii", ("k", i), b"x" * 64)
            path = store.path_for("mii", ("k", i))
            os.utime(path, (1000 + i, 1000 + i))
        size = store.path_for("mii", ("k", 0)).stat().st_size
        store.evict(store.total_bytes() - 1)  # must drop something
        assert not store.path_for("mii", ("k", 0)).exists()
        assert store.path_for("mii", ("k", 3)).exists()
        assert size > 0

    def test_stats_telemetry(self, tmp_path):
        store = ScheduleStore(tmp_path, max_bytes=4096)
        store.put("mii", KEY, 1)
        store.put("schedule", KEY, b"payload")
        telemetry = store.stats()
        assert telemetry["root"] == str(tmp_path)
        assert telemetry["entries"] == 2
        assert telemetry["max_bytes"] == 4096
        assert set(telemetry["namespaces"]) == {"mii", "schedule"}
        assert telemetry["total_bytes"] == store.total_bytes()


# ----------------------------------------------------------------------
class TestCorruptionTolerance:
    def test_truncated_entry_is_ignored_and_rewritten(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("schedule", KEY, list(range(100)))
        path = store.path_for("schedule", KEY)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get("schedule", KEY) is None  # miss, not a crash
        store.put("schedule", KEY, list(range(100)))
        assert store.get("schedule", KEY) == list(range(100))

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("schedule", KEY, "value")
        store.path_for("schedule", KEY).write_bytes(b"not a store entry")
        assert store.get("schedule", KEY) is None

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.put("schedule", KEY, "value")
        path = store.path_for("schedule", KEY)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get("schedule", KEY) is None

    def test_empty_file_is_a_miss(self, tmp_path):
        store = ScheduleStore(tmp_path)
        path = store.path_for("schedule", KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        assert store.get("schedule", KEY) is None


class TestVersioning:
    def test_version_bump_invalidates_old_entries(self, tmp_path):
        old = ScheduleStore(tmp_path, version=STORE_VERSION)
        old.put("mii", KEY, 7)
        new = ScheduleStore(tmp_path, version=STORE_VERSION + 1)
        assert new.get("mii", KEY) is None  # different key hash
        new.put("mii", KEY, 8)
        assert new.get("mii", KEY) == 8
        assert old.get("mii", KEY) == 7  # old entries untouched

    def test_header_version_is_checked_too(self, tmp_path):
        # Same path, tampered header version: the checksum would still
        # match, so the version field must be verified independently.
        store = ScheduleStore(tmp_path)
        store.put("mii", KEY, 7)
        path = store.path_for("mii", KEY)
        blob = bytearray(path.read_bytes())
        offset = len(b"repro-store\x00")
        blob[offset:offset + 4] = (STORE_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(bytes(blob))
        assert store.get("mii", KEY) is None


# ----------------------------------------------------------------------
def _hammer_writes(root, tag, rounds):
    store = ScheduleStore(root)
    for i in range(rounds):
        store.put("spill", KEY, (tag, i, "x" * 4096))


def _hammer_reads(root, rounds, queue):
    store = ScheduleStore(root)
    bad = 0
    for _ in range(rounds):
        value = store.get("spill", KEY)
        if value is None:
            continue  # not yet written
        tag, i, pad = value
        if tag not in ("a", "b") or pad != "x" * 4096:
            bad += 1
    queue.put(bad)


class TestConcurrency:
    def test_racing_writers_never_interleave(self, tmp_path):
        """Two processes rewriting the same key while a third reads:
        every successful load is one writer's complete value (atomic
        rename), never a mix or a torn read."""
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        writers = [
            ctx.Process(target=_hammer_writes, args=(tmp_path, tag, 200))
            for tag in ("a", "b")
        ]
        reader = ctx.Process(
            target=_hammer_reads, args=(tmp_path, 400, queue)
        )
        for proc in writers + [reader]:
            proc.start()
        for proc in writers + [reader]:
            proc.join(timeout=60)
        assert queue.get(timeout=10) == 0
        # and the final state is one writer's last value
        final = ScheduleStore(tmp_path).get("spill", KEY)
        assert final[0] in ("a", "b") and final[1] == 199

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ScheduleStore(tmp_path)
        for i in range(20):
            store.put("mii", ("k", i), i)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


# ----------------------------------------------------------------------
class TestMemoReadThrough:
    def _context(self):
        return ddg_from_source(FIG2, name="fig2"), resolve_machine("P2L4")

    def test_mii_survives_memory_clear(self, tmp_path):
        ddg, machine = self._context()
        with sched_store.using(tmp_path):
            first = sched_cache.cached_mii(ddg, machine)
            assert sched_cache.STATS.store_misses == 1
            sched_cache.clear()  # fresh process, same directory
            assert sched_cache.cached_mii(ddg, machine) == first
            assert sched_cache.STATS.store_hits == 1
            assert sched_cache.STATS.mii_misses == 0

    def test_schedule_memo_survives_memory_clear(self, tmp_path):
        ddg, machine = self._context()
        scheduler = HRMSScheduler()
        with sched_store.using(tmp_path):
            first = sched_cache.schedule_memo().schedule(
                scheduler, ddg, machine
            )
            sched_cache.clear()
            second = sched_cache.schedule_memo().schedule(
                scheduler, ddg, machine
            )
        assert second is not first  # unpickled, not the same object
        assert second.ii == first.ii
        assert second.times == first.times
        assert sched_cache.STATS.schedule_misses == 0
        assert sched_cache.STATS.store_hits >= 1

    def test_failed_search_is_persisted_and_reraises(self, tmp_path):
        ddg, machine = self._context()
        scheduler = HRMSScheduler()
        with sched_store.using(tmp_path) as store:
            with pytest.raises(ScheduleError) as first:
                sched_cache.schedule_memo().schedule(
                    scheduler, ddg, machine, max_ii=0
                )
            key = (sched_cache.ddg_fingerprint(ddg),
                   sched_cache.machine_key(machine),
                   sched_cache.scheduler_key(scheduler), None, 0)
            assert store.get("schedule", key) == (
                None, (), None, 0, 0, str(first.value)
            )
            sched_cache.clear()
            with pytest.raises(ScheduleError) as second:
                sched_cache.schedule_memo().schedule(
                    scheduler, ddg, machine, max_ii=0
                )
            assert str(second.value) == str(first.value)
            assert sched_cache.STATS.schedule_misses == 0

    def test_spill_memo_survives_memory_clear(self, tmp_path):
        from repro.core.driver import schedule_with_spilling

        ddg, machine = self._context()
        with sched_store.using(tmp_path):
            first = schedule_with_spilling(ddg, machine, 6)
            sched_cache.clear()
            second = schedule_with_spilling(ddg, machine, 6)
        assert second.converged == first.converged
        assert second.spilled == first.spilled
        assert second.schedule.ii == first.schedule.ii
        assert sched_cache.STATS.spill_misses == 0
        # a store hit still hands out a caller-owned copy
        second.schedule.times.clear()
        with sched_store.using(tmp_path):
            third = schedule_with_spilling(ddg, machine, 6)
        assert third.schedule.times == first.schedule.times

    def test_disabled_bypasses_the_store(self, tmp_path):
        ddg, machine = self._context()
        with sched_store.using(tmp_path) as store:
            with sched_cache.disabled():
                sched_cache.cached_mii(ddg, machine)
            assert store.entries() == []
            assert sched_cache.STATS.store_misses == 0

    def test_no_store_means_no_store_counters(self):
        ddg, machine = self._context()
        sched_cache.cached_mii(ddg, machine)
        assert sched_cache.STATS.store_hits == 0
        assert sched_cache.STATS.store_misses == 0

    def test_env_default_activates_store(self, tmp_path, monkeypatch):
        ddg, machine = self._context()
        monkeypatch.setenv(sched_store.ENV_CACHE_DIR, str(tmp_path))
        # force the lazy env read to happen fresh
        sched_store._ACTIVE = sched_store._UNSET
        try:
            sched_cache.cached_mii(ddg, machine)
            assert sched_cache.STATS.store_misses == 1
            store = sched_store.active_store()
            assert store is not None and store.root == tmp_path
            assert len(store.entries()) == 1
        finally:
            sched_store.configure(None)


    # -- every namespace, through its Memo ----------------------------
    def _seeded(self, namespace, store_dir):
        """A real key of *namespace*, computed by one spilling-driver run
        (which fills all four memos) with a store at *store_dir*."""
        from repro.core.driver import schedule_with_spilling

        ddg, machine = self._context()
        with sched_store.using(store_dir):
            schedule_with_spilling(ddg, machine, 6)
        memo = _memo(namespace)
        return memo, next(iter(memo._entries))

    def _lookup_delta(self, memo, key):
        before = sched_cache.STATS.snapshot()
        if isinstance(memo, sched_cache.DriverMemo):
            value = memo.get(key, lambda entry: entry)
        elif isinstance(memo, sched_cache.ScheduleMemo):
            # a schedule entry is rebuilt on the graph and machine its
            # key names: the seeding run's first key is the input graph's
            ddg, machine = self._context()
            assert key[0] == sched_cache.ddg_fingerprint(ddg)
            value = memo.get(key, ddg, machine)
        else:
            value = memo.get(key)
        return value, sched_cache.STATS.delta(before)

    @pytest.mark.parametrize("namespace", NAMESPACES)
    def test_memory_hit_counts_once(self, namespace, tmp_path):
        memo, key = self._seeded(namespace, tmp_path)
        with sched_store.using(tmp_path):
            value, delta = self._lookup_delta(memo, key)
        assert value is not None
        assert delta == CacheStats(**{f"{namespace}_hits": 1})

    @pytest.mark.parametrize("namespace", NAMESPACES)
    def test_store_hit_counts_once(self, namespace, tmp_path):
        memo, key = self._seeded(namespace, tmp_path)
        sched_cache.clear()
        with sched_store.using(tmp_path):
            value, delta = self._lookup_delta(memo, key)
        assert value is not None
        assert key in memo._entries  # the store hit was installed
        assert delta == CacheStats(**{f"{namespace}_hits": 1, "store_hits": 1})

    @pytest.mark.parametrize("namespace", NAMESPACES)
    def test_cold_miss_counts_once(self, namespace, tmp_path):
        memo, key = self._seeded(namespace, tmp_path / "seeded")
        sched_cache.clear()
        with sched_store.using(tmp_path / "empty"):
            value, delta = self._lookup_delta(memo, key)
        assert value is None
        assert delta == CacheStats(
            **{f"{namespace}_misses": 1, "store_misses": 1}
        )

    # -- store values of the wrong type ---------------------------------
    def test_wrong_type_mii_entry_reads_as_miss(self, tmp_path):
        ddg, machine = self._context()
        with sched_cache.disabled():
            expected = sched_cache.cached_mii(ddg, machine)
        key = (sched_cache.ddg_fingerprint(ddg),
               sched_cache.machine_key(machine))
        with sched_store.using(tmp_path) as store:
            assert store.put("mii", key, "not an MII")
            mii = sched_cache.cached_mii(ddg, machine)
            assert store.get("mii", key) == expected  # rewritten
        assert mii == expected
        assert (sched_cache.STATS.mii_hits, sched_cache.STATS.mii_misses) == (
            0, 1
        )

    def test_wrong_type_schedule_entry_reads_as_miss(self, tmp_path):
        ddg, machine = self._context()
        scheduler = HRMSScheduler()
        with sched_cache.disabled():
            expected = scheduler.schedule(ddg, machine)
        key = (sched_cache.ddg_fingerprint(ddg),
               sched_cache.machine_key(machine),
               sched_cache.scheduler_key(scheduler), None, None)
        with sched_store.using(tmp_path) as store:
            assert store.put("schedule", key, "not a schedule")
            schedule = sched_cache.schedule_memo().schedule(
                scheduler, ddg, machine
            )
        assert (schedule.ii, schedule.times) == (expected.ii, expected.times)
        assert sched_cache.STATS.schedule_hits == 0
        assert sched_cache.STATS.schedule_misses == 1


# ----------------------------------------------------------------------
class TestCompactScheduleEntry:
    """A ``schedule`` store entry is ``(ii, times items, scheduler,
    placements, attempts, error)``; a hit is rebuilt on the caller's
    graph and machine, and any other stored value reads as a miss."""

    def _key(self, scheduler, ddg, machine, *tail):
        return (sched_cache.ddg_fingerprint(ddg),
                sched_cache.machine_key(machine),
                sched_cache.scheduler_key(scheduler), *(tail or (None, None)))

    def test_store_hit_is_built_on_the_callers_graph(self, tmp_path):
        machine = resolve_machine("P2L4")
        scheduler = HRMSScheduler()
        memo = sched_cache.schedule_memo()
        with sched_store.using(tmp_path) as store:
            first = memo.schedule(
                scheduler, ddg_from_source(FIG2, name="fig2"), machine
            )
            sched_cache.clear()
            caller = ddg_from_source(FIG2, name="fig2")
            second = memo.schedule(scheduler, caller, machine)
            stored = store.get(
                "schedule", self._key(scheduler, caller, machine)
            )
        assert second.ddg is caller
        assert second.machine is machine
        assert list(second.times.items()) == list(first.times.items())
        for field in dataclasses.fields(first):  # a new field needs storing
            if field.name not in ("ddg", "machine"):
                assert getattr(second, field.name) == getattr(
                    first, field.name
                ), field.name
        assert stored == (
            first.ii, tuple(first.times.items()), first.scheduler,
            first.effort_placements, first.effort_attempts, None,
        )
        assert (sched_cache.STATS.schedule_misses,
                sched_cache.STATS.store_hits) == (0, 1)

    def test_failed_attempt_round_trips(self, tmp_path):
        ddg = ddg_from_source("s = s + x[i]*y[i]", name="dot")
        machine = resolve_machine("P2L4")
        scheduler = HRMSScheduler()
        memo = sched_cache.schedule_memo()
        with sched_store.using(tmp_path) as store:
            assert memo.try_at(scheduler, ddg, machine, 2) is None
            stored = store.get(
                "schedule", self._key(scheduler, ddg, machine, "at", 2)
            )
            sched_cache.clear()
            assert memo.try_at(scheduler, ddg, machine, 2) is None
        assert stored == (None, (), None, 0, 0, None)
        assert (sched_cache.STATS.schedule_hits,
                sched_cache.STATS.schedule_misses,
                sched_cache.STATS.store_hits) == (1, 0, 1)

    @staticmethod
    def _malformed(ddg, schedule):
        times = tuple(schedule.times.items())
        good = (schedule.ii, times, schedule.scheduler,
                schedule.effort_placements, schedule.effort_attempts, None)
        (first, start), *rest = times
        return {
            "arity 5": good[:5],
            "arity 7": good + (None,),
            "not a tuple": list(good),
            "an int": 7,
            "ii a string": (str(schedule.ii),) + good[1:],
            "ii a bool": (True,) + good[1:],
            "ii zero": (0,) + good[1:],
            "times a list": (good[0], list(times)) + good[2:],
            "times a dict": (good[0], dict(times)) + good[2:],
            "times not pairs": (good[0], tuple(schedule.times)) + good[2:],
            "a time a string": (
                good[0], ((first, str(start)), *rest)
            ) + good[2:],
            "scheduler an int": good[:2] + (1,) + good[3:],
            "placements a float": good[:3] + (1.0,) + good[4:],
            "both a schedule and an error": good[:5] + ("failed",),
            "no schedule with times": (None,) + good[1:],
            "error an int": (None, (), None, 0, 0, 3),
            "a foreign node name": (
                good[0], (("not_a_node", start), *rest)
            ) + good[2:],
            "a node missing": (good[0], tuple(rest)) + good[2:],
            "a node twice": (good[0], times + ((first, start),)) + good[2:],
            "a v1 entry": sched_cache._MemoEntry(ddg, schedule, None),
        }

    def test_malformed_entries_read_as_misses(self, tmp_path):
        ddg = ddg_from_source(FIG2, name="fig2")
        machine = resolve_machine("P2L4")
        scheduler = HRMSScheduler()
        with sched_cache.disabled():
            expected = scheduler.schedule(ddg, machine)
        key = self._key(scheduler, ddg, machine)
        good = (expected.ii, tuple(expected.times.items()),
                expected.scheduler, expected.effort_placements,
                expected.effort_attempts, None)
        cases = self._malformed(ddg, expected)
        assert len(expected.times) > 1
        for number, (case, value) in enumerate(cases.items()):
            sched_cache.clear()
            with sched_store.using(tmp_path / str(number)) as store:
                assert store.put("schedule", key, value), case
                schedule = sched_cache.schedule_memo().schedule(
                    scheduler, ddg, machine
                )
                rewritten = store.get("schedule", key)
            assert (schedule.ii, schedule.times) == (
                expected.ii, expected.times
            ), case
            assert (sched_cache.STATS.schedule_hits,
                    sched_cache.STATS.schedule_misses,
                    sched_cache.STATS.store_hits) == (0, 1, 1), case
            assert rewritten == good, case


# ----------------------------------------------------------------------
class TestMemoBookkeeping:
    def test_clear_zeroes_every_counter_and_empties_every_memo(self):
        from repro.core.driver import schedule_with_spilling

        schedule_with_spilling(
            ddg_from_source(FIG2, name="fig2"), resolve_machine("P2L4"), 6
        )
        for number, counter in enumerate(dataclasses.fields(CacheStats)):
            setattr(sched_cache.STATS, counter.name, number + 1)
        memos = [_memo(namespace) for namespace in NAMESPACES]
        assert memos[2] is sched_cache.spill_memo()
        assert memos[3] is sched_cache.alloc_memo()
        assert all(memo._entries for memo in memos)
        sched_cache.clear()
        assert sched_cache.STATS == CacheStats()
        for counter in dataclasses.fields(CacheStats):
            assert getattr(sched_cache.STATS, counter.name) == 0
        assert not any(memo._entries for memo in memos)

    def test_stats_arithmetic_covers_every_field(self):
        names = [counter.name for counter in dataclasses.fields(CacheStats)]
        one = CacheStats(*range(1, len(names) + 1))
        two = CacheStats(*range(10, 10 * len(names) + 1, 10))
        copy = one.snapshot()
        assert copy == one and copy is not one
        delta = two.delta(one)
        total = one.snapshot()
        total.add(two)
        assert list(one.as_dict()) == names
        for name in names:
            assert getattr(delta, name) == getattr(two, name) - getattr(
                one, name
            )
            assert getattr(total, name) == getattr(one, name) + getattr(
                two, name
            )
            assert one.as_dict()[name] == getattr(one, name)


# ----------------------------------------------------------------------
class TestWarmSweepDeterminism:
    def _sweep(self, cache_dir, jobs=1):
        from repro.eval.engine import run_sweep
        from repro.machine import p2l4
        from repro.workloads import perfect_club_like_suite

        return run_sweep(
            suite=perfect_club_like_suite(size=4),
            machines=[p2l4()],
            artifacts=("table1",),
            jobs=jobs,
            cache_dir=str(cache_dir),
        )

    def test_second_sweep_is_store_served_and_byte_identical(self, tmp_path):
        first = self._sweep(tmp_path)
        sched_cache.clear()  # simulate a fresh process
        second = self._sweep(tmp_path)
        assert second.to_json_text() == first.to_json_text()
        cache = second.run.cache
        lookups = cache.store_hits + cache.store_misses
        assert lookups > 0
        assert cache.store_hits / lookups > 0.9
        assert cache.schedule_misses == 0

    def test_warm_store_identical_across_job_counts(self, tmp_path):
        first = self._sweep(tmp_path)
        sched_cache.clear()
        parallel = self._sweep(tmp_path, jobs=2)
        assert parallel.to_json_text() == first.to_json_text()

    def test_store_summary_line_reports_hits(self, tmp_path):
        self._sweep(tmp_path)
        sched_cache.clear()
        report = self._sweep(tmp_path)
        assert "store" in report.summary()
        assert "% hits" in report.summary()


# ----------------------------------------------------------------------
def _audit_tool():
    """``tools/audit_store.py``, loaded as a module."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "audit_store", os.path.join(root, "tools", "audit_store.py")
    )
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


class TestPersistedGraphState:
    def test_stored_graphs_carry_no_scratch_state(self, tmp_path):
        """A tiny cold sweep for every scheduler populates a store; no
        schedule entry holds a graph, and every graph pickled into it
        carries content and its digest only, so nothing a search
        attaches to a graph reaches disk."""
        from repro.eval.engine import run_sweep
        from repro.machine import p2l4
        from repro.workloads import random_suite

        audit = _audit_tool()
        run_sweep(
            suite=random_suite(size=2, seed=5),
            machines=[p2l4()],
            budgets=(8,),
            artifacts=("fig8",),
            scheduler=["hrms", "ims", "swing"],
            cache_dir=str(tmp_path),
        )
        namespaces = {
            path.parent.parent.name
            for path in ScheduleStore(tmp_path).entries()
        }
        assert {"schedule", "spill"} <= namespaces
        checked, stray = audit.stray_state(str(tmp_path))
        assert checked > 0
        assert stray == {}
        assert audit.ALLOWED == {
            "name", "nodes", "invariants", "live_out", "_out", "_in",
            "revision", "_digest",
        }

    def test_a_graph_in_a_schedule_entry_fails_the_audit(self, tmp_path):
        audit = _audit_tool()
        ddg = ddg_from_source(FIG2, name="fig2")
        store = ScheduleStore(tmp_path)
        store.put("schedule", KEY, sched_cache._MemoEntry(ddg, None, "x"))
        store.put("spill", KEY, ddg)
        checked, stray = audit.stray_state(str(tmp_path))
        assert checked == 2
        assert stray == {str(store.path_for("schedule", KEY)): ["DDG"]}
        assert audit.main([str(tmp_path)]) == 1
