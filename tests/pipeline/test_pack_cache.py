"""The record pack + pack-backed journal shards.

Mirror of tests/pipeline/test_quarantine.py at the pack level: a warm
sweep served entirely out of ``records.rpak`` must be row-for-row
bit-identical to a cold sweep, every pack corruption mode must
quarantine evidence (never delete) and leave the sweep output
bit-identical, and concurrent writers must never lose records.
"""

import multiprocessing
import os
import shutil
import threading

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import HEADER_SIZE, Pack
from repro.pipeline import RecordCache, RunReport, run_sweep
from repro.pipeline.cache import PACK_NAME
from repro.pipeline.journal import RunJournal, sweep_config

from tests.pipeline.golden import assert_bit_identical

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::29]  # 7 specs


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


@pytest.fixture(scope="module")
def golden_and_packed_cache(tmp_path_factory):
    """Golden table + a cache directory filled by a cold sweep."""
    warm = tmp_path_factory.mktemp("packed-cache")
    table = run_sweep(dataset(), DEVICES, cache_dir=str(warm))
    assert sorted(p.name for p in warm.iterdir()) == [PACK_NAME]
    return table, warm


def _copy(packed, tmp_path):
    cache_dir = tmp_path / "cache"
    shutil.copytree(packed, cache_dir)
    return cache_dir


class TestPackBackedCache:
    def test_warm_sweep_from_pack_bit_identical(
            self, golden_and_packed_cache, tmp_path):
        golden, packed = golden_and_packed_cache
        cache = RecordCache(_copy(packed, tmp_path))
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.hits == len(SPECS)
        assert cache.misses == 0
        assert cache.quarantined == 0

    @pytest.mark.parametrize("mode", ["magic", "truncate"])
    def test_corrupt_pack_file_quarantined(
            self, golden_and_packed_cache, tmp_path, mode):
        """An unreadable pack is moved into quarantine/ wholesale; the
        sweep rebuilds every record and stays bit-identical."""
        golden, packed = golden_and_packed_cache
        cache_dir = _copy(packed, tmp_path)
        pack_path = cache_dir / PACK_NAME
        data = pack_path.read_bytes()
        if mode == "magic":
            pack_path.write_bytes(b"NOTAPACK" + data[8:])
        else:
            pack_path.write_bytes(data[: HEADER_SIZE // 2])
        cache = RecordCache(cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, cache=cache, report=rep)
        assert_bit_identical(table, golden)
        assert cache.quarantined == 1
        assert rep.cache_quarantined >= 1
        assert (cache_dir / "quarantine" / PACK_NAME).exists()
        # The rebuilt records went into a fresh pack.
        assert len(RecordCache(cache_dir)) == len(SPECS)

    def test_corrupt_pack_entry_quarantined_as_copy(
            self, golden_and_packed_cache, tmp_path):
        """One flipped blob byte: only that record is a miss, its raw
        bytes are copied out as evidence, and the rest of the pack keeps
        serving hits."""
        golden, packed = golden_and_packed_cache
        cache_dir = _copy(packed, tmp_path)
        pack_path = cache_dir / PACK_NAME
        data = bytearray(pack_path.read_bytes())
        data[HEADER_SIZE] ^= 0xFF  # first blob byte = first record
        pack_path.write_bytes(bytes(data))
        cache = RecordCache(cache_dir)
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.hits == len(SPECS) - 1
        assert cache.quarantined == 1
        evidence = list((cache_dir / "quarantine").iterdir())
        assert len(evidence) == 1
        assert evidence[0].name.endswith(".json")
        # The rebuilt record shadows the damaged one.
        fresh = RecordCache(cache_dir)
        assert run_sweep(dataset(), DEVICES, cache=fresh) == golden
        assert fresh.hits == len(SPECS) and fresh.quarantined == 0


class TestLen:
    def test_counts_only_complete_pairs(self, golden_and_packed_cache,
                                        tmp_path):
        """Only committed records count: bytes an interrupted append
        left past the live table are ignored."""
        _, packed = golden_and_packed_cache
        cache_dir = _copy(packed, tmp_path)
        with open(cache_dir / PACK_NAME, "ab") as fh:
            fh.write(b'{"torn": "append"}' * 10)
        assert len(RecordCache(cache_dir)) == len(SPECS)

    def test_census_is_cached_not_rescanned(self, golden_and_packed_cache,
                                            tmp_path, monkeypatch):
        """len() reads the pack's entry table; it never lists the
        directory."""
        _, packed = golden_and_packed_cache
        cache = RecordCache(_copy(packed, tmp_path))
        calls = []
        for name in ("scandir", "listdir"):
            real = getattr(os, name)

            def counting(*a, _real=real, **k):
                calls.append(a)
                return _real(*a, **k)

            monkeypatch.setattr(os, name, counting)
        for _ in range(10):
            assert len(cache) == len(SPECS)
        assert calls == []

    def test_pack_entries_counted(self, golden_and_packed_cache,
                                  tmp_path):
        _, packed = golden_and_packed_cache
        assert len(RecordCache(_copy(packed, tmp_path))) == len(SPECS)
        assert len(RecordCache(tmp_path / "empty")) == 0

    def test_quarantine_updates_census(self, golden_and_packed_cache,
                                       tmp_path):
        _, packed = golden_and_packed_cache
        cache_dir = _copy(packed, tmp_path)
        pack_path = cache_dir / PACK_NAME
        with Pack.open(pack_path) as pack:
            key = pack.keys()[0]
            entry = pack.entry(key)
        data = bytearray(pack_path.read_bytes())
        data[entry.offset] ^= 0xFF
        pack_path.write_bytes(bytes(data))
        fresh = RecordCache(cache_dir)
        assert len(fresh) == len(SPECS)  # counted before detection
        assert fresh.load([key]) == [None]
        assert len(fresh) == len(SPECS) - 1


def _append_many(root, worker, n):
    from repro.perfmodel.batch import _GridPlan
    from repro.perfmodel.record import build_records

    record = build_records(SPECS[:1], MAX_NNZ, _GridPlan(DEVICES))[0]
    cache = RecordCache(root)
    for i in range(n):
        cache.append({f"w{worker}-{i:03d}": record})


class TestConcurrentWriters:
    def test_two_processes_appending_keep_every_record(self, tmp_path):
        """Two sweeps sharing one cache directory: the exclusive flock
        serialises their appends, so no header switch drops the other
        process's records."""
        n = 40
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_append_many, args=(tmp_path, w, n))
                 for w in (0, 1)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0
        cache = RecordCache(tmp_path)
        keys = [f"w{w}-{i:03d}" for w in (0, 1) for i in range(n)]
        assert len(cache) == 2 * n
        assert all(r is not None for r in cache.load(keys))
        assert cache.quarantined == 0


class TestConcurrentQuarantine:
    def test_same_name_collisions_keep_every_piece_of_evidence(
            self, tmp_path):
        """Regression for the quarantine collision race: N workers
        quarantining same-named files at the same instant must end up
        with N distinct evidence files — the old ``while
        target.exists()`` probe let two workers pick the same ``.N``
        suffix and clobber each other."""
        n = 8
        contents = [f"evidence-{i}".encode() for i in range(n)]
        victims = []
        for i in range(n):
            sub = tmp_path / f"w{i}"
            sub.mkdir()
            victim = sub / "victim.json"
            victim.write_bytes(contents[i])
            victims.append(victim)
        caches = [RecordCache(tmp_path) for _ in range(n)]
        barrier = threading.Barrier(n)
        errors = []

        def worker(i):
            try:
                barrier.wait()
                caches[i]._quarantine(victims[i])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        moved = list((tmp_path / "quarantine").iterdir())
        assert len(moved) == n
        assert sorted(p.read_bytes() for p in moved) == sorted(contents)
        assert all(not v.exists() for v in victims)


class TestPackShards:
    def config(self):
        return sweep_config(dataset(), DEVICES, True, None, 0, "fp64")

    def test_journalled_pack_sweep_and_resume(self, golden_and_packed_cache,
                                              tmp_path):
        golden, _ = golden_and_packed_cache
        run_dir = tmp_path / "run"
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, run_dir=str(run_dir),
                          pack_shards=True, report=rep)
        assert_bit_identical(table, golden)
        assert rep.engine["shards"] == "pack"
        journal = RunJournal.load(run_dir)
        assert journal.shard_store == "pack"
        assert journal.pack_path.exists()
        assert not journal.shards_dir.exists()
        done = journal.completed_chunks()
        assert sorted(done) == sorted(journal._chunks)
        # Resume follows the journalled layout (no flag needed) and
        # reuses every packed shard.
        rep2 = RunReport()
        table2 = run_sweep(dataset(), DEVICES, run_dir=str(run_dir),
                           resume=True, report=rep2)
        assert_bit_identical(table2, golden)
        assert rep2.engine["shards"] == "pack"
        assert rep2.chunks_resumed == len(journal._chunks)

    def test_corrupt_shard_pack_means_rerun_not_crash(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2), (2, 4)],
            shard_store="pack",
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        journal.record_chunk(0, 0, 2, attempt=0)
        journal.pack_path.write_bytes(b"garbage, not a pack")
        reloaded = RunJournal.load(tmp_path / "run")
        assert reloaded.shard_store == "pack"
        assert reloaded.completed_chunks() == {}

    def test_retried_chunk_reappends_idempotently(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2)],
            shard_store="pack",
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        size = journal.pack_path.stat().st_size
        journal.write_shard(0, shard)  # retry with identical payload
        assert journal.pack_path.stat().st_size == size
        loaded = journal.load_shard(0)
        assert loaded.names == shard.names

    def test_unknown_shard_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard store"):
            RunJournal.create(
                tmp_path / "run", self.config(), [(0, 1)],
                shard_store="tape",
            )
