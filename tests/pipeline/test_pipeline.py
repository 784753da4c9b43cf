"""Pipeline engine + record cache: determinism, round-trips, sharding.

The sweep tests run on a strided cross-section of the tiny preset (every
bin and feature axis is represented) so the suite stays fast; set
``REPRO_EXHAUSTIVE=1`` to run them on the full preset.
"""

import os

import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.core.table import SweepTable
from repro.devices import TESTBEDS
from repro.perfmodel.batch import _GridPlan
from repro.perfmodel.record import SpecRecord, build_records
from repro.pipeline import RecordCache, run_sweep, resolve_jobs, spec_key
from tests.oracles.sweep import InstanceDataset, spec_rows

DEVICES = [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"]]
MAX_NNZ = 6_000

TINY = build_dataset_specs("tiny")
SPECS = TINY if os.environ.get("REPRO_EXHAUSTIVE") == "1" else TINY[::7]


def tiny_dataset(specs=None, name="tiny", cls=Dataset):
    return cls(
        SPECS if specs is None else specs, max_nnz=MAX_NNZ, name=name,
    )


def one_record(spec, devices=DEVICES):
    return build_records([spec], MAX_NNZ, _GridPlan(devices))[0]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def serial_table():
    return sweep(tiny_dataset(), DEVICES)


class TestSpecKey:
    def test_stable_across_equal_specs(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        b = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        assert spec_key(a, 100) == spec_key(b, 100)

    def test_sensitive_to_fields_and_cap(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        keys = {
            spec_key(a, 100),
            spec_key(a, 200),
            spec_key(MatrixSpec.from_footprint(4.0, 10.0, seed=4), 100),
            spec_key(MatrixSpec.from_footprint(8.0, 10.0, seed=3), 100),
        }
        assert len(keys) == 4


class TestParallelDeterminism:
    def test_parallel_equals_serial_rows(self, serial_table):
        par = sweep(tiny_dataset(), DEVICES, jobs=3)
        assert par.rows == serial_table.rows

    def test_precision_threads_through_every_engine(self, serial_table):
        """``precision`` reaches the serial and parallel sweeps and the
        scalar reference alike — identical rows, different from fp64."""
        fp32 = sweep(tiny_dataset(), DEVICES, precision="fp32")
        assert fp32.rows != serial_table.rows
        assert sweep(
            tiny_dataset(), DEVICES, precision="fp32", jobs=2
        ).rows == fp32.rows
        dataset = tiny_dataset(cls=InstanceDataset)
        scalar = [
            row for i in range(len(dataset))
            for row in spec_rows(dataset, i, DEVICES, precision="fp32")
        ]
        assert SweepTable.from_rows(scalar).with_constant(
            "precision", "fp32"
        ).rows == fp32.rows

    def test_progress_reports_monotonic_totals(self):
        seen = []
        sweep(
            tiny_dataset(specs=SPECS[:8]), DEVICES[:1], jobs=2,
            progress=lambda i, n: seen.append((i, n)),
        )
        assert seen, "progress callback never fired"
        assert all(n == 8 for _, n in seen)
        assert [i for i, _ in seen] == sorted(i for i, _ in seen)
        assert seen[-1][0] == 8

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestCache:
    def test_cold_then_warm_rows_identical(self, serial_table, cache_dir):
        cold = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert cold.rows == serial_table.rows
        # A fresh dataset + fresh cache handle: every record reloads from
        # disk, nothing is regenerated.
        warm = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert warm.rows == serial_table.rows
        assert len(RecordCache(cache_dir)) == len(SPECS)

    def test_parallel_with_shared_cache_matches_serial(
        self, serial_table, cache_dir
    ):
        par = sweep(tiny_dataset(), DEVICES, jobs=2, cache_dir=cache_dir)
        assert par.rows == serial_table.rows

    def test_batched_sweep_persists_derived_state(self, tmp_path):
        """The persisted records carry the features, format stats and
        SIMD/imbalance values the scoring needed — otherwise every warm
        sweep would re-derive them."""
        dev = TESTBEDS["INTEL-XEON"]
        sweep(tiny_dataset(specs=SPECS[:2]), [dev],
              cache_dir=str(tmp_path))
        keys = [spec_key(spec, MAX_NNZ) for spec in SPECS[:2]]
        for restored in RecordCache(tmp_path).load(keys):
            assert restored is not None
            assert restored.features.nnz > 0
            assert set(dev.formats) <= (
                set(restored.stats) | set(restored.refusals)
            )
            assert dev.simd_width_dp in restored.simd
            assert restored.imbalance

    def test_record_roundtrip_exact(self, tmp_path):
        spec = TINY[0]
        record = one_record(spec)
        assert record.simd and record.imbalance
        key = spec_key(spec, MAX_NNZ)
        assert RecordCache(tmp_path).append({key: record}) == 1
        [restored] = RecordCache(tmp_path).load([key])
        assert restored == record
        assert SpecRecord.from_bytes(record.to_bytes()) == record

    def test_store_skips_unchanged_entries(self, tmp_path):
        spec = TINY[1]
        key = spec_key(spec, MAX_NNZ)
        cache = RecordCache(tmp_path)
        assert cache.append({key: one_record(spec)}) == 1
        size = cache.pack_path.stat().st_size
        assert cache.append({key: one_record(spec)}) == 0  # identical
        assert cache.pack_path.stat().st_size == size
        # A warm sweep appends nothing either.
        sweep(tiny_dataset(specs=[spec]), DEVICES, cache_dir=str(tmp_path))
        assert cache.pack_path.stat().st_size == size

    def test_fetch_renames_instance(self, tmp_path):
        """Records carry no name: one cached record serves datasets of
        any name, and each gets its own row labels and noise."""
        specs = [TINY[2]]
        cache_dir = str(tmp_path)
        a = sweep(tiny_dataset(specs, name="a"), DEVICES,
                  cache_dir=cache_dir)
        cache = RecordCache(tmp_path)
        b = run_sweep(tiny_dataset(specs, name="b"), DEVICES, cache=cache)
        assert cache.hits == 1 and cache.misses == 0
        assert b.rows == sweep(tiny_dataset(specs, name="b"), DEVICES).rows
        assert b.unique("matrix") == ["b[0]"]
        assert a.column("gflops").tolist() != b.column("gflops").tolist()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = TINY[3]
        key = spec_key(spec, MAX_NNZ)
        RecordCache(tmp_path).append({key: one_record(spec)})
        pack = RecordCache(tmp_path).pack_path
        data = pack.read_bytes()
        start = data.index(b'{"features"')
        pack.write_bytes(data[:start] + b"{ not json" + data[start + 10:])
        fresh = RecordCache(tmp_path)
        assert fresh.load([key]) == [None]
        assert fresh.quarantined == 1

    def test_corrupt_record_is_a_miss_and_heals(self, tmp_path):
        spec = TINY[3]
        key = spec_key(spec, MAX_NNZ)
        record = one_record(spec)
        RecordCache(tmp_path).append({key: record})
        pack = RecordCache(tmp_path).pack_path
        data = bytearray(pack.read_bytes())
        data[data.index(b'"nnz"')] ^= 0xFF
        pack.write_bytes(bytes(data))
        fresh = RecordCache(tmp_path)
        assert fresh.load([key]) == [None]
        assert len(fresh) == 0
        # Same bytes as the damaged record's checksum, but the stored
        # copy is damaged: the append must not be skipped as a repeat.
        assert fresh.append({key: record}) == 1
        assert RecordCache(tmp_path).load([key]) == [record]

    def test_memo_change_rewrites_json_only(self, tmp_path):
        """A record that gains a key (a new device) is appended as one
        small JSON record; the bytes already written stay untouched."""
        spec = TINY[3]
        key = spec_key(spec, MAX_NNZ)
        sweep(tiny_dataset(specs=[spec]), DEVICES[:1],
              cache_dir=str(tmp_path))
        pack = RecordCache(tmp_path).pack_path
        before = pack.read_bytes()
        [old] = RecordCache(tmp_path).load([key])
        sweep(tiny_dataset(specs=[spec]), DEVICES, cache_dir=str(tmp_path))
        after = pack.read_bytes()
        # Blob region untouched; only the header switched tables.
        assert after[64:len(before) - 136] == before[64:-136]
        assert len(after) - len(before) < 16_384
        [new] = RecordCache(tmp_path).load([key])
        assert set(old.imbalance) < set(new.imbalance)


class TestRunSweepDirect:
    def test_run_sweep_accepts_cache_object(self, tmp_path):
        specs = SPECS[:6]
        reference = run_sweep(tiny_dataset(specs=specs), DEVICES)
        cache = RecordCache(tmp_path)
        table = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert table.rows == reference.rows
        assert cache.misses == len(specs)
        again = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert again.rows == reference.rows
        assert cache.hits == len(specs)

    def test_empty_dataset(self):
        table = run_sweep(
            Dataset([], max_nnz=MAX_NNZ, name="empty"), DEVICES, jobs=4
        )
        assert len(table) == 0
