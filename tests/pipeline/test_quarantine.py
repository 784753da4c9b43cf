"""Cache corruption → quarantine: never silent deletion, never bad data.

A corrupt record anywhere in the pack must (a) leave the sweep
bit-identical to a clean run — the record is treated as a miss, rebuilt
and re-appended — and (b) copy the damaged bytes into ``quarantine/``
so the evidence survives for inspection.
"""

import random
import shutil

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import Pack, append_entries
from repro.pipeline import RecordCache, RunReport, run_sweep
from repro.pipeline.cache import PACK_NAME, RECORD_KIND
from repro.pipeline.faults import corrupt_file, corrupt_span

from tests.pipeline.golden import assert_bit_identical

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::29]  # 7 specs


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


@pytest.fixture(scope="module")
def golden_and_warm_cache(tmp_path_factory):
    warm = tmp_path_factory.mktemp("warm-cache")
    table = run_sweep(dataset(), DEVICES, cache_dir=str(warm))
    return table, warm


def damage_record(cache_dir, pos, mode, layer="checksum"):
    """Damage the ``pos``-th live record; returns its key.

    ``checksum`` damages the stored bytes in place, so the pack's
    SHA-256 catches it.  ``parse`` appends a damaged copy of the record
    under a fresh checksum, so only the record parser can catch it.
    """
    pack_path = cache_dir / PACK_NAME
    with Pack.open(pack_path) as pack:
        key = pack.keys()[pos]
        entry = pack.entry(key)
        payload = bytes(pack.read(key))
    if layer == "checksum":
        corrupt_span(pack_path, entry.offset, entry.csize, mode=mode,
                     rng=random.Random(0))
    else:
        torn = cache_dir.parent / "torn-record.json"
        torn.write_bytes(payload)
        corrupt_file(torn, mode=mode, rng=random.Random(0))
        append_entries(pack_path, [(key, RECORD_KIND, torn.read_bytes())])
    return key


class TestQuarantine:
    # The case ids keep the suffixes of the old loose-pair layout: the
    # binary ``.npz`` half maps to checksum damage, the ``.json`` half
    # to a record that is stored intact but does not parse.
    @pytest.mark.parametrize("layer", ["checksum", "parse"],
                             ids=[".npz", ".json"])
    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corrupt_entry_mid_corpus(self, golden_and_warm_cache,
                                      tmp_path, layer, mode):
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        key = damage_record(cache_dir, len(SPECS) // 2, mode, layer)

        cache = RecordCache(cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, cache=cache, report=rep)
        assert_bit_identical(table, golden)
        assert cache.quarantined == 1
        assert rep.cache_quarantined == 1
        moved = sorted(p.name for p in cache.quarantine_dir.iterdir())
        assert moved == [f"{key}.json"]
        # The record healed: a fresh handle reads the whole corpus, and
        # the quarantine subdirectory does not inflate the count.
        fresh = RecordCache(cache_dir)
        assert len(fresh) == len(SPECS)
        assert all(r is not None for r in fresh.load([key]))

    def test_collisions_get_suffixes_not_overwritten(
            self, golden_and_warm_cache, tmp_path):
        _, warm = golden_and_warm_cache
        shutil.copytree(warm, tmp_path / "cache")
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            key = damage_record(cache_dir, 0, "flip")
            fresh = RecordCache(cache_dir)
            assert fresh.load([key]) == [None]
            assert fresh.quarantined == 1
            run_sweep(dataset(), DEVICES, cache=fresh)  # heals the record
        names = sorted(p.name for p in (cache_dir / "quarantine").iterdir())
        # The second round's evidence picked up a ``.1`` suffix instead
        # of clobbering the first round's.
        assert names == [f"{key}.json", f"{key}.json.1"]
        assert len(RecordCache(cache_dir)) == len(SPECS)

    def test_worker_side_corrupt_fault(self, golden_and_warm_cache,
                                       tmp_path):
        """A ``corrupt`` fault fired inside a crew worker damages one of
        the fault chunk's own records; the worker quarantines it,
        rebuilds it, and its quarantine count reaches the RunReport."""
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2,
                          faults="corrupt@1;seed=3",
                          cache_dir=str(cache_dir), report=rep)
        assert_bit_identical(table, golden)
        assert rep.cache_quarantined == 1
        assert list((cache_dir / "quarantine").iterdir())
        # The parent appended the rebuilt record: the next run is clean.
        rep2 = RunReport()
        assert_bit_identical(
            run_sweep(dataset(), DEVICES, cache_dir=str(cache_dir),
                      report=rep2),
            golden,
        )
        assert rep2.cache_quarantined == 0
