"""Sweeps must reproduce the committed golden table byte for byte —
cold, warm, warm with missing keys, serial, parallel, resumed and after
a corrupt record."""

import pytest

from repro.pipeline import RecordCache, RunJournal, RunReport

from tests.golden.golden import (
    DEVICE_NAMES, assert_matches_golden, golden_devices,
    golden_specs, golden_sweep,
)


def test_cold_sweep_matches_golden():
    assert_matches_golden(golden_sweep())


def test_cached_sweeps_match_golden(tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert_matches_golden(golden_sweep(cache_dir=cache_dir))  # cold fill
    assert_matches_golden(golden_sweep(cache_dir=cache_dir))  # warm


def test_parallel_sweep_matches_golden(tmp_path):
    assert_matches_golden(golden_sweep(jobs=2))
    cache_dir = str(tmp_path / "cache")
    assert_matches_golden(golden_sweep(jobs=2, cache_dir=cache_dir))
    assert_matches_golden(golden_sweep(jobs=2, cache_dir=cache_dir))


def test_resume_after_stop_matches_golden(tmp_path):
    run_dir = str(tmp_path / "run")
    with pytest.raises(KeyboardInterrupt):
        golden_sweep(jobs=2, run_dir=run_dir, faults="stop@1")
    # Two workers finish chunks in either order, so the stop may land
    # before chunk 0 is journalled; resume must reuse exactly what was.
    journal = RunJournal.load(run_dir)
    done_before = set(journal.completed_chunks())
    assert 1 in done_before
    rep = RunReport()
    assert_matches_golden(golden_sweep(run_dir=run_dir, resume=True,
                                       report=rep))
    assert rep.chunks_resumed == len(done_before)


def test_corrupt_record_matches_golden(tmp_path):
    cache_dir = str(tmp_path / "cache")
    golden_sweep(cache_dir=cache_dir)
    rep = RunReport()
    assert_matches_golden(golden_sweep(
        jobs=2, cache_dir=cache_dir, faults="corrupt@0;seed=5", report=rep,
    ))
    assert rep.cache_quarantined == 1


def _forbid_generation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a warm sweep generated a matrix")

    for module in ("repro.core.generator", "repro.perfmodel.record"):
        for name in ("structure_batch", "row_length_profile"):
            monkeypatch.setattr(f"{module}.{name}", forbidden)


def test_warm_sweep_does_no_generation_work(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    golden_sweep(cache_dir=cache_dir)
    _forbid_generation(monkeypatch)
    assert_matches_golden(golden_sweep(cache_dir=cache_dir))


def test_missing_keys_regenerate_only_affected_specs(tmp_path,
                                                     monkeypatch):
    """A device the cache has never seen: only the specs whose cells on
    it clear the capacity gate need its imbalance keys, so only those
    are rebuilt — and their superseding records make the next sweep a
    pure read."""
    import repro.perfmodel.record as record

    cache_dir = str(tmp_path / "cache")
    golden_sweep(devices=golden_devices(DEVICE_NAMES[:2]),
                 cache_dir=cache_dir)
    built = []
    real = record.structure_batch

    def counting(specs, max_nnz=None):
        built.extend(specs)
        return real(specs, max_nnz=max_nnz)

    monkeypatch.setattr(record, "structure_batch", counting)
    assert_matches_golden(golden_sweep(cache_dir=cache_dir))
    # The last golden spec is too large for the FPGA: no new keys.
    assert built == golden_specs()[:-1]
    assert len(RecordCache(cache_dir)) == len(golden_specs())
    _forbid_generation(monkeypatch)
    assert_matches_golden(golden_sweep(cache_dir=cache_dir))
