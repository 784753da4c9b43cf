"""Record cache and pack store floors — BENCH_pack.json.

Three numbers, all gated:

* ``bytes_per_spec`` (gated ≤ ``MAX_BYTES_PER_SPEC``): the record pack a
  ``--cache-dir`` holds after a sweep of the preset.  A record carries
  only what the grid scorer reads — scalars, features, per-format stats
  and the needed SIMD/imbalance values — so it stays a few kB however
  large the representative matrix is.
* ``warm_vs_cold_sweep`` (gated ≥ ``MIN_WARM_SPEEDUP``): a warm sweep
  (load every record, score) against a cold one (generate and measure
  every spec), interleaved and best of ``REPEATS``.
* ``open_locate_speedup`` (gated ≥5×): opening a pack and locating
  every entry vs the per-key ``exists`` probing a directory of loose
  files pays.  One header read + one bulk entry-table parse + dict hits
  against thousands of stat syscalls.
"""

import json
import time

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import Pack, PackWriter
from repro.pipeline import RecordCache, run_sweep

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit

BENCH_PATH = RESULTS_DIR / "BENCH_pack.json"
# Committed snapshot at the repo root (also a CI artifact).
ROOT_BENCH_PATH = RESULTS_DIR.parent.parent / "BENCH_pack.json"

DEVICES = [TESTBEDS["Tesla-A100"]]
REPEATS = 3
MAX_BYTES_PER_SPEC = 16_384
MIN_WARM_SPEEDUP = 5.0
MIN_OPEN_LOCATE_SPEEDUP = 5.0
# Synthetic corpus size for the open+locate micro-bench: large enough
# that per-key syscalls dominate the directory leg.
N_SYNTH = 1_500


def _timed_sweep(specs, cache_dir=None):
    dataset = Dataset(specs, max_nnz=MAX_NNZ, name=SCALE)
    t0 = time.perf_counter()
    table = run_sweep(dataset, DEVICES, cache_dir=cache_dir)
    return time.perf_counter() - t0, table


def test_pack_floors(tmp_path):
    specs = build_dataset_specs(SCALE)

    # -- leg 1: record cache footprint ----------------------------------
    cache_dir = str(tmp_path / "cache")
    fill_s, reference = _timed_sweep(specs, cache_dir)
    cache = RecordCache(cache_dir)
    entries = len(cache)
    pack_bytes = cache.pack_path.stat().st_size
    bytes_per_spec = pack_bytes / len(specs)

    # -- leg 2: warm vs cold sweep --------------------------------------
    cold_times, warm_times = [], []
    for rep in range(REPEATS):
        order = ("cold", "warm") if rep % 2 == 0 else ("warm", "cold")
        for name in order:
            t, table = _timed_sweep(
                specs, cache_dir if name == "warm" else None
            )
            (warm_times if name == "warm" else cold_times).append(t)
            assert table.rows == reference.rows
    warm_speedup = min(cold_times) / min(warm_times)

    # -- leg 3: open + locate every entry, pack vs directory probing ----
    synth = tmp_path / "synth"
    synth.mkdir()
    payload = b"x" * 128
    keys = [f"{i:032x}" for i in range(N_SYNTH)]
    with PackWriter.create(synth / "synth.rpak") as writer:
        for key in keys:
            writer.add(f"{key}.npz", "npz", payload)
            writer.add(f"{key}.json", "json", payload)
    for key in keys:
        (synth / f"{key}.npz").write_bytes(payload)
        (synth / f"{key}.json").write_bytes(payload)

    def dir_scan():
        total = 0
        for key in keys:
            npz, meta = synth / f"{key}.npz", synth / f"{key}.json"
            if npz.exists() and meta.exists():
                total += 1
        return total

    def pack_scan():
        total = 0
        with Pack.open(synth / "synth.rpak") as pack:
            for key in keys:
                if f"{key}.npz" in pack and f"{key}.json" in pack:
                    total += 1
        return total

    assert dir_scan() == pack_scan()
    dir_scan_times, pack_scan_times = [], []
    for rep in range(REPEATS):
        fns = (
            (dir_scan_times, dir_scan), (pack_scan_times, pack_scan)
        ) if rep % 2 == 0 else (
            (pack_scan_times, pack_scan), (dir_scan_times, dir_scan)
        )
        for bucket, fn in fns:
            t0 = time.perf_counter()
            fn()
            bucket.append(time.perf_counter() - t0)
    speedup = min(dir_scan_times) / min(pack_scan_times)

    payload_json = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "n_specs": len(specs),
        "repeats": REPEATS,
        "pack_entries": entries,
        "pack_bytes": pack_bytes,
        "bytes_per_spec": round(bytes_per_spec, 1),
        "max_bytes_per_spec": MAX_BYTES_PER_SPEC,
        "fill_s": round(fill_s, 3),
        "sweep_cold_s": [round(t, 3) for t in cold_times],
        "sweep_warm_s": [round(t, 3) for t in warm_times],
        "warm_vs_cold_sweep": round(warm_speedup, 2),
        "min_warm_vs_cold_sweep": MIN_WARM_SPEEDUP,
        "n_synth_entries": N_SYNTH,
        "open_locate_dir_s": [round(t, 4) for t in dir_scan_times],
        "open_locate_pack_s": [round(t, 4) for t in pack_scan_times],
        "open_locate_speedup": round(speedup, 2),
        "min_open_locate_speedup": MIN_OPEN_LOCATE_SPEEDUP,
    }
    text = json.dumps(payload_json, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)
    ROOT_BENCH_PATH.write_text(text + "\n")

    emit(
        "pack_floors",
        f"record pack of {entries} records ({pack_bytes / 1e3:.0f} kB, "
        f"{bytes_per_spec:.0f} B/spec), {len(specs)} specs "
        f"(scale={SCALE}, best of {REPEATS})\n"
        f"  sweep: cold {min(cold_times):.2f}s  warm "
        f"{min(warm_times):.3f}s  ({warm_speedup:.1f}x, floor "
        f"{MIN_WARM_SPEEDUP:.0f}x)\n"
        f"  open+locate {N_SYNTH} entries: dir "
        f"{min(dir_scan_times) * 1e3:.1f}ms  pack "
        f"{min(pack_scan_times) * 1e3:.1f}ms  ({speedup:.1f}x, floor "
        f"{MIN_OPEN_LOCATE_SPEEDUP:.0f}x)",
    )
    assert bytes_per_spec <= MAX_BYTES_PER_SPEC, (
        f"record pack holds {bytes_per_spec:.0f} B per spec (ceiling "
        f"{MAX_BYTES_PER_SPEC})"
    )
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep is only {warm_speedup:.1f}x the cold one "
        f"(floor {MIN_WARM_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_OPEN_LOCATE_SPEEDUP, (
        f"pack open+locate is only {speedup:.1f}x the directory scan "
        f"(floor {MIN_OPEN_LOCATE_SPEEDUP:.0f}x)"
    )
