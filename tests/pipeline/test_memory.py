"""A sweep chunk holds one declared-scale profile at a time.

Each spec's row-length profile (up to ``MAX_PROFILE_ROWS`` rows) and
everything derived from it — prefix sum, SELL chunk widths, warp cycles
— is released before the next spec's is drawn, so a chunk of several
large specs peaks about where a chunk of one does.
"""

import tracemalloc

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.perfmodel.record import MAX_PROFILE_ROWS

DEVICES = [TESTBEDS["INTEL-XEON"], TESTBEDS["Tesla-A100"]]
# Tiny-preset specs declaring more than MAX_PROFILE_ROWS rows each.
LARGE = (60, 62, 121, 130)


def _peak_mb(specs) -> float:
    dataset = Dataset(specs, max_nnz=2_000, name="mem")
    tracemalloc.start()
    try:
        sweep(dataset, DEVICES)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_chunk_peak_is_one_profile_not_one_per_spec():
    tiny = build_dataset_specs("tiny")
    specs = [tiny[i] for i in LARGE]
    assert all(s.n_rows > MAX_PROFILE_ROWS for s in specs)
    one = _peak_mb(specs[:1])
    many = _peak_mb(specs)
    # A retained profile working set per spec would put ``many`` near
    # 4x ``one``; releasing each before the next keeps it flat.
    assert many < 1.5 * one, (one, many)
