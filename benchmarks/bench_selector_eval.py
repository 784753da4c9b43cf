"""Selector evaluation throughput — batched vs scalar scoring.

Cross-validated experiments evaluate a fitted
:class:`~repro.ml.FormatSelector` over whole held-out folds.  The scalar
oracle (``tests/oracles/selector.py``) re-enters ``model.predict`` once
per (instance, format) — for a 25-tree forest over 8 formats that is 200
single-row tree walks per matrix — while the library builds the feature
matrix once and issues **one** predict per format over the entire fold.  This bench
fits one selector, scores the same held-out set through both paths,
asserts the reports are identical, gates the batched path at >= 5x, and
times a small end-to-end k-fold experiment for context.  Results land in
``benchmarks/results/BENCH_selector.json``.

Standalone usage (one path at a time):

    PYTHONPATH=../src python bench_selector_eval.py --batched
    PYTHONPATH=../src python bench_selector_eval.py --scalar
"""

import json
import os
import time

import numpy as np

from repro.devices import TESTBEDS
from repro.ml import FormatSelector

from conftest import RESULTS_DIR, emit
from tests.oracles import selector as oracle

BENCH_PATH = RESULTS_DIR / "BENCH_selector.json"

# Acceptance floor: one predict per format over the fold must beat the
# per-instance scalar loop by at least this factor.
MIN_SPEEDUP = 5.0

N_TRAIN = int(os.environ.get("REPRO_SELECTOR_TRAIN", "200"))
N_EVAL = int(os.environ.get("REPRO_SELECTOR_EVAL", "300"))

FORMATS = list(TESTBEDS["AMD-EPYC-24"].formats)


def _rows(n, seed):
    """Synthetic per-format measurement rows with feature-driven
    winners (mirrors the sweep's selector input schema)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        feats = {
            "matrix": f"m{seed}-{i}",
            "mem_footprint_mb": float(rng.uniform(1, 1024)),
            "avg_nnz_per_row": float(rng.uniform(2, 200)),
            "skew_coeff": float(rng.uniform(0, 8000)),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        base = rng.uniform(10, 60, size=len(FORMATS))
        # Winners depend on structure: skewed matrices reward the
        # balanced formats, regular ones the SIMD-friendly ones.
        tilt = 1.0 if feats["skew_coeff"] > 2000 else -1.0
        for j, fmt in enumerate(FORMATS):
            rows.append({
                **feats, "format": fmt,
                "gflops": float(
                    base[j] + tilt * 10.0 * (j - len(FORMATS) / 2)
                ),
            })
    return rows


def _fitted():
    return FormatSelector(FORMATS).fit(_rows(N_TRAIN, seed=1))


def _time_evaluate(selector, held_out, batch):
    """The library's batched evaluate, or with ``batch=False`` the
    per-instance scalar oracle."""
    t0 = time.perf_counter()
    if batch:
        report = selector.evaluate(held_out)
    else:
        report = oracle.evaluate(selector, held_out)
    return report, time.perf_counter() - t0


def _experiment_seconds():
    """Wall time of a small end-to-end k-fold experiment (context)."""
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        scale="tiny", devices=("INTEL-XEON",), limit=8, n_splits=2,
        max_nnz=20_000,
    )
    t0 = time.perf_counter()
    run_experiment(spec)
    return time.perf_counter() - t0


def test_selector_eval_throughput():
    selector = _fitted()
    held_out = _rows(N_EVAL, seed=2)
    report_scalar, t_scalar = _time_evaluate(selector, held_out, False)
    report_batched, t_batched = _time_evaluate(selector, held_out, True)

    # Speed must not change results: the batched report is bit-identical
    # to the scalar oracle, field for field.
    assert report_batched == report_scalar

    speedup = t_scalar / t_batched
    t_experiment = _experiment_seconds()
    payload = {
        "n_train": N_TRAIN,
        "n_eval": N_EVAL,
        "n_formats": len(FORMATS),
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batched, 4),
        "scalar_matrices_per_s": round(N_EVAL / t_scalar, 1),
        "batched_matrices_per_s": round(N_EVAL / t_batched, 1),
        "speedup": round(speedup, 2),
        "kfold_experiment_s": round(t_experiment, 3),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    emit(
        "selector_eval_throughput",
        f"selector evaluate: {N_EVAL} matrices x {len(FORMATS)} formats\n"
        f"  scalar:  {t_scalar:.3f}s "
        f"({N_EVAL / t_scalar:,.0f} matrices/s)\n"
        f"  batched: {t_batched:.3f}s "
        f"({N_EVAL / t_batched:,.0f} matrices/s)\n"
        f"  speedup: {speedup:.1f}x\n"
        f"  end-to-end 2-fold experiment (8 matrices): "
        f"{t_experiment:.2f}s",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched selector evaluate only {speedup:.1f}x over scalar"
    )


def main():
    import argparse

    parser = argparse.ArgumentParser(
        description="Selector evaluate throughput for one path"
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--batched", dest="batch", action="store_true",
                       default=True, help="batched path (default)")
    group.add_argument("--scalar", dest="batch", action="store_false",
                       help="per-instance scalar oracle")
    args = parser.parse_args()
    selector = _fitted()
    held_out = _rows(N_EVAL, seed=2)
    report, elapsed = _time_evaluate(selector, held_out, args.batch)
    label = "batched" if args.batch else "scalar"
    print(
        f"{label}: {N_EVAL} matrices x {len(FORMATS)} formats in "
        f"{elapsed:.3f}s ({N_EVAL / elapsed:,.1f} matrices/s, "
        f"top-1 {report.accuracy:.3f})"
    )


if __name__ == "__main__":
    main()
