"""The scalar SpMV model: the reference for the record scorer.

:func:`simulate_spmv` composes the paper's four bottlenecks for one
(instance, format, device) triple from an :class:`OracleInstance`'s
memoised measurements, the scalar device models
(:mod:`tests.oracles.devices`) and scalar noise
(:mod:`tests.oracles.noise`).  The library computes the same cells
vectorised in :func:`repro.perfmodel.batch._score_grid`, and every
``simulate_*`` view of it must agree with this module bit for bit —
measurements, diagnostics, bottleneck and skip reasons
(``tests/perfmodel/test_grid_agreement.py`` and the suites listed in
``tests/oracles/README.md``).
"""

from typing import List, Optional

from repro.devices.base import Device
from repro.formats.base import CapacityError, FormatError, get_format
from repro.perfmodel.simulator import (
    PRECISIONS, BestFormatOutcome, FormatSkip, SpmvMeasurement,
)

from tests.oracles.devices import (
    EnergyModel, effective_bandwidth, x_access_model,
)
from tests.oracles.instance import OracleInstance
from tests.oracles.noise import measurement_noise


def simulate_spmv(
    instance: OracleInstance,
    format_name: str,
    device: Device,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> SpmvMeasurement:
    """Simulate one SpMV run; raises :class:`FormatError`/:class:`CapacityError`
    when the format cannot host the matrix on this device.

    ``precision`` extends the paper's double-precision protocol with the
    single-precision variant it defers to future work: values shrink to
    4 bytes and the compute peak doubles, while index metadata is
    unchanged — so the speedup is sub-2x and largest for value-heavy
    (low-metadata) formats.
    """
    stats = instance.format_stats(format_name)  # may raise FormatError
    fmt_cls = get_format(format_name)
    try:
        value_bytes, peak_mult = PRECISIONS[precision]
    except KeyError:
        raise ValueError(
            f"unknown precision {precision!r}; available: "
            f"{sorted(PRECISIONS)}"
        ) from None

    scale = instance.scale
    nnz = instance.nnz
    n_rows, n_cols = instance.n_rows, instance.n_cols
    feats = instance.features

    # Split format storage into values (precision-scaled) and metadata.
    value_fraction = value_bytes / 8.0
    fmt_value_bytes = (
        (stats.memory_bytes - stats.metadata_bytes) * scale * value_fraction
    )
    fmt_bytes = stats.metadata_bytes * scale + fmt_value_bytes
    stored = stats.stored_elements * scale

    # Hard capacity gate (the VSL/HBM failures of Section V-A, and any
    # matrix exceeding device memory).
    x_y_bytes = (n_cols + n_rows) * value_bytes
    if (
        fmt_bytes > device.matrix_capacity_bytes
        or fmt_bytes + x_y_bytes > device.dram_bytes
    ):
        raise CapacityError(
            f"{format_name} needs {(fmt_bytes + x_y_bytes) / 2**30:.2f} GiB "
            f"> {device.name} capacity"
        )

    # ---- bottleneck 1: memory bandwidth --------------------------------
    xt = x_access_model(
        device, nnz, n_cols,
        feats.avg_num_neighbours, feats.cross_row_similarity,
        value_bytes=value_bytes,
    )
    bytes_total = (
        fmt_bytes
        + (n_cols + n_rows) * value_bytes
        + xt.extra_bytes
    )
    working_set = fmt_bytes + x_y_bytes
    bw_gbs = effective_bandwidth(device, working_set)
    bw_gbs *= device.spmv_bw_efficiency
    if device.is_cpu:
        # Short rows break the per-row access streams before hardware
        # prefetchers ramp up, so sustained bandwidth degrades with the
        # average row length (the CPU half of Fig 4's ~2x row-size gap).
        avg_row = nnz / max(n_rows, 1)
        bw_gbs *= avg_row / (avg_row + 2.0)
    t_stream = bytes_total / (bw_gbs * 1e9)
    # GPUs additionally pay for gather coalescing: scattered x lanes drain
    # L2 sector bandwidth even when x is cache-resident (Fig 6's GPU-only
    # irregularity penalty).  The gather path overlaps the DRAM stream, so
    # the slower of the two paces the kernel.
    if device.is_gpu:
        # Scattered gathers sustain ~1/3 of streaming L2 bandwidth
        # (sector replays + bank conflicts).
        t_gather = xt.gather_bytes / (device.llc_bw_gbs * 0.35 * 1e9)
        t_mem = max(t_stream, t_gather)
    else:
        t_gather = 0.0
        t_mem = t_stream

    # ---- bottleneck 2: compute / low ILP --------------------------------
    if stats.simd_friendly:
        simd_util = max(
            instance.simd_utilisation(device.simd_width_dp),
            1.0 / device.simd_width_dp,
        )
    else:
        simd_util = 1.0 / device.simd_width_dp
    eff_gflops = max(device.peak_gflops * peak_mult * simd_util, 1e-3)
    t_flops = 2.0 * stored / (eff_gflops * 1e9)
    # Per-row loop/bookkeeping overhead, parallel over cores.
    t_rows = (
        n_rows * device.row_start_cycles
        / (device.clock_ghz * 1e9 * device.cores)
    )
    t_comp = t_flops + t_rows

    # ---- bottleneck 3: memory latency -----------------------------------
    misses = xt.miss_rate * nnz
    t_lat = (
        misses * device.mem_latency_ns * 1e-9
        / (device.n_workers * device.latency_hiding)
    )

    # ---- bottleneck 4: load imbalance ------------------------------------
    strategy = getattr(fmt_cls, "partition_strategy", "row_block")
    imb = instance.imbalance(
        strategy, device.n_workers, device.simd_width_dp
    )

    # ---- composition ------------------------------------------------------
    # Memory and compute streams overlap; exposed latency adds on top.
    t_work = max(t_mem, t_comp) + t_lat
    utilisation = nnz / (nnz + device.saturation_nnz)
    t_exec = t_work * imb.factor / max(utilisation, 1e-9)
    t_total = t_exec + device.kernel_launch_us * 1e-6

    sigma = noise_sigma
    noise = measurement_noise(
        device.name, f"{format_name}@{precision}",
        instance.name or (n_rows, n_cols, nnz), seed,
        **({"sigma": sigma} if sigma is not None else {}),
    )
    t_total *= noise

    flops_useful = 2.0 * nnz
    gflops = flops_useful / t_total / 1e9

    power = EnergyModel(device).estimate(
        gflops=gflops,
        time_s=t_total,
        bytes_moved=bytes_total,
        flops=flops_useful,
    )

    # Dominant bottleneck: largest exposed time contribution.
    contributions = {
        "memory_bandwidth": t_mem,
        "low_ilp": t_comp,
        "memory_latency": t_lat,
        "load_imbalance": (imb.factor - 1.0) * t_work,
    }
    bottleneck = max(contributions, key=contributions.get)

    return SpmvMeasurement(
        device=device.name,
        format=format_name,
        matrix=instance.name,
        gflops=gflops,
        time_s=t_total,
        watts=power.watts,
        gflops_per_watt=power.gflops_per_watt,
        bottleneck=bottleneck,
        diagnostics={
            "t_mem": t_mem,
            "t_comp": t_comp,
            "t_lat": t_lat,
            "imbalance": imb.factor,
            "utilisation": utilisation,
            "bw_gbs": bw_gbs,
            "miss_rate": xt.miss_rate,
            "padding_ratio": stats.padding_ratio,
            "bytes_total": bytes_total,
            "simd_util": simd_util,
        },
    )


def simulate_best_detailed(
    instance: OracleInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> BestFormatOutcome:
    """Best measurement across the device's formats, with the reason for
    every format that was skipped (the paper reports the best-performing
    format per matrix/device; Section V-A's VSL/HBM failures motivate the
    skip accounting)."""
    names = tuple(formats if formats is not None else device.formats)
    best: Optional[SpmvMeasurement] = None
    skipped: List[FormatSkip] = []
    for name in names:
        try:
            m = simulate_spmv(
                instance, name, device, seed=seed, noise_sigma=noise_sigma,
                precision=precision,
            )
        except FormatError as exc:
            skipped.append(FormatSkip(
                format=name,
                reason=str(exc),
                capacity=isinstance(exc, CapacityError),
            ))
            continue
        if best is None or m.gflops > best.gflops:
            best = m
    return BestFormatOutcome(
        best=best, skipped=tuple(skipped), attempted=names
    )


def simulate_best(
    instance: OracleInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> Optional[SpmvMeasurement]:
    """Best measurement across the device's formats (the paper reports the
    best-performing format per matrix/device).

    Formats that refuse the matrix are skipped; returns ``None`` when every
    format fails (e.g. HBM capacity overflow on the FPGA).  Use
    :func:`simulate_best_detailed` to learn *why* formats were skipped.
    """
    return simulate_best_detailed(
        instance, device, formats=formats, seed=seed,
        noise_sigma=noise_sigma, precision=precision,
    ).best
