"""Scalar device models: the reference for the vectorised memory, x-gather
and power expressions in :func:`repro.perfmodel.batch._score_grid`.

* :func:`effective_bandwidth` — harmonic blend of LLC and DRAM bandwidth
  by the fraction of the working set the cache can hold.
* :func:`x_access_model` — per-access miss probability for the ``x``
  gather, discounted by the two locality features.
* :class:`EnergyModel` — idle power plus dynamic power scaled by
  achieved bandwidth and compute utilisation.

:mod:`tests.oracles.simulator` composes them; ``tests/devices`` pins
their shapes.
"""

from dataclasses import dataclass

from repro.devices.base import Device
from repro.devices.cache import (
    CACHE_LINE_BYTES, GPU_SECTOR_BYTES, X_CACHE_FRACTION,
)
from repro.devices.energy import BW_WEIGHT, COMPUTE_WEIGHT


def effective_bandwidth(device: Device, working_set_bytes: float) -> float:
    """Sustained bandwidth in GB/s for a streaming working set.

    Working sets within the LLC run at the measured LLC bandwidth; beyond
    it, the cached fraction is served fast and the remainder at DRAM speed
    (harmonic mean — bytes, not time, are split).  This produces the sharp
    performance "cutoff" past the LLC size that Fig 3 shows for every CPU.
    """
    if working_set_bytes <= 0:
        return device.llc_bw_gbs
    cached = min(1.0, device.llc_bytes / working_set_bytes)
    inv = cached / device.llc_bw_gbs + (1.0 - cached) / device.dram_bw_gbs
    return 1.0 / inv


@dataclass(frozen=True)
class XTraffic:
    """Result of the x-gather locality model."""

    miss_rate: float       # probability an x access misses the cache
    extra_bytes: float     # traffic beyond the compulsory x read
    gather_efficiency: float  # useful fraction of each memory transaction
    gather_bytes: float = 0.0  # L2/sector traffic of the gather itself (GPU)


def x_access_model(
    device: Device,
    nnz: int,
    n_cols: int,
    avg_num_neighbours: float,
    cross_row_similarity: float,
    value_bytes: float = 8.0,
) -> XTraffic:
    """Model the irregular gather of the ``x`` vector.

    Each of the ``nnz`` accesses hits the cache if (a) the whole vector fits
    in the x-budget of the LLC, (b) the access is adjacent to the previous
    one in the row (spatial locality, probability ``avg_num_neighbours/2``),
    or (c) it re-touches a line the previous row loaded (temporal locality,
    probability ``cross_row_similarity``).  Residual misses each pull a full
    cache line of which 8 bytes are useful.
    """
    x_bytes = n_cols * value_bytes
    budget = device.llc_bytes * X_CACHE_FRACTION
    coverage = min(1.0, budget / x_bytes) if x_bytes > 0 else 1.0

    spatial_hit = min(avg_num_neighbours / 2.0, 1.0)
    temporal_hit = min(max(cross_row_similarity, 0.0), 1.0)
    # An access misses only if it is not covered by capacity, not spatially
    # adjacent and not a cross-row reuse.
    miss = (1.0 - coverage) * (1.0 - spatial_hit) * (1.0 - temporal_hit)

    extra = miss * nnz * max(CACHE_LINE_BYTES - value_bytes, 0.0)
    # Transaction efficiency (GPU coalescing): a warp's gather touches
    # distinct lines unless neighbours coalesce.
    gather_eff = 8.0 / CACHE_LINE_BYTES + (1 - 8.0 / CACHE_LINE_BYTES) * (
        spatial_hit + (1 - spatial_hit) * coverage
    )
    # GPU coalescing traffic: adjacent lanes (probability = spatial) share
    # a transaction and cost 8 useful bytes; scattered lanes each pull a
    # full L2 sector.  This is the dominant irregularity penalty on GPUs —
    # it applies even when x fits L2, because it drains L2/LSU bandwidth.
    gather_bytes = nnz * (
        spatial_hit * value_bytes
        + (1.0 - spatial_hit) * GPU_SECTOR_BYTES
    )
    return XTraffic(
        miss_rate=miss,
        extra_bytes=extra,
        gather_efficiency=gather_eff,
        gather_bytes=gather_bytes,
    )


@dataclass(frozen=True)
class PowerEstimate:
    """Average power and derived energy metrics for one SpMV run."""

    watts: float
    energy_j: float
    gflops_per_watt: float


class EnergyModel:
    """Utilisation-scaled power model for a device."""

    def __init__(self, device: Device):
        self.device = device

    def average_power(
        self, bw_utilisation: float, compute_utilisation: float
    ) -> float:
        """Average board/package power in watts.

        ``bw_utilisation`` is achieved bytes/s over the device's DRAM
        bandwidth (clipped to 1), ``compute_utilisation`` achieved flops
        over peak.
        """
        bw_u = min(max(bw_utilisation, 0.0), 1.0)
        c_u = min(max(compute_utilisation, 0.0), 1.0)
        activity = BW_WEIGHT * bw_u + COMPUTE_WEIGHT * c_u
        dev = self.device
        return dev.idle_w + (dev.max_w - dev.idle_w) * activity

    def estimate(
        self,
        gflops: float,
        time_s: float,
        bytes_moved: float,
        flops: float,
    ) -> PowerEstimate:
        """Full estimate for a run of ``time_s`` seconds."""
        if time_s <= 0:
            raise ValueError("time_s must be positive")
        bw_u = (bytes_moved / time_s) / (self.device.dram_bw_gbs * 1e9)
        c_u = (flops / time_s) / (self.device.peak_gflops * 1e9)
        watts = self.average_power(bw_u, c_u)
        return PowerEstimate(
            watts=watts,
            energy_j=watts * time_s,
            gflops_per_watt=gflops / watts if watts > 0 else 0.0,
        )
