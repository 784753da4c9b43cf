"""Power and energy-efficiency model constants (Fig 2b).

The paper measures average power over the SpMV run via RAPL (x86),
Altra-HWMON (ARM), nvidia-smi (GPUs) and xbutil (FPGA), then reports
GFLOPS/W.  The record scorer (:func:`repro.perfmodel.batch._score_grid`)
models average power as idle power plus dynamic power scaled by how hard
the run drives the device — a blend of achieved bandwidth and compute
utilisation (each clipped to [0, 1]), which is what package power tracks
on all of these parts.  IBM-POWER9 keeps the paper's pessimistic
constant 200 W.
"""

__all__ = ["BW_WEIGHT", "COMPUTE_WEIGHT"]

# Memory-subsystem activity dominates SpMV power draw; compute pipes are
# mostly idle at <1 flop/byte.
BW_WEIGHT = 0.85
COMPUTE_WEIGHT = 0.15
