"""Device models: the nine Table-II testbeds and their memory/parallel/energy behaviour."""
from .base import Device, DeviceClass
from .testbeds import (
    TESTBEDS, get_device, list_devices,
    AMD_EPYC_24, AMD_EPYC_64, ARM_NEON, INTEL_XEON, IBM_POWER9,
    TESLA_P100, TESLA_V100, TESLA_A100, ALVEO_U280,
)
from .roofline import RooflinePoint, roofline_bounds, spmv_operational_intensity
from .parallel import ImbalanceStats, imbalance_for_strategy, PARTITION_STRATEGIES
from .scaling import scale_device
