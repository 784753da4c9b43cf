"""Device dataclass, Table-II testbeds, roofline and the scalar cache
model oracle."""

import dataclasses

import pytest

from repro.devices import (
    TESTBEDS,
    Device,
    DeviceClass,
    get_device,
    list_devices,
    roofline_bounds,
)
from repro.devices.roofline import spmv_operational_intensity
from tests.oracles.devices import effective_bandwidth, x_access_model


def _dev(**overrides):
    base = TESTBEDS["AMD-EPYC-24"]
    return dataclasses.replace(base, **overrides)


class TestDeviceValidation:
    def test_bad_class(self):
        with pytest.raises(ValueError, match="class"):
            _dev(device_class="tpu")

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            _dev(n_workers=0)

    def test_llc_below_dram_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            _dev(llc_bw_gbs=10.0)

    def test_power_ordering(self):
        with pytest.raises(ValueError, match="power"):
            _dev(max_w=1.0)

    def test_class_predicates(self):
        assert TESTBEDS["AMD-EPYC-24"].is_cpu
        assert TESTBEDS["Tesla-A100"].is_gpu
        assert TESTBEDS["Alveo-U280"].is_fpga


class TestTestbeds:
    def test_nine_devices(self):
        assert len(TESTBEDS) == 9

    def test_class_census(self):
        assert len(list_devices(DeviceClass.CPU)) == 5
        assert len(list_devices(DeviceClass.GPU)) == 3
        assert len(list_devices(DeviceClass.FPGA)) == 1

    def test_table_ii_measured_bandwidths(self):
        assert TESTBEDS["AMD-EPYC-24"].dram_bw_gbs == 50.0
        assert TESTBEDS["AMD-EPYC-64"].dram_bw_gbs == 105.0
        assert TESTBEDS["ARM-NEON"].dram_bw_gbs == 102.0
        assert TESTBEDS["INTEL-XEON"].dram_bw_gbs == 55.0
        assert TESTBEDS["IBM-POWER9"].dram_bw_gbs == 109.0
        assert TESTBEDS["Tesla-P100"].dram_bw_gbs == 464.0
        assert TESTBEDS["Tesla-V100"].dram_bw_gbs == 760.0
        assert TESTBEDS["Tesla-A100"].dram_bw_gbs == 1350.0
        assert TESTBEDS["Alveo-U280"].dram_bw_gbs == 287.5

    def test_table_ii_llc_sizes(self):
        assert TESTBEDS["AMD-EPYC-24"].llc_mb == 128.0
        assert TESTBEDS["AMD-EPYC-64"].llc_mb == 256.0
        assert TESTBEDS["INTEL-XEON"].llc_mb == 19.25

    def test_power9_constant_tdp(self):
        dev = TESTBEDS["IBM-POWER9"]
        assert dev.idle_w == dev.max_w == 200.0

    def test_get_device(self):
        assert get_device("Tesla-A100").cores == 108
        with pytest.raises(KeyError, match="unknown device"):
            get_device("Cerebras")

    def test_supports_format(self):
        assert TESTBEDS["Alveo-U280"].supports_format("VSL")
        assert not TESTBEDS["Alveo-U280"].supports_format("COO")

    def test_matrix_capacity(self):
        u280 = TESTBEDS["Alveo-U280"]
        assert u280.matrix_capacity_bytes < u280.dram_bytes
        cpu = TESTBEDS["AMD-EPYC-24"]
        assert cpu.matrix_capacity_bytes == cpu.dram_bytes


class TestRoofline:
    def test_intensity_below_one(self):
        # SpMV flop/byte < 1 by construction (paper Section II-A.1).
        assert spmv_operational_intensity(10_000, 1000, 1000) < 1.0

    def test_zero_nnz(self):
        assert spmv_operational_intensity(0, 10, 10) == 0.0

    def test_bound_capped_by_peak(self):
        dev = TESTBEDS["Alveo-U280"]
        rp = roofline_bounds(dev, 10**7, 10**5, 10**5)
        assert rp.memory_bound_gflops <= dev.peak_gflops
        assert rp.attainable_gflops == min(
            rp.memory_bound_gflops, rp.compute_bound_gflops
        )

    def test_llc_roof_above_memory_roof(self):
        dev = TESTBEDS["AMD-EPYC-64"]
        rp = roofline_bounds(dev, 10**6, 10**4, 10**4)
        assert rp.llc_bound_gflops >= rp.memory_bound_gflops

    def test_intensity_decreases_with_short_rows(self):
        # More rows for the same nnz -> more row-pointer traffic.
        dense = spmv_operational_intensity(10**6, 10**4, 10**4)
        sparse = spmv_operational_intensity(10**6, 10**6, 10**6)
        assert sparse < dense


class TestCacheModel:
    def test_in_cache_gets_llc_bw(self):
        dev = TESTBEDS["AMD-EPYC-64"]
        assert effective_bandwidth(dev, 1 * 2**20) == dev.llc_bw_gbs

    def test_large_working_set_approaches_dram(self):
        dev = TESTBEDS["AMD-EPYC-64"]
        bw = effective_bandwidth(dev, 100 * 2**30)
        assert bw == pytest.approx(dev.dram_bw_gbs, rel=0.05)

    def test_monotone_decreasing(self):
        dev = TESTBEDS["INTEL-XEON"]
        sizes = [2**20 * s for s in (1, 8, 32, 128, 1024)]
        bws = [effective_bandwidth(dev, s) for s in sizes]
        assert bws == sorted(bws, reverse=True)

    def test_x_model_regular_no_misses_when_cached(self):
        dev = TESTBEDS["AMD-EPYC-64"]
        xt = x_access_model(dev, 10**6, 10**4, 1.0, 0.5)
        assert xt.miss_rate == 0.0  # x (80 KB) fits easily
        assert xt.extra_bytes == 0.0

    def test_x_model_irregular_uncached_misses(self):
        dev = TESTBEDS["INTEL-XEON"]
        # x = 80 MB >> 19 MB LLC, no locality.
        xt = x_access_model(dev, 10**7, 10**7, 0.0, 0.0)
        assert xt.miss_rate > 0.8
        assert xt.extra_bytes > 0

    def test_x_model_locality_reduces_misses(self):
        dev = TESTBEDS["INTEL-XEON"]
        bad = x_access_model(dev, 10**7, 10**7, 0.05, 0.05)
        good = x_access_model(dev, 10**7, 10**7, 1.4, 0.8)
        assert good.miss_rate < bad.miss_rate
        assert good.gather_bytes < bad.gather_bytes

    def test_gather_bytes_bounds(self):
        dev = TESTBEDS["Tesla-A100"]
        nnz = 10**6
        best = x_access_model(dev, nnz, 10**4, 2.0, 1.0)
        worst = x_access_model(dev, nnz, 10**4, 0.0, 0.0)
        assert best.gather_bytes == pytest.approx(8.0 * nnz)
        assert worst.gather_bytes == pytest.approx(32.0 * nnz)
