"""Scalar energy model oracle: power bounds, scaling, derived metrics."""

import pytest

from repro.devices import TESTBEDS
from tests.oracles.devices import EnergyModel


class TestAveragePower:
    def test_bounds(self):
        em = EnergyModel(TESTBEDS["AMD-EPYC-24"])
        dev = em.device
        assert em.average_power(0.0, 0.0) == dev.idle_w
        assert em.average_power(1.0, 1.0) == dev.max_w
        mid = em.average_power(0.5, 0.5)
        assert dev.idle_w < mid < dev.max_w

    def test_clipping(self):
        em = EnergyModel(TESTBEDS["Tesla-A100"])
        assert em.average_power(5.0, 5.0) == em.device.max_w
        assert em.average_power(-1.0, -1.0) == em.device.idle_w

    def test_bw_dominates(self):
        # SpMV is memory-bound: bandwidth activity should move power more
        # than compute activity.
        em = EnergyModel(TESTBEDS["AMD-EPYC-64"])
        assert em.average_power(1.0, 0.0) > em.average_power(0.0, 1.0)

    def test_power9_constant(self):
        em = EnergyModel(TESTBEDS["IBM-POWER9"])
        assert em.average_power(0.0, 0.0) == 200.0
        assert em.average_power(1.0, 1.0) == 200.0


class TestEstimate:
    def test_consistency(self):
        em = EnergyModel(TESTBEDS["Tesla-V100"])
        est = em.estimate(
            gflops=100.0, time_s=0.01, bytes_moved=5e9, flops=1e9
        )
        assert est.watts > 0
        assert est.energy_j == pytest.approx(est.watts * 0.01)
        assert est.gflops_per_watt == pytest.approx(100.0 / est.watts)

    def test_zero_time_rejected(self):
        em = EnergyModel(TESTBEDS["Tesla-V100"])
        with pytest.raises(ValueError):
            em.estimate(gflops=1.0, time_s=0.0, bytes_moved=1.0, flops=1.0)

    def test_fpga_operates_at_low_power(self):
        fpga = EnergyModel(TESTBEDS["Alveo-U280"]).estimate(
            gflops=10.0, time_s=0.01, bytes_moved=2.8e9, flops=1e8
        )
        gpu = EnergyModel(TESTBEDS["Tesla-A100"]).estimate(
            gflops=10.0, time_s=0.01, bytes_moved=2.8e9, flops=1e8
        )
        assert fpga.watts < gpu.watts / 4  # the 'low-power path'
