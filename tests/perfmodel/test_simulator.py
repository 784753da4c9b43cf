"""Performance simulator: invariants, failure gates, and — crucially — the
paper's per-feature trends (the takeaways of Section V encoded as tests)."""

import pytest

from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS, roofline_bounds
from repro.formats import CapacityError, FormatError
from repro.perfmodel import (
    MatrixInstance,
    simulate_best,
    simulate_spmv,
)


def _inst(mb, avg, skew=2.0, sim=0.5, neigh=1.0, seed=0, **kw):
    spec = MatrixSpec.from_footprint(
        mb, avg, skew_coeff=skew, cross_row_sim=sim, avg_num_neigh=neigh,
        seed=seed, **kw,
    )
    return MatrixInstance.from_spec(spec, max_nnz=100_000,
                                    name=f"t{mb}-{avg}-{skew}-{seed}")


@pytest.fixture(scope="module")
def medium_inst():
    return _inst(64, 50, seed=1)


class TestInvariants:
    def test_measurement_fields(self, medium_inst):
        m = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["AMD-EPYC-24"])
        assert m.gflops > 0
        assert m.time_s > 0
        assert m.watts >= TESTBEDS["AMD-EPYC-24"].idle_w
        assert m.gflops_per_watt == pytest.approx(
            m.gflops / m.watts, rel=1e-9
        )
        assert m.bottleneck in (
            "memory_bandwidth", "low_ilp", "memory_latency", "load_imbalance"
        )

    def test_deterministic(self, medium_inst):
        a = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"])
        b = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"])
        assert a.gflops == b.gflops

    def test_seed_perturbs_within_noise(self, medium_inst):
        a = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"],
                          seed=0)
        b = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"],
                          seed=1)
        assert a.gflops != b.gflops
        assert abs(a.gflops - b.gflops) / a.gflops < 0.3

    def test_noise_disable(self, medium_inst):
        a = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"],
                          seed=0, noise_sigma=0.0)
        b = simulate_spmv(medium_inst, "Naive-CSR", TESTBEDS["INTEL-XEON"],
                          seed=99, noise_sigma=0.0)
        assert a.gflops == b.gflops

    def test_below_compute_peak(self, medium_inst):
        for dev in TESTBEDS.values():
            best = simulate_best(medium_inst, dev)
            if best is not None:
                assert best.gflops < dev.peak_gflops

    def test_near_or_below_roofline(self, medium_inst):
        # The paper's Fig 1: measurements sit at or under the memory roof
        # (small slack allowed for noise).
        f = medium_inst.features
        for name in ("AMD-EPYC-24", "Tesla-A100"):
            dev = TESTBEDS[name]
            rp = roofline_bounds(dev, f.nnz, f.n_rows, f.n_cols)
            best = simulate_best(medium_inst, dev, noise_sigma=0.0)
            assert best.gflops <= rp.llc_bound_gflops * 1.05

    def test_unknown_format_rejected(self, medium_inst):
        with pytest.raises(KeyError):
            simulate_spmv(medium_inst, "NOPE", TESTBEDS["INTEL-XEON"])


class TestCapacityGates:
    def test_vsl_hbm_overflow(self):
        # 1 GB at avg 5 -> heavily padded stream >> 4 GiB matrix budget.
        inst = _inst(1024, 5, seed=3)
        with pytest.raises(CapacityError):
            simulate_spmv(inst, "VSL", TESTBEDS["Alveo-U280"])

    def test_best_returns_none_when_all_fail(self):
        inst = _inst(1024, 5, seed=3)
        assert simulate_best(inst, TESTBEDS["Alveo-U280"]) is None

    def test_gpu_memory_overflow(self):
        inst = _inst(2000, 20, seed=4)  # ~2 GB fits a 12 GB P100
        m = simulate_spmv(inst, "cuSPARSE-CSR", TESTBEDS["Tesla-P100"])
        assert m.gflops > 0

    def test_format_refusal_propagates(self):
        inst = _inst(8, 5, skew=10000, seed=5)
        with pytest.raises(FormatError):
            simulate_spmv(inst, "ELL", TESTBEDS["AMD-EPYC-24"])


class TestPaperTrends:
    """Section V takeaways, asserted quantitatively."""

    def test_cpu_cache_cutoff(self):
        """Takeaway 5 (CPU): >= 4x drop when the matrix leaves the LLC."""
        small = simulate_best(_inst(64, 50, seed=6), TESTBEDS["AMD-EPYC-64"],
                              noise_sigma=0.0)
        large = simulate_best(_inst(1024, 50, seed=6),
                              TESTBEDS["AMD-EPYC-64"], noise_sigma=0.0)
        assert small.gflops / large.gflops > 4.0

    def test_gpu_prefers_large(self):
        """Takeaway 5 (GPU): large matrices up to ~2x faster than small."""
        small = simulate_best(_inst(6, 50, seed=7), TESTBEDS["Tesla-A100"],
                              noise_sigma=0.0)
        large = simulate_best(_inst(512, 50, seed=7), TESTBEDS["Tesla-A100"],
                              noise_sigma=0.0)
        ratio = large.gflops / small.gflops
        assert 1.5 < ratio < 5.0

    def test_row_size_penalty(self):
        """Fig 4: short rows cost ~2x on CPUs and GPUs."""
        for dev_name in ("AMD-EPYC-64", "Tesla-A100"):
            short = simulate_best(_inst(512, 5, seed=8),
                                  TESTBEDS[dev_name], noise_sigma=0.0)
            long_ = simulate_best(_inst(512, 100, seed=8),
                                  TESTBEDS[dev_name], noise_sigma=0.0)
            assert long_.gflops / short.gflops > 1.4, dev_name

    def test_fpga_row_size_catastrophe(self):
        """Fig 4 (FPGA): highly sparse rows are ~an order of magnitude
        slower due to VSL padding."""
        short = simulate_best(_inst(24, 5, seed=9), TESTBEDS["Alveo-U280"],
                              noise_sigma=0.0)
        long_ = simulate_best(_inst(24, 500, seed=9),
                              TESTBEDS["Alveo-U280"], noise_sigma=0.0)
        assert long_.gflops / short.gflops > 5.0

    def test_imbalance_handled_by_gpu(self):
        """Fig 5: best-format GPU performance moves <= ~1.3x with skew."""
        bal = simulate_best(_inst(128, 50, skew=0, seed=10),
                            TESTBEDS["Tesla-A100"], noise_sigma=0.0)
        skewed = simulate_best(_inst(128, 50, skew=1000, seed=10),
                               TESTBEDS["Tesla-A100"], noise_sigma=0.0)
        assert bal.gflops / skewed.gflops < 1.4

    def test_imbalance_hurts_fpga(self):
        """Fig 5 (FPGA): skew visibly degrades performance (paper ~4x; our
        channel-lockstep model reproduces a ~2x drop — see EXPERIMENTS.md)."""
        bal = simulate_best(_inst(24, 50, skew=0, seed=11),
                            TESTBEDS["Alveo-U280"], noise_sigma=0.0)
        skewed = simulate_best(_inst(24, 50, skew=1000, seed=11),
                               TESTBEDS["Alveo-U280"], noise_sigma=0.0)
        assert bal.gflops / skewed.gflops > 1.3

    def test_irregularity_hurts_gpu_large(self):
        """Fig 6: large irregular matrices drop GPU performance (up to 2x);
        the CPU penalty is milder."""
        reg = simulate_best(
            _inst(512, 50, sim=0.9, neigh=1.6, seed=12),
            TESTBEDS["Tesla-A100"], noise_sigma=0.0,
        )
        irr = simulate_best(
            _inst(512, 50, sim=0.05, neigh=0.05, seed=12),
            TESTBEDS["Tesla-A100"], noise_sigma=0.0,
        )
        gpu_ratio = reg.gflops / irr.gflops
        assert 1.3 < gpu_ratio < 3.0

    def test_cpu_medium_matrices_verge_on_gpu(self):
        """Takeaway 4: EPYC-64 reaches >= 50% of A100 in its favourable
        64-256 MB window."""
        inst = _inst(128, 50, sim=0.8, neigh=1.4, seed=13)
        cpu = simulate_best(inst, TESTBEDS["AMD-EPYC-64"], noise_sigma=0.0)
        gpu = simulate_best(inst, TESTBEDS["Tesla-A100"], noise_sigma=0.0)
        assert cpu.gflops / gpu.gflops > 0.5

    def test_fpga_energy_efficiency_peak(self):
        """Takeaway 3: the FPGA's favourable matrices beat every other
        device in GFLOPS/W."""
        # Large matrices: CPUs fall off their caches, the GPU pays full
        # board power, and the FPGA streams its lightly-padded matrix.
        inst = _inst(512, 500, sim=0.8, neigh=1.4, seed=14)
        fpga = simulate_best(inst, TESTBEDS["Alveo-U280"], noise_sigma=0.0)
        for name in ("Tesla-A100", "AMD-EPYC-64", "ARM-NEON"):
            other = simulate_best(inst, TESTBEDS[name], noise_sigma=0.0)
            assert fpga.gflops_per_watt > other.gflops_per_watt, name

    def test_research_formats_win_problematic_cases(self):
        """Takeaway 7: research formats take the problematic (large,
        unbalanced) matrices on CPUs."""
        inst = _inst(512, 10, skew=10000, seed=15)
        best = simulate_best(inst, TESTBEDS["AMD-EPYC-24"], noise_sigma=0.0)
        from repro.formats import get_format

        assert get_format(best.format).category == "research"
