"""The analytical worker model against the paper's Table 9 / Figure 9."""

import pytest

from repro.dpp.analytical import (
    per_sample_cost,
    worker_throughput,
    workers_per_trainer,
)
from repro.workloads import ALL_MODELS, C_V1, C_V2, C_VSOTA, RM1, RM2, RM3


class TestPerSampleCost:
    def test_byte_volumes_match_table9(self):
        for model in ALL_MODELS:
            cost = per_sample_cost(model)
            qps = model.dpp.kqps * 1_000
            assert cost.storage_rx_bytes * qps == pytest.approx(
                model.dpp.storage_rx_gbs * 1e9, rel=1e-6
            )
            assert cost.tensor_tx_bytes * qps == pytest.approx(
                model.dpp.transform_tx_gbs * 1e9, rel=1e-6
            )

    def test_network_amplification_range(self):
        """Section 6.3: extraction needs 1.18-3.64x the load bandwidth."""
        amplifications = [m.dpp.storage_rx_gbs / m.dpp.transform_tx_gbs for m in ALL_MODELS]
        assert min(amplifications) == pytest.approx(1.18, abs=0.01)
        assert max(amplifications) == pytest.approx(3.64, abs=0.01)

    def test_mem_shares_match_llc_study(self):
        """Section 6.3 for RM2: 50.4/24.9/16.4/4.7% of LLC misses."""
        shares = per_sample_cost(RM2).mem_shares()
        assert shares["transformation"] == pytest.approx(0.504, abs=0.04)
        assert shares["extraction"] == pytest.approx(0.249, abs=0.04)
        assert shares["network_receive"] == pytest.approx(0.164, abs=0.04)
        assert shares["network_send"] == pytest.approx(0.047, abs=0.02)

    def test_mem_shares_sum_to_one(self):
        for model in ALL_MODELS:
            assert sum(per_sample_cost(model).mem_shares().values()) == pytest.approx(1.0)


class TestTable9:
    def test_qps_matches_paper(self):
        for model in ALL_MODELS:
            throughput = worker_throughput(model, C_V1)
            assert throughput.qps / 1_000 == pytest.approx(model.dpp.kqps, rel=0.08)

    def test_workers_per_trainer_matches_paper(self):
        for model in ALL_MODELS:
            needed = workers_per_trainer(model, C_V1)
            assert needed == pytest.approx(model.dpp.workers_per_trainer, rel=0.08)

    def test_bottleneck_diversity(self):
        """RM1 CPU/mem-BW, RM2 ingress NIC, RM3 memory capacity (§6.3)."""
        assert worker_throughput(RM1, C_V1).bottleneck in ("cpu", "mem_bw")
        assert worker_throughput(RM2, C_V1).bottleneck == "nic_rx"
        assert worker_throughput(RM3, C_V1).bottleneck == "memory_capacity"

    def test_rm1_mem_bw_near_saturation(self):
        """RM1 is co-bound: memory bandwidth close to its ~70% ceiling."""
        throughput = worker_throughput(RM1, C_V1)
        util = throughput.utilization_at_qps(throughput.qps)
        assert util["mem_bw"] > 0.6

    def test_rm2_nic_near_line_rate(self):
        """RM2 needs ~10 of 12.5 Gbps — practical NIC limits (§6.3)."""
        throughput = worker_throughput(RM2, C_V1)
        util = throughput.utilization_at_qps(throughput.qps)
        assert util["nic_rx"] == pytest.approx(0.8, abs=0.05)


class TestGenerationalProjection:
    def test_rm2_becomes_mem_bw_bound_on_cv2(self):
        """Section 6.3: on C-v2, memory bandwidth (not NIC) binds RM2."""
        assert worker_throughput(RM2, C_V2).bottleneck == "mem_bw"

    def test_cv2_raises_rm2_throughput(self):
        assert worker_throughput(RM2, C_V2).qps > worker_throughput(RM2, C_V1).qps

    def test_sota_node_helps_every_model(self):
        for model in ALL_MODELS:
            assert (
                worker_throughput(model, C_VSOTA).qps
                > worker_throughput(model, C_V1).qps
            )

    def test_rm3_thread_pool_limited(self):
        """RM3's working set caps the thread pool below full CPU use."""
        throughput = worker_throughput(RM3, C_V1)
        assert throughput.thread_limit_factor < 1.0
        # C-vSotA's 1 TB of DRAM removes the limit.
        assert worker_throughput(RM3, C_VSOTA).thread_limit_factor == 1.0


class TestCpuBreakdown:
    def test_transform_dominates_extract_for_rm1(self):
        throughput = worker_throughput(RM1, C_V1)
        breakdown = throughput.cpu_breakdown_at_qps(throughput.qps)
        assert breakdown["transformation"] > breakdown["extraction"]

    def test_breakdown_sums_to_cpu_utilization(self):
        throughput = worker_throughput(RM1, C_V1)
        breakdown = throughput.cpu_breakdown_at_qps(throughput.qps)
        util = throughput.utilization_at_qps(throughput.qps)
        assert breakdown["transformation"] + breakdown["extraction"] == pytest.approx(
            util["cpu"], rel=1e-6
        )
