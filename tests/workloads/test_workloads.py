"""Model configs, hardware specs, and miniature dataset builders."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import PB
from repro.workloads import (
    ALL_MODELS,
    C_V1,
    C_V2,
    C_V3,
    C_VSOTA,
    COMPUTE_GENERATIONS,
    RM1,
    RM2,
    RM3,
    V100_TRAINER,
    ZIONEX_TRAINER,
    build_mini_dataset,
    model_by_name,
)


class TestModelConstants:
    def test_table3_sizes(self):
        assert RM1.table_sizes.all_partitions == pytest.approx(13.45 * PB)
        assert RM2.table_sizes.each_partition == pytest.approx(0.32 * PB)
        assert RM3.table_sizes.used_partitions == pytest.approx(1.95 * PB)

    def test_table4_feature_counts(self):
        assert (RM1.features.n_dense, RM1.features.n_sparse) == (1221, 298)
        assert RM3.features.n_derived == 1

    def test_table5_selectivity(self):
        for model in ALL_MODELS:
            assert 8 <= model.dataset.pct_features_used <= 12
            assert model.dataset.pct_bytes_used > model.dataset.pct_features_used

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_table3_sizes_nest(self, model):
        sizes = model.table_sizes
        assert 0 < sizes.each_partition < sizes.used_partitions <= sizes.all_partitions

    def test_lookup_by_name(self):
        assert model_by_name("RM2") is RM2
        with pytest.raises(ConfigError):
            model_by_name("RM9")

    def test_samples_per_trainer_consistent(self):
        """Trainer sample demand = Table 8 bytes / Table 9 bytes-per-sample."""
        for model in ALL_MODELS:
            derived = model.trainer_bytes_per_s / model.bytes_per_sample
            assert derived == pytest.approx(model.samples_per_s_per_trainer)


class TestHardwareSpecs:
    def test_table10_rows(self):
        assert (C_V1.physical_cores, C_V1.nic_gbps) == (18, 12.5)
        assert (C_V2.physical_cores, C_V2.peak_mem_bw_gbs) == (26, 92)
        assert (C_V3.physical_cores, C_V3.nic_gbps) == (36, 25.0)
        assert (C_VSOTA.memory_gb, C_VSOTA.nic_gbps) == (1024, 100.0)

    def test_table10_per_core_trends(self):
        """Table 10's message: per-core memory bandwidth shrinks across
        generations while per-core NIC bandwidth grows."""
        assert C_V3.mem_bw_per_core_gbs < C_V1.mem_bw_per_core_gbs
        assert C_VSOTA.nic_bw_per_core_gbps > C_V1.nic_bw_per_core_gbps

    def test_trainer_nodes(self):
        assert V100_TRAINER.total_cores == 56
        assert ZIONEX_TRAINER.total_cores == 112
        assert len(ZIONEX_TRAINER.nics_gbps) == 4
        assert ZIONEX_TRAINER.total_watts > V100_TRAINER.total_watts

    @pytest.mark.parametrize(
        "node", [V100_TRAINER, ZIONEX_TRAINER], ids=lambda node: node.name
    )
    def test_trainer_resource_spec(self, node):
        spec = node.resource_spec()
        assert spec.cpu_cycles_per_s == pytest.approx(
            node.total_cores * node.frequency_ghz * 1e9
        )
        assert spec.nic_bytes_per_s == pytest.approx(sum(node.nics_gbps) * 1e9 / 8)
        assert spec.mem_bw_bytes_per_s == pytest.approx(node.peak_mem_bw_gbs * 1e9)

    def test_generations_ordered(self):
        cores = [g.physical_cores for g in COMPUTE_GENERATIONS]
        assert cores == sorted(cores)


class TestMiniDatasets:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_projection_rate_matches_paper(self, model):
        dataset = build_mini_dataset(model, ["p0"], 100, seed=1)
        assert dataset.pct_features_projected == pytest.approx(
            model.dataset.pct_features_used, abs=2.5
        )

    def test_dense_sparse_mix_preserved(self):
        dataset = build_mini_dataset(RM1, ["p0"], 50, seed=1)
        dense = sum(1 for s in dataset.schema if s.name.startswith("dense_"))
        sparse = len(dataset.schema) - dense
        paper_ratio = RM1.dataset.n_float_features / RM1.dataset.n_sparse_features
        assert dense / sparse == pytest.approx(paper_ratio, rel=0.2)

    def test_dag_outputs_cover_projection_types(self):
        dataset = build_mini_dataset(RM2, ["p0"], 50, seed=1)
        assert len(dataset.output_ids) > 0
        assert dataset.dag.required_raw_inputs() <= dataset.projection

    def test_transform_intensity_scales_feature_generation(self):
        """RM1's DAG runs more feature-generation (NGram) chains per
        projected sparse feature than RM3's (transform intensity)."""
        from repro.transforms import NGram

        def ngram_per_sparse(dataset):
            n_ngram = sum(
                1 for node in dataset.dag.nodes if isinstance(node.op, NGram)
            )
            n_sparse = sum(
                1
                for fid in dataset.projection
                if not dataset.schema.get(fid).name.startswith("dense_")
            )
            return n_ngram / n_sparse

        heavy = build_mini_dataset(RM1, ["p0"], 30, seed=1)
        light = build_mini_dataset(RM3, ["p0"], 30, seed=1)
        assert ngram_per_sparse(heavy) > ngram_per_sparse(light)

    def test_rows_populated(self):
        dataset = build_mini_dataset(RM3, ["p0", "p1"], 40, seed=2)
        assert dataset.table.total_rows() == 80
        assert dataset.table.partition_names() == ["p0", "p1"]
