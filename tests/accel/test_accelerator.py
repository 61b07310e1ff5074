"""The combined accelerator performance model."""

import dataclasses

import pytest

from repro.accel.accelerator import AcceleratorConfig, AcceleratorModel, TPU_V1_CONFIG
from repro.accel.models import build_model
from repro.protection.guardnn import GuardNNProtection
from repro.protection.mee import BaselineMEE
from repro.protection.none import NoProtection


@pytest.fixture(scope="module")
def alexnet():
    return build_model("alexnet")


@pytest.fixture(scope="module")
def accel():
    return AcceleratorModel(TPU_V1_CONFIG)


class TestConfig:
    def test_tpu_config_matches_paper(self):
        assert TPU_V1_CONFIG.num_pes == 64 * 1024
        assert TPU_V1_CONFIG.sram_bytes == 24 * 1024 * 1024
        assert TPU_V1_CONFIG.freq_mhz == 700.0

    def test_dram_bytes_per_cycle(self):
        cfg = AcceleratorConfig("x", 16, 16, 1 << 20, 1000.0, 16.0)
        assert cfg.dram_bytes_per_cycle == pytest.approx(16.0)

    @pytest.mark.parametrize("name,value,kind", [
        ("dram_bandwidth_gbps", -5, "positive finite number"),
        ("dram_bandwidth_gbps", 0, "positive finite number"),
        ("dram_bandwidth_gbps", True, "positive finite number"),
        ("dram_bandwidth_gbps", "34", "positive finite number"),
        ("dram_bandwidth_gbps", float("inf"), "positive finite number"),
        ("freq_mhz", -700.0, "positive finite number"),
        ("freq_mhz", float("nan"), "positive finite number"),
        ("pe_rows", 2.5, "positive integer"),
        ("pe_cols", 0, "positive integer"),
        ("sram_bytes", True, "positive integer"),
        ("vector_lanes", -1, "positive integer"),
        ("bytes_per_element", 0, "positive integer"),
    ])
    def test_malformed_value_refused(self, name, value, kind):
        with pytest.raises(ValueError, match=f"{name} must be a {kind}, got"):
            dataclasses.replace(TPU_V1_CONFIG, **{name: value})

    def test_integer_bandwidth_and_clock_accepted(self):
        cfg = dataclasses.replace(TPU_V1_CONFIG, dram_bandwidth_gbps=68, freq_mhz=700)
        assert cfg.dram_bytes_per_cycle == pytest.approx(68e9 / 700e6)

    @pytest.mark.parametrize("config", [
        {"dram_bandwidth_gbps": -5}, {"dram_bandwidth_gbps": True},
        {"freq_mhz": -700.0}, {"pe_rows": 2.5}, {"vector_lanes": -1},
    ], ids=["negative-bandwidth", "bool-bandwidth", "negative-freq",
            "fractional-pe-rows", "negative-lanes"])
    def test_accel_run_refuses_malformed_config(self, config):
        """Each of these used to time a silently wrong row."""
        from repro.experiments.executors import accel_run

        (name,) = config
        with pytest.raises(ValueError, match=f"{name} must be a positive"):
            accel_run({"model": "alexnet", "scheme": "np", "config": config})


class TestRuns:
    def test_np_has_zero_metadata(self, accel, alexnet):
        result = accel.run(alexnet, NoProtection())
        assert result.total_metadata_bytes == 0
        assert result.traffic_increase == 0.0

    def test_one_timing_per_layer(self, accel, alexnet):
        result = accel.run(alexnet, NoProtection())
        assert len(result.layers) == len(alexnet.layers)

    def test_layer_total_is_max_of_parts(self, accel, alexnet):
        result = accel.run(alexnet, NoProtection())
        for lt in result.layers:
            assert lt.total_cycles >= max(lt.compute_cycles, lt.memory_cycles)

    def test_training_slower_than_inference(self, accel, alexnet):
        inf = accel.run(alexnet, NoProtection(), training=False)
        train = accel.run(alexnet, NoProtection(), training=True)
        assert train.total_cycles > 2 * inf.total_cycles

    def test_normalized_to_self_is_one(self, accel, alexnet):
        result = accel.run(alexnet, NoProtection())
        assert result.normalized_to(result) == 1.0

    def test_throughput_positive(self, accel, alexnet):
        result = accel.run(alexnet, NoProtection())
        assert result.throughput_samples_per_s() > 0

    def test_batch_scales_data(self, accel, alexnet):
        b1 = accel.run(alexnet, NoProtection(), batch=1)
        b4 = accel.run(alexnet, NoProtection(), batch=4)
        assert b4.total_data_bytes > b1.total_data_bytes
        # batching amortizes weight reads: less than linear growth
        assert b4.total_data_bytes < 4 * b1.total_data_bytes


class TestProtectionOrdering:
    """The paper's headline ordering must hold for every network."""

    @pytest.mark.parametrize("name", ["alexnet", "mobilenet", "vit"])
    def test_np_le_c_le_ci_le_bp(self, accel, name):
        model = build_model(name)
        np_t = accel.run(model, NoProtection()).total_cycles
        c_t = accel.run(model, GuardNNProtection(integrity=False)).total_cycles
        ci_t = accel.run(model, GuardNNProtection(integrity=True)).total_cycles
        bp_t = accel.run(model, BaselineMEE()).total_cycles
        assert np_t <= c_t <= ci_t <= bp_t

    def test_guardnn_overhead_small(self, accel, alexnet):
        base = accel.run(alexnet, NoProtection())
        ci = accel.run(alexnet, GuardNNProtection(integrity=True))
        assert ci.normalized_to(base) < 1.05  # paper: ~1.01

    def test_bp_overhead_substantial(self, accel, alexnet):
        base = accel.run(alexnet, NoProtection())
        bp = accel.run(alexnet, BaselineMEE())
        assert bp.normalized_to(base) > 1.10  # paper: ~1.25x
