"""Tests for the roofline cost model and the CPU strong-scaling model."""

import numpy as np
import pytest

from repro.parallel import (
    TrafficCounter,
    bandwidth_efficiency,
    device,
    predict_device_time,
    scale_traffic,
    scaling_efficiency,
    strong_scaling_times,
)


def make_traffic(num_kernels=10, bytes_per_kernel=10**7, gather=0, coalesced=True):
    t = TrafficCounter()
    for i in range(num_kernels):
        t.add(f"k{i}", bytes_per_kernel, bytes_per_kernel // 4, gather_bytes=gather,
              coalesced=coalesced)
    return t


class TestTrafficCounter:
    def test_accumulation(self):
        t = make_traffic(3, 1000)
        assert t.num_kernels == 3
        assert t.bytes_read == 3000
        assert t.bytes_written == 750
        assert t.total_bytes == 3750

    def test_by_kernel_grouping(self):
        t = TrafficCounter()
        t.add("a", 10, 0)
        t.add("a", 5, 5)
        t.add("b", 1, 1)
        assert t.by_kernel() == {"a": 20, "b": 2}

    def test_validation(self):
        t = TrafficCounter()
        with pytest.raises(ValueError):
            t.add("x", -1, 0)
        with pytest.raises(ValueError):
            t.add("x", 10, 0, gather_bytes=20)

    def test_scale_traffic(self):
        t = make_traffic(2, 1000, gather=100)
        s = scale_traffic(t, 10.0)
        assert s.num_kernels == 2
        assert s.total_bytes == 10 * t.total_bytes
        assert s.kernels[0].gather_bytes == 1000
        with pytest.raises(ValueError):
            scale_traffic(t, 0.0)


class TestDevicePrediction:
    def test_gpu_time_is_latency_plus_bandwidth(self):
        t = make_traffic(num_kernels=4, bytes_per_kernel=9 * 10**8)  # 4 * 1.125 GB total
        spec = device("v100")
        expected = 4 * spec.kernel_latency_s + t.total_bytes / spec.memory_bandwidth_bytes
        assert predict_device_time(t, "v100") == pytest.approx(expected)

    def test_higher_bandwidth_is_faster_when_traffic_dominates(self):
        t = make_traffic(num_kernels=2, bytes_per_kernel=10**9)
        assert predict_device_time(t, "mi100") < predict_device_time(t, "v100")

    def test_launch_latency_dominates_small_problems(self):
        t = make_traffic(num_kernels=100, bytes_per_kernel=10)
        # MI100 has higher per-launch latency than V100, so it is slower here despite
        # the higher bandwidth.
        assert predict_device_time(t, "mi100") > predict_device_time(t, "v100")

    def test_uncoalesced_gathers_cost_more_on_gpu(self):
        coalesced = make_traffic(4, 10**8, gather=5 * 10**7, coalesced=True)
        scattered = make_traffic(4, 10**8, gather=5 * 10**7, coalesced=False)
        assert predict_device_time(scattered, "v100") > predict_device_time(coalesced, "v100")

    def test_cpu_prediction_uses_scaling_model(self):
        t = make_traffic(5, 10**8)
        full = predict_device_time(t, "skylake")
        single = predict_device_time(t, "skylake", threads=1)
        assert full < single


class TestBandwidthEfficiency:
    def test_uses_measured_time_when_given(self):
        t = make_traffic(1, 100)
        eff = bandwidth_efficiency(t, "v100", measured_time_s=0.01)
        assert eff == pytest.approx((1 / 0.01) / 900.0)

    def test_positive_time_required(self):
        with pytest.raises(ValueError):
            bandwidth_efficiency(make_traffic(1, 100), "v100", measured_time_s=0.0)


class TestStrongScaling:
    def test_times_decrease_up_to_core_count(self):
        t = make_traffic(10, 10**8)
        counts = [1, 2, 4, 8, 16, 32, 48]
        times = strong_scaling_times(t, "skylake", counts)
        assert all(times[i] > times[i + 1] for i in range(len(times) - 1))

    def test_hyperthreads_slow_down(self):
        t = make_traffic(10, 10**8)
        t48, t96 = strong_scaling_times(t, "skylake", [48, 96])
        assert t96 > t48

    def test_efficiency_starts_at_one(self):
        t = make_traffic(10, 10**8)
        eff = scaling_efficiency(t, "tx2", [1, 2, 56])
        assert eff[0] == pytest.approx(1.0)
        assert 0 < eff[-1] <= 1.0

    def test_geomean_speedup_in_paper_ballpark(self):
        # The paper reports 26.9x on 48 Skylake cores and 43.9x on 56 TX2 cores.
        t = make_traffic(40, 10**8)
        sk = strong_scaling_times(t, "skylake", [1, 48])
        tx = strong_scaling_times(t, "tx2", [1, 56])
        assert 18 <= sk[0] / sk[1] <= 36
        assert 30 <= tx[0] / tx[1] <= 52

    def test_gpu_rejected(self):
        with pytest.raises(ValueError):
            strong_scaling_times(make_traffic(1, 100), "v100", [1, 2])

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            strong_scaling_times(make_traffic(1, 100), "skylake", [0])
