import numpy as np
import pytest

from ipclr.denoise import estimate_if_for
from ipclr.experiments import default_signal, estimate_if_valid
from ipclr.frames import StftConfig, derivative_window, hann_window, stft
from ipclr.ifreq import estimate_if
from ipclr.signals import SignalBuffer, SinusoidSpec, add_noise_at_snr, synth_sinusoid_sum


def if_map_of(x, config, framing="valid", guard_eps=1e-6):
    s_w = stft(x, config, hann_window(config.window_len), framing=framing)
    s_wp = stft(x, config, derivative_window(config.window_len), framing=framing)
    return estimate_if(s_w, s_wp, guard_eps=guard_eps), s_w


CFG = StftConfig(window_len=1024, hop=256)


class TestCalibration:
    def test_on_grid_exponential_exact_at_peak(self):
        f = 37
        x = np.exp(2j * np.pi * f * np.arange(4 * 1024) / 1024)
        v, s_w = if_map_of(x, CFG)
        peak = int(np.argmax(np.abs(s_w.data[:, 0])))
        assert peak == f
        assert np.abs(v.values[peak, :] - f).max() <= 0.01

    def test_on_grid_neighbor_bins_also_locked(self):
        f = 37
        x = np.exp(2j * np.pi * f * np.arange(4 * 1024) / 1024)
        v, _ = if_map_of(x, CFG)
        for row in (f - 1, f + 1):
            assert np.abs(v.values[row, :] - f).max() <= 0.01

    def test_real_sinusoid_cycles_per_window(self):
        # 100 Hz at 16 kHz with L = 4096 -> 100 * 4096 / 16000 = 25.6
        cfg = StftConfig(window_len=4096, hop=1024)
        sig = synth_sinusoid_sum([SinusoidSpec(1.0, 100.0)], 1.0, 16000.0)
        v, s_w = if_map_of(sig, cfg)
        peak = int(np.argmax(np.abs(s_w.data[: 2048, 0])))
        assert v.values[peak, 0] == pytest.approx(25.6, abs=0.05)

    def test_frequency_covariance_one_bin_shift(self):
        cfg = StftConfig(window_len=4096, hop=1024)
        bin_hz = 16000.0 / 4096
        base = synth_sinusoid_sum([SinusoidSpec(1.0, 100.0)], 1.0, 16000.0)
        shifted = synth_sinusoid_sum([SinusoidSpec(1.0, 100.0 + bin_hz)], 1.0, 16000.0)
        v0, s0 = if_map_of(base, cfg)
        v1, s1 = if_map_of(shifted, cfg)
        p0 = int(np.argmax(np.abs(s0.data[:2048, 0])))
        p1 = int(np.argmax(np.abs(s1.data[:2048, 0])))
        assert v1.values[p1, 0] - v0.values[p0, 0] == pytest.approx(1.0, abs=0.01)

    def test_stationary_tone_constant_over_frames(self):
        sig = synth_sinusoid_sum([SinusoidSpec(1.0, 997.0)], 0.5, 16000.0)
        v, s_w = if_map_of(sig, CFG)
        peak = int(np.argmax(np.abs(s_w.data[:512, 0])))
        assert np.ptp(v.values[peak, :]) < 0.01

    def test_mirror_symmetry_real_signal(self):
        sig = synth_sinusoid_sum([SinusoidSpec(1.0, 1000.0)], 0.5, 16000.0)
        v, s_w = if_map_of(sig, CFG)
        K = 1024
        peak = int(np.argmax(np.abs(s_w.data[: K // 2, 0])))
        assert v.values[K - peak, 0] == pytest.approx(K - v.values[peak, 0], abs=0.05)


class TestGuard:
    def test_zero_signal_falls_back_to_carrier(self):
        v, _ = if_map_of(np.zeros(4096), CFG)
        expected = np.broadcast_to(np.arange(1024.0)[:, None], v.values.shape)
        np.testing.assert_array_equal(v.values, expected)

    def test_quiet_bins_fall_back(self):
        f = 100
        x = np.exp(2j * np.pi * f * np.arange(4 * 1024) / 1024)
        v, s_w = if_map_of(x, CFG, guard_eps=1e-3)
        mag = np.abs(s_w.data)
        quiet = mag < 1e-3 * mag.max()
        bins = np.broadcast_to(np.arange(1024.0)[:, None], v.values.shape)
        np.testing.assert_array_equal(v.values[quiet], bins[quiet])

    def test_values_finite_even_with_tiny_guard(self):
        rng = np.random.default_rng(0)
        v, _ = if_map_of(rng.standard_normal(4096), CFG, guard_eps=0.0)
        assert np.all(np.isfinite(v.values))


class TestValidation:
    def test_shape_mismatch_rejected(self):
        s1 = stft(np.ones(4096), CFG, hann_window(1024), framing="valid")
        cfg2 = StftConfig(window_len=1024, hop=512)
        s2 = stft(np.ones(4096), cfg2, derivative_window(1024), framing="valid")
        with pytest.raises(ValueError):
            estimate_if(s1, s2)

    def test_framing_mismatch_rejected(self):
        # 2560 samples in cover framing give the same 13 frames as 4096 in
        # valid framing, so only the framing mismatch can trip the check.
        s1 = stft(np.ones(4096), CFG, hann_window(1024), framing="valid")
        s2 = stft(np.ones(2560), CFG, derivative_window(1024), framing="cover")
        assert s1.data.shape == s2.data.shape
        with pytest.raises(ValueError):
            estimate_if(s1, s2)


ONE_SIDED_SIGNALS = {
    "noisy_harmonic": lambda: add_noise_at_snr(default_signal(duration_s=1.0), 10.0, seed=0),
    "white_noise": lambda: SignalBuffer(np.random.default_rng(7).standard_normal(16000), 16000.0),
}


class TestOneSidedMaps:
    """The real-signal estimators return rows 0..L/2 of the two-sided map, bit for bit."""

    @pytest.mark.parametrize("window_len,hop", [(512, 128), (4096, 1024)])
    @pytest.mark.parametrize("signal", sorted(ONE_SIDED_SIGNALS))
    @pytest.mark.parametrize("framing", ["cover", "valid"])
    def test_rows_of_two_sided_map(self, framing, signal, window_len, hop):
        x = ONE_SIDED_SIGNALS[signal]()
        cfg = StftConfig(window_len=window_len, hop=hop)
        two_sided, s_w = if_map_of(x, cfg, framing=framing)
        estimator = estimate_if_for if framing == "cover" else estimate_if_valid
        v = estimator(x, cfg)
        assert v.values.shape == (window_len // 2 + 1, s_w.n_frames)
        np.testing.assert_array_equal(v.values, two_sided.values[: window_len // 2 + 1])
