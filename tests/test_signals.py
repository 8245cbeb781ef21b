import math

import numpy as np
import pytest

from ipclr.signals import (
    SignalBuffer,
    SinusoidSpec,
    add_complex_noise_at_snr,
    add_noise_at_snr,
    snr_db,
    synth_sinusoid_sum,
)


class TestSignalBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.array([0.0, np.nan]), 16000.0)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.array([np.inf]), 16000.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.zeros(4), 0.0)

    def test_duration(self):
        buf = SignalBuffer(np.zeros(8000), 16000.0)
        assert buf.duration_s == 0.5
        assert len(buf) == 8000


class TestSynth:
    def test_pointwise_oracle(self):
        # A=1, f=fs/8, phase 0: samples must equal sin(2*pi*l/8) exactly.
        fs = 8000.0
        sig = synth_sinusoid_sum([SinusoidSpec(1.0, fs / 8)], 8 / fs, fs)
        expected = np.sin(2 * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-15)

    def test_empty_specs_all_zero(self):
        sig = synth_sinusoid_sum([], 0.01, 16000.0)
        assert len(sig) == 160
        assert np.all(sig.samples == 0.0)

    def test_three_sine_recipe(self):
        specs = [SinusoidSpec(10.0 - h, (h + 1) * 100.0) for h in range(3)]
        sig = synth_sinusoid_sum(specs, 1.0, 16000.0)
        assert len(sig) == 16000
        t = np.arange(16000) / 16000.0
        direct = sum((10.0 - h) * np.sin(2 * np.pi * (h + 1) * 100.0 * t) for h in range(3))
        np.testing.assert_allclose(sig.samples, direct, atol=1e-12)

    def test_length_rounding(self):
        sig = synth_sinusoid_sum([], 0.100049, 16000.0)
        assert len(sig) == round(0.100049 * 16000.0)

    def test_phase_offset(self):
        sig = synth_sinusoid_sum([SinusoidSpec(1.0, 100.0, np.pi / 2)], 0.01, 16000.0)
        assert sig.samples[0] == pytest.approx(1.0)

    def test_rejects_duplicate_frequencies(self):
        specs = [SinusoidSpec(1.0, 100.0), SinusoidSpec(2.0, 100.0)]
        with pytest.raises(ValueError, match="distinct"):
            synth_sinusoid_sum(specs, 1.0, 16000.0)

    def test_rejects_at_or_above_nyquist(self):
        with pytest.raises(ValueError):
            synth_sinusoid_sum([SinusoidSpec(1.0, 8000.0)], 1.0, 16000.0)

    @pytest.mark.parametrize("duration", [1e-5, 1 / 32000])
    def test_rejects_duration_below_one_sample(self, duration):
        with pytest.raises(ValueError, match=f"duration_s={duration} s is shorter than one sample"):
            synth_sinusoid_sum([SinusoidSpec(1.0, 100.0)], duration, 16000.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            synth_sinusoid_sum([], 0.0, 16000.0)

    @pytest.mark.parametrize("duration,rate,name", [
        (math.inf, 16000.0, "duration_s"), (math.nan, 16000.0, "duration_s"),
        (1.0, math.inf, "sample_rate_hz"), (1.0, math.nan, "sample_rate_hz"),
    ])
    def test_rejects_non_finite_duration_or_rate(self, duration, rate, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            synth_sinusoid_sum([SinusoidSpec(1.0, 100.0)], duration, rate)

    def test_linearity(self):
        a = [SinusoidSpec(2.0, 100.0), SinusoidSpec(1.0, 250.0)]
        b = [SinusoidSpec(0.5, 375.0)]
        both = synth_sinusoid_sum(a + b, 0.05, 16000.0)
        parts = (
            synth_sinusoid_sum(a, 0.05, 16000.0).samples
            + synth_sinusoid_sum(b, 0.05, 16000.0).samples
        )
        np.testing.assert_allclose(both.samples, parts, atol=1e-12)


class TestAddNoise:
    def setup_method(self):
        self.clean = synth_sinusoid_sum([SinusoidSpec(1.0, 440.0)], 0.25, 16000.0)

    def test_zero_db_equal_energy(self):
        noisy = add_noise_at_snr(self.clean, 0.0, seed=3)
        noise = noisy.samples - self.clean.samples
        assert np.sum(noise**2) == pytest.approx(np.sum(self.clean.samples**2), rel=1e-12)

    @pytest.mark.parametrize("target", [-5.0, 0.0, 10.0, 37.5])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_realized_snr_exact(self, target, seed):
        noisy = add_noise_at_snr(self.clean, target, seed)
        assert snr_db(self.clean, noisy) == pytest.approx(target, abs=1e-9)

    def test_infinite_target_is_identity(self):
        noisy = add_noise_at_snr(self.clean, math.inf, seed=0)
        assert np.array_equal(noisy.samples, self.clean.samples)

    def test_deterministic_per_seed(self):
        a = add_noise_at_snr(self.clean, 10.0, seed=42)
        b = add_noise_at_snr(self.clean, 10.0, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = add_noise_at_snr(self.clean, 10.0, seed=1)
        b = add_noise_at_snr(self.clean, 10.0, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_zero_energy_rejected(self):
        silent = SignalBuffer(np.zeros(100), 16000.0)
        with pytest.raises(ValueError, match="zero energy"):
            add_noise_at_snr(silent, 10.0, seed=0)

    @pytest.mark.parametrize("target", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf_target(self, target):
        with pytest.raises(ValueError, match=f"target_snr_db .* got {target}"):
            add_noise_at_snr(self.clean, target, seed=0)


class TestComplexNoise:
    def test_realized_snr_exact(self):
        rng = np.random.default_rng(0)
        clean = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        noisy = add_complex_noise_at_snr(clean, 12.0, seed=5)
        assert snr_db(clean, noisy) == pytest.approx(12.0, abs=1e-9)

    def test_deterministic(self):
        clean = np.ones((4, 4), dtype=complex)
        a = add_complex_noise_at_snr(clean, 3.0, seed=7)
        b = add_complex_noise_at_snr(clean, 3.0, seed=7)
        assert np.array_equal(a, b)

    def test_infinite_target_is_identity(self):
        clean = np.ones((2, 3), dtype=complex)
        assert np.array_equal(add_complex_noise_at_snr(clean, math.inf, 0), clean)

    @pytest.mark.parametrize("target", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf_target(self, target):
        clean = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError, match=f"target_snr_db .* got {target}"):
            add_complex_noise_at_snr(clean, target, 0)

    def test_same_draws_as_two_real_arrays(self):
        """The noise is the seed's real-part draw, then its imaginary-part draw."""
        clean = np.arange(1.0, 13.0).reshape(3, 4) * (1 - 2j)
        noisy = add_complex_noise_at_snr(clean, 0.0, seed=4)
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        scale = math.sqrt(np.sum(np.abs(clean) ** 2) / np.sum(np.abs(noise) ** 2))
        np.testing.assert_allclose(noisy, clean + scale * noise, rtol=1e-14)


class TestSnrDb:
    def test_equal_gives_infinity(self):
        sig = SignalBuffer(np.ones(10), 16000.0)
        assert math.isinf(snr_db(sig, sig))

    def test_zero_estimate_gives_zero_db(self):
        sig = np.array([1.0, -2.0, 3.0])
        assert snr_db(sig, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # ||r||^2 = 25, ||r - e||^2 = 1 -> 10*log10(25) = 13.9794 dB
        assert snr_db(np.array([3.0, 4.0]), np.array([3.0, 3.0])) == pytest.approx(
            10 * math.log10(25.0), abs=1e-12
        )

    def test_complex_matrices(self):
        ref = np.array([[1 + 1j, 0], [0, 2]])
        est = np.array([[1 + 1j, 0], [0, 1]])
        assert snr_db(ref, est) == pytest.approx(10 * math.log10(6.0), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            snr_db(np.ones(3), np.ones(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError, match="zero"):
            snr_db(np.zeros(3), np.ones(3))
