import numpy as np
import pytest

from ipclr.denoise import estimate_if_for
from ipclr.frames import (
    StftConfig,
    canonical_tight_window,
    derivative_window,
    hann_window,
    one_sided,
    stft,
)
from ipclr.ifreq import IfMap, estimate_if
from ipclr.ipc import build_corrector, ipc_istft, ipc_stft
from ipclr.signals import SignalBuffer, add_noise_at_snr
from ipclr.experiments import default_signal

CFG = StftConfig(window_len=1024, hop=256)


def separated_exponential_sum(n, window_len):
    # On-grid, spaced far beyond the 3-bin Hann kernel.
    comps = [(3.0, 100, 0.3), (2.0, 260, 1.1), (1.0, 420, 2.0)]
    l = np.arange(n)
    return sum(A * np.exp(2j * np.pi * f * l / window_len + 1j * ph) for A, f, ph in comps)


def recurrence_corrector(v):
    """Reference: the per-frame running product, renormalized every frame."""
    a, L = v.config.hop, v.config.window_len
    step = np.exp(-2j * np.pi * v.values * a / L)
    E = np.empty(v.values.shape, dtype=np.complex128)
    E[:, 0] = 1.0
    for tau in range(1, v.values.shape[1]):
        col = E[:, tau - 1] * step[:, tau - 1]
        E[:, tau] = col / np.abs(col)
    return E


DENOISER_CFG = StftConfig(window_len=4096, hop=1024, window_kind="hann_tight")


@pytest.fixture(scope="module")
def denoiser_signal():
    return add_noise_at_snr(default_signal(duration_s=2.56), 10.0, seed=0)


@pytest.fixture(scope="module")
def denoiser_if_map(denoiser_signal):
    """One-sided IF of a noisy real signal at the denoiser geometry (2049 x 43)."""
    return estimate_if_for(denoiser_signal, DENOISER_CFG)


def two_sided_if_map(x, config):
    """The Hann-pair IF map over all L rows, in cover framing."""
    s_w = stft(x, config, hann_window(config.window_len))
    s_wp = stft(x, config, derivative_window(config.window_len))
    return estimate_if(s_w, s_wp)


def estimated_corrector(x, config):
    s_w = stft(x, config, hann_window(config.window_len), framing="valid")
    s_wp = stft(x, config, derivative_window(config.window_len), framing="valid")
    return build_corrector(estimate_if(s_w, s_wp)), s_w


class TestBuildCorrector:
    def test_zero_if_gives_all_ones(self):
        v = IfMap(np.zeros((8, 5)), CFG)
        E = build_corrector(v)
        np.testing.assert_allclose(E, np.ones((8, 5)), atol=1e-15)

    def test_constant_if_closed_form(self):
        f = 3.75
        v = IfMap(np.full((4, 6), f), CFG)
        E = build_corrector(v)
        tau = np.arange(6)
        expected = np.exp(-2j * np.pi * f * CFG.hop * tau / CFG.window_len)
        np.testing.assert_allclose(E, np.broadcast_to(expected, (4, 6)), atol=1e-12)

    def test_first_column_is_ones(self):
        rng = np.random.default_rng(0)
        v = IfMap(rng.uniform(0, 512, (64, 9)), CFG)
        np.testing.assert_array_equal(build_corrector(v)[:, 0], np.ones(64))

    def test_unimodular(self):
        rng = np.random.default_rng(1)
        v = IfMap(rng.uniform(0, 512, (64, 200)), CFG)
        E = build_corrector(v)
        np.testing.assert_allclose(np.abs(E), 1.0, atol=1e-15)

    def test_matches_recurrence(self, denoiser_if_map):
        E = build_corrector(denoiser_if_map)
        assert E.shape == (2049, 43)
        np.testing.assert_allclose(E, recurrence_corrector(denoiser_if_map), rtol=0, atol=1e-9)

    def test_conjugate_symmetric_for_real_signal(self, denoiser_signal, denoiser_if_map):
        # The two-sided E of a real signal mirrors its rows 0..L/2, which
        # are exactly the one-sided E.
        E = build_corrector(two_sided_if_map(denoiser_signal, DENOISER_CFG))
        mirror = (-np.arange(E.shape[0])) % E.shape[0]
        np.testing.assert_allclose(E[mirror], np.conj(E), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(E[0], np.ones(E.shape[1]))
        np.testing.assert_allclose(E[E.shape[0] // 2].imag, 0.0, atol=1e-15)
        np.testing.assert_array_equal(E[: E.shape[0] // 2 + 1], build_corrector(denoiser_if_map))

    def test_rejects_non_finite(self):
        v = IfMap(np.zeros((4, 4)), CFG)
        bad = IfMap(np.where(np.eye(4) > 0, np.nan, 0.0), CFG)
        build_corrector(v)
        with pytest.raises(ValueError):
            build_corrector(bad)


class TestIpcStft:
    def test_identity_corrector(self):
        spec = stft(np.sin(np.arange(4096) * 0.01), CFG, hann_window(1024), framing="valid")
        corr = build_corrector(IfMap(np.zeros(spec.data.shape), CFG))
        out = ipc_stft(spec, corr)
        np.testing.assert_array_equal(out.data, spec.data)

    def test_modulus_preserved(self):
        x = separated_exponential_sum(4096, 1024)
        corr, spec = estimated_corrector(x, CFG)
        out = ipc_stft(spec, corr)
        np.testing.assert_allclose(np.abs(out.data), np.abs(spec.data), atol=1e-12)

    def test_energy_preserved(self):
        x = separated_exponential_sum(4096, 1024)
        corr, spec = estimated_corrector(x, CFG)
        out = ipc_stft(spec, corr)
        assert np.linalg.norm(out.data) == pytest.approx(
            np.linalg.norm(spec.data), rel=1e-12
        )

    def test_columns_collapse_to_first(self):
        x = separated_exponential_sum(6 * 1024, 1024)
        corr, spec = estimated_corrector(x, CFG)
        out = ipc_stft(spec, corr).data
        dev = np.abs(out - out[:, :1]).max() / np.abs(out).max()
        assert dev < 1e-6

    def test_rows_are_constant_multiple_of_amplitude(self):
        x = separated_exponential_sum(6 * 1024, 1024)
        corr, spec = estimated_corrector(x, CFG)
        out = ipc_stft(spec, corr).data
        amp = np.abs(out)
        scale = amp.max()
        for row in range(out.shape[0]):
            live = amp[row] > 1e-9 * scale
            if np.count_nonzero(live) > 1:
                phases = out[row, live] / amp[row, live]
                assert np.abs(phases - phases[0]).max() < 1e-6

    def test_singular_values_match_amplitude_spectrogram(self):
        x = separated_exponential_sum(6 * 1024, 1024)
        corr, spec = estimated_corrector(x, CFG)
        out = ipc_stft(spec, corr).data
        s_ipc = np.linalg.svd(out, compute_uv=False)
        s_amp = np.linalg.svd(np.abs(out), compute_uv=False)
        assert np.abs(s_ipc - s_amp).max() <= 1e-6 * s_amp[0]

    def test_shape_mismatch_rejected(self):
        spec = stft(np.ones(4096), CFG, hann_window(1024), framing="valid")
        corr = build_corrector(IfMap(np.zeros((1024, 2)), CFG))
        with pytest.raises(ValueError):
            ipc_stft(spec, corr)


class TestIpcIstft:
    def setup_method(self):
        self.cfg = StftConfig(window_len=1024, hop=256, window_kind="hann_tight")
        self.wt = canonical_tight_window(hann_window(1024), 256)

    def test_round_trip_white_noise(self):
        rng = np.random.default_rng(2)
        x = SignalBuffer(rng.standard_normal(5000), 16000.0)
        spec = stft(x, self.cfg, self.wt)
        rng2 = np.random.default_rng(3)
        corr = build_corrector(IfMap(rng2.uniform(0, 1024, spec.data.shape), self.cfg))
        y = ipc_istft(ipc_stft(spec, corr), corr, self.wt)
        err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
        assert err < 1e-10

    def test_identity_corrector_reduces_to_istft(self):
        from ipclr.frames import istft

        x = SignalBuffer(np.sin(np.arange(3000) * 0.05), 16000.0)
        spec = stft(x, self.cfg, self.wt)
        corr = build_corrector(IfMap(np.zeros(spec.data.shape), self.cfg))
        a = ipc_istft(spec, corr, self.wt)
        b = istft(spec, self.wt)
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-14)

    def test_conjugate_cancels(self):
        rng = np.random.default_rng(4)
        corr = build_corrector(IfMap(rng.uniform(0, 1024, (1024, 7)), self.cfg))
        np.testing.assert_allclose(corr * np.conj(corr), np.ones_like(corr), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        spec = stft(np.ones(3000), self.cfg, self.wt)
        corr = build_corrector(IfMap(np.zeros((1024, 1)), self.cfg))
        with pytest.raises(ValueError):
            ipc_istft(spec, corr, self.wt)

    def test_rejects_one_sided_spectrogram(self):
        x = SignalBuffer(np.sin(np.arange(3000) * 0.05), 16000.0)
        half = one_sided(stft(x, self.cfg, self.wt))
        corr = build_corrector(IfMap(np.zeros(half.data.shape), self.cfg))
        with pytest.raises(ValueError, match="two-sided"):
            ipc_istft(half, corr, self.wt)
