import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipclr.frames import (
    Spectrogram,
    StftConfig,
    analysis_window,
    canonical_tight_window,
    derivative_window,
    frame_count,
    frame_signal,
    hann_window,
    istft,
    overlap_add,
    shifted_square_sum,
    stft,
)
import ipclr
from ipclr.ifreq import estimate_if_from
from ipclr.signals import SignalBuffer


def dense_stft_oracle(x, config, w, framing):
    """Eq.-by-definition transform: DFT matrix times diag(w) times the L x T patches."""
    K = config.window_len
    patches = reference_patches(x, config, framing).T
    F = np.exp(-2j * np.pi * np.outer(np.arange(K), np.arange(config.window_len)) / K)
    return F @ np.diag(w) @ patches


def reference_patches(x, config, framing):
    """Independent framing reference, one frame per row: explicit loops over the framing rule."""
    x = np.asarray(x)
    L, a, n = config.window_len, config.hop, len(x)
    if framing == "valid":
        n_frames = (n - L) // a + 1
        offset = 0
    else:
        n_frames = -(-n // a) + L // a - 1
        offset = -(L - a)
    rows = []
    for tau in range(n_frames):
        row = np.zeros(L, dtype=complex if np.iscomplexobj(x) else float)
        for l in range(L):
            idx = offset + a * tau + l
            if 0 <= idx < n:
                row[l] = x[idx]
        rows.append(row)
    return np.stack(rows)


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig(window_len=256, hop=64)
        assert cfg.window_kind == "hann"

    def test_rejects_hop_over_half(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=256, hop=192)

    def test_rejects_non_dividing_hop(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=256, hop=96)

    def test_half_window_hop_allowed(self):
        StftConfig(window_len=256, hop=128)


class TestHannWindow:
    def test_closed_form_l4(self):
        np.testing.assert_allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("L", [2, 8, 256, 4096])
    def test_starts_at_zero(self, L):
        assert hann_window(L)[0] == 0.0

    def test_shifted_square_sum_constant_quarter_hop(self):
        w = hann_window(256)
        s = shifted_square_sum(w, 64)
        np.testing.assert_allclose(s, s[0], rtol=1e-13)
        assert s[0] == pytest.approx(0.375 * 256 / 64)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            hann_window(1)


class TestDerivativeWindow:
    def test_starts_at_zero(self):
        assert derivative_window(64)[0] == 0.0

    def test_antisymmetry(self):
        wp = derivative_window(128)
        l = np.arange(1, 128)
        np.testing.assert_allclose(wp[l], -wp[128 - l], atol=1e-15)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            derivative_window(1)


class TestCanonicalTightWindow:
    def test_proportional_for_constant_sum(self):
        # Constant shifted sum: normalization is a single scalar.
        w = hann_window(256)
        wt = canonical_tight_window(w, 64)
        c = shifted_square_sum(w, 64)[0]
        np.testing.assert_allclose(wt, w / np.sqrt(256 * c), atol=1e-15)

    def test_rejects_zero_sum(self):
        w = np.zeros(16)
        w[0] = 1.0  # residues 1..7 of hop 8 all zero
        with pytest.raises(ValueError, match="incompatible"):
            canonical_tight_window(w, 8)

    def test_parseval_random_signals(self):
        cfg = StftConfig(window_len=4096, hop=1024)
        wt = canonical_tight_window(hann_window(4096), 1024)
        rng = np.random.default_rng(1)
        for n in (5000, 8192):
            x = SignalBuffer(rng.standard_normal(n), 16000.0)
            spec = stft(x, cfg, wt)
            assert np.linalg.norm(spec.data) == pytest.approx(
                np.linalg.norm(x.samples), rel=1e-12
            )

    def test_perfect_reconstruction_4096(self):
        cfg = StftConfig(window_len=4096, hop=1024)
        wt = canonical_tight_window(hann_window(4096), 1024)
        rng = np.random.default_rng(2)
        x = SignalBuffer(rng.standard_normal(10000), 16000.0)
        y = istft(stft(x, cfg, wt), wt)
        err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
        assert err < 1e-10

    def test_reconstruction_half_window_hop(self):
        # Non-constant shifted sum branch (hop = L/2).
        cfg = StftConfig(window_len=512, hop=256)
        wt = canonical_tight_window(hann_window(512), 256)
        rng = np.random.default_rng(3)
        x = SignalBuffer(rng.standard_normal(2000), 16000.0)
        y = istft(stft(x, cfg, wt), wt)
        assert np.linalg.norm(y.samples - x.samples) < 1e-10 * np.linalg.norm(x.samples)


class TestFraming:
    def test_cover_frame_count(self):
        cfg = StftConfig(window_len=256, hop=64)
        assert frame_count(256, cfg, "cover") == 4 + 3
        assert frame_count(257, cfg, "cover") == 5 + 3

    def test_valid_frame_count(self):
        cfg = StftConfig(window_len=256, hop=64)
        assert frame_count(256, cfg, "valid") == 1
        assert frame_count(512, cfg, "valid") == 5

    def test_valid_requires_full_window(self):
        cfg = StftConfig(window_len=256, hop=64)
        with pytest.raises(ValueError):
            frame_count(200, cfg, "valid")

    @pytest.mark.parametrize("framing", ["cover", "valid"])
    def test_patches_match_reference(self, framing):
        cfg = StftConfig(window_len=16, hop=4)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(45)
        np.testing.assert_array_equal(
            frame_signal(x, cfg, framing), reference_patches(x, cfg, framing)
        )


class TestStft:
    def test_impulse_first_frame(self):
        # Impulse at sample 0 with a window that is nonzero there: the first
        # valid-mode frame is w[0] in every bin.
        cfg = StftConfig(window_len=16, hop=4)
        w = np.full(16, 0.7)
        x = np.zeros(16)
        x[0] = 1.0
        spec = stft(x, cfg, w, framing="valid")
        np.testing.assert_allclose(spec.data[:, 0], np.full(16, 0.7), atol=1e-14)

    def test_on_grid_exponential_energy_confined(self):
        cfg = StftConfig(window_len=64, hop=16)
        x = np.exp(2j * np.pi * 5 * np.arange(256) / 64)
        spec = stft(x, cfg, np.ones(64), framing="valid")
        offgrid = np.delete(np.abs(spec.data), 5, axis=0)
        assert offgrid.max() <= 1e-10 * np.abs(spec.data[5]).max()

    @pytest.mark.parametrize("framing", ["cover", "valid"])
    def test_matrix_form_equivalence(self, framing):
        cfg = StftConfig(window_len=16, hop=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40)
        w = rng.uniform(0.2, 1.0, 16)
        spec = stft(x, cfg, w, framing=framing)
        dense = dense_stft_oracle(x, cfg, w, framing)
        np.testing.assert_allclose(spec.data, dense, atol=1e-12 * np.abs(dense).max())

    def test_rank_matches_patch_rank_full_rank_window(self):
        cfg = StftConfig(window_len=16, hop=8)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(80)
        w = rng.uniform(0.5, 1.5, 16)  # no zero taps
        spec = stft(x, cfg, w, framing="valid")
        patches = frame_signal(x, cfg, "valid")
        assert np.linalg.matrix_rank(spec.data) == np.linalg.matrix_rank(patches)

    def test_conjugate_symmetry_real_input(self):
        cfg = StftConfig(window_len=64, hop=16)
        rng = np.random.default_rng(7)
        x = SignalBuffer(rng.standard_normal(300), 16000.0)
        spec = stft(x, cfg, hann_window(64))
        mirror = (-np.arange(64)) % 64
        np.testing.assert_allclose(
            spec.data,
            np.conj(spec.data[mirror, :]),
            atol=1e-10 * np.abs(spec.data).max(),
        )

    def test_rank_one_on_grid_exponential(self):
        cfg = StftConfig(window_len=4096, hop=1024)
        x = np.exp(2j * np.pi * 25 * np.arange(3 * 4096) / 4096)
        spec = stft(x, cfg, hann_window(4096), framing="valid")
        s = np.linalg.svd(spec.data, compute_uv=False)
        assert s[1] <= 1e-9 * s[0]

    def test_rejects_empty_signal(self):
        cfg = StftConfig(window_len=16, hop=4)
        with pytest.raises(ValueError):
            stft(np.array([]), cfg, np.ones(16))

    def test_rejects_window_length_mismatch(self):
        cfg = StftConfig(window_len=16, hop=4)
        with pytest.raises(ValueError, match="window length"):
            stft(np.ones(32), cfg, np.ones(8))

    def test_one_sided_rejects_complex_signal(self):
        cfg = StftConfig(window_len=16, hop=4)
        x = np.exp(2j * np.pi * 3 * np.arange(32) / 16)
        with pytest.raises(ValueError, match="real signal"):
            stft(x, cfg, hann_window(16), one_sided=True)

    def test_signal_buffer_rate_carried(self):
        cfg = StftConfig(window_len=16, hop=4)
        spec = stft(SignalBuffer(np.ones(20), 44100.0), cfg, hann_window(16))
        assert spec.sample_rate_hz == 44100.0


class TestIstft:
    def test_zero_spectrogram_gives_zero_signal(self):
        cfg = StftConfig(window_len=16, hop=4)
        spec = stft(np.ones(20), cfg, hann_window(16))
        from dataclasses import replace

        zeroed = replace(spec, data=np.zeros_like(spec.data))
        out = istft(zeroed, hann_window(16))
        assert len(out) == 20
        assert np.all(out.samples == 0.0)

    def test_round_trip_preserves_length(self):
        cfg = StftConfig(window_len=256, hop=64)
        wt = canonical_tight_window(hann_window(256), 64)
        for n in (256, 300, 1000):
            x = SignalBuffer(np.sin(np.arange(n) * 0.1), 8000.0)
            out = istft(stft(x, cfg, wt), wt)
            assert len(out) == n

    def test_valid_mode_not_invertible(self):
        cfg = StftConfig(window_len=16, hop=4)
        spec = stft(np.ones(32), cfg, hann_window(16), framing="valid")
        with pytest.raises(ValueError, match="invertible"):
            istft(spec, hann_window(16))

    def test_rejects_wrong_window_length(self):
        cfg = StftConfig(window_len=16, hop=4)
        spec = stft(np.ones(32), cfg, hann_window(16))
        with pytest.raises(ValueError):
            istft(spec, np.ones(8))

    def test_inverts_one_sided_spectrogram(self):
        cfg = StftConfig(window_len=16, hop=4)
        wt = canonical_tight_window(hann_window(16), 4)
        x = np.random.default_rng(8).standard_normal(32)
        spec = stft(x, cfg, wt, one_sided=True)
        assert spec.n_bins == 9
        np.testing.assert_allclose(istft(spec, wt).samples, x, atol=1e-12)


def reference_overlap_add(frames, hop):
    """Per-frame loop: frame tau added at offset hop * tau, in time order."""
    n_frames, L = frames.shape
    buf = np.zeros(hop * (n_frames - 1) + L, dtype=frames.dtype)
    for tau in range(n_frames):
        buf[hop * tau : hop * tau + L] += frames[tau]
    return buf


class TestOverlapAdd:
    @pytest.mark.parametrize("div", [2, 4, 8])
    @pytest.mark.parametrize("n_frames", [1, 2, 7, 40])
    def test_matches_frame_loop_exactly(self, div, n_frames):
        frames = np.random.default_rng(div * n_frames).standard_normal((n_frames, 64))
        out = overlap_add(frames, 64 // div)
        np.testing.assert_array_equal(out, reference_overlap_add(frames, 64 // div))

    def test_adjoint_of_framing(self):
        cfg = StftConfig(window_len=32, hop=8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        patches = frame_signal(x, cfg)
        z = rng.standard_normal(patches.shape)
        left = cfg.window_len - cfg.hop
        back = overlap_add(z, cfg.hop)[left : left + x.shape[0]]
        assert np.vdot(patches, z) == pytest.approx(np.vdot(x, back), rel=1e-12)


@st.composite
def real_transform_case(draw):
    """A real signal and a geometry with even or odd L down to 2, either framing."""
    L = draw(st.integers(2, 40))
    hop = draw(st.sampled_from([d for d in range(1, L // 2 + 1) if L % d == 0]))
    framing = draw(st.sampled_from(["cover", "valid"]))
    n = draw(st.integers(L if framing == "valid" else 1, 3 * L + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return StftConfig(window_len=L, hop=hop), framing, rng.standard_normal(n), rng


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestOneSided:
    @PROPERTY
    @given(real_transform_case())
    def test_rows_match_two_sided(self, case):
        cfg, framing, x, rng = case
        w = rng.uniform(0.2, 1.0, cfg.window_len)
        half = stft(x, cfg, w, framing, one_sided=True)
        full = stft(x, cfg, w, framing).data[: cfg.window_len // 2 + 1]
        assert half.data.shape == full.shape
        assert half.data.flags.c_contiguous
        assert np.abs(half.data - full).max() <= 1e-12 * np.abs(full).max()
        assert (half.config, half.origin_len, half.framing) == (cfg, len(x), framing)

    @PROPERTY
    @given(real_transform_case())
    def test_tight_round_trip(self, case):
        cfg, _, x, _ = case
        wt = canonical_tight_window(hann_window(cfg.window_len), cfg.hop)
        back = istft(stft(x, cfg, wt, one_sided=True), wt).samples
        two_sided = istft(stft(x, cfg, wt), wt).samples
        scale = np.linalg.norm(x)
        assert np.linalg.norm(back - x) <= 1e-12 * scale
        assert np.linalg.norm(back - two_sided) <= 1e-12 * scale


class TestHelpers:
    def test_spectrogram_row_counts(self):
        cfg = StftConfig(window_len=8, hop=4)
        for rows in (8, 5):
            assert Spectrogram(np.zeros((rows, 3)), cfg, origin_len=8).n_bins == rows
        with pytest.raises(ValueError, match="row count"):
            Spectrogram(np.zeros((4, 3)), cfg, origin_len=8)

    def test_analysis_window_kinds(self):
        cfg = StftConfig(window_len=256, hop=64, window_kind="hann_tight")
        np.testing.assert_allclose(
            analysis_window(cfg), canonical_tight_window(hann_window(256), 64)
        )
        cfg2 = StftConfig(window_len=256, hop=64)
        np.testing.assert_allclose(analysis_window(cfg2), hann_window(256))


def test_frames_is_the_only_module_calling_np_fft():
    modules = sorted(
        path.name for path in Path(ipclr.__file__).parent.glob("*.py")
        if re.search(r"\bnp\.fft\b|\bnumpy\.fft\b|from numpy import fft", path.read_text())
    )
    assert modules == ["frames.py"]


def test_estimate_if_from_is_the_only_caller_of_derivative_window():
    """The Hann/derivative-window pair is built in one place."""
    calls = {
        path.name: path.read_text().count("derivative_window(")
        for path in Path(ipclr.__file__).parent.glob("*.py") if path.name != "frames.py"
    }
    assert {name: n for name, n in calls.items() if n} == {"ifreq.py": 1}
    assert "derivative_window(" in inspect.getsource(estimate_if_from)
