import numpy as np
import pytest

from ipclr.experiments import (
    REPRESENTATIONS,
    analysis_config,
    default_signal,
    estimate_if_valid,
    observe,
    represent,
    valid_spectrogram,
)
from ipclr.frames import StftConfig, hann_window, stft
from ipclr.ipc import build_corrector
from ipclr import lowrank
from ipclr.lowrank import nuclear_norm, rank_k_approx, rank_one_approx, svd, svt
from ipclr.signals import SignalBuffer


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram_oracle_singular_values(m):
    """Independent route: eigenvalues of M^H M."""
    eigvals = np.linalg.eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(eigvals[::-1], 0.0, None))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 1.0])

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = random_complex(rng, 5)
        v = random_complex(rng, 4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = svd(np.outer(u, v.conj()))
        assert f.singular_values[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(f.singular_values[1:] < 1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, (8, 5))
        f = svd(m)
        oracle = gram_oracle_singular_values(m)
        np.testing.assert_allclose(f.singular_values, oracle, rtol=1e-10)

    def test_factor_invariants(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, (10, 6))
        f = svd(m)
        s = f.singular_values
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
        np.testing.assert_allclose(f.U.conj().T @ f.U, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(f.V.conj().T @ f.V, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(f.reconstruct(), m, atol=1e-8 * s[0])

    @pytest.mark.parametrize("k", [0, 7])
    def test_reconstruct_rejects_k_outside_rank(self, k):
        f = svd(random_complex(np.random.default_rng(4), (10, 6)))
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            f.reconstruct(k)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (7, 7))
        f1, f2 = svd(m), svd(m.copy())
        np.testing.assert_array_equal(f1.U, f2.U)
        for i in range(7):
            j = int(np.argmax(np.abs(f1.U[:, i])))
            pivot = f1.U[j, i]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRankKApprox:
    def test_full_rank_returns_input(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, (6, 4))
        np.testing.assert_allclose(rank_k_approx(m, 4), m, atol=1e-8 * np.abs(m).max())

    def test_rank_one_exact(self):
        rng = np.random.default_rng(5)
        m = np.outer(random_complex(rng, 6), random_complex(rng, 3))
        np.testing.assert_allclose(rank_k_approx(m, 1), m, atol=1e-8 * np.abs(m).max())

    def test_k_out_of_range(self):
        m = np.eye(3)
        with pytest.raises(ValueError):
            rank_k_approx(m, 0)
        with pytest.raises(ValueError):
            rank_k_approx(m, 4)

    def test_beats_random_rank_k_candidates(self):
        rng = np.random.default_rng(6)
        m = random_complex(rng, (8, 5))
        best = np.linalg.norm(m - rank_k_approx(m, 2))
        for _ in range(100):
            cand = random_complex(rng, (8, 2)) @ random_complex(rng, (2, 5))
            # Give each candidate its optimal scale so the bar is not a strawman.
            alpha = np.vdot(cand, m) / max(np.linalg.norm(cand) ** 2, 1e-300)
            assert np.linalg.norm(m - alpha * cand) >= best - 1e-12


class TestNuclearNorm:
    def test_zero_matrix(self):
        assert nuclear_norm(np.zeros((3, 5))) == 0.0

    def test_unitary_is_dimension(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(random_complex(rng, (5, 5)))
        assert nuclear_norm(q) == pytest.approx(5.0, rel=1e-12)

    def test_diag_3_1(self):
        assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0, rel=1e-12)


class TestSvt:
    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, (5, 5))
        np.testing.assert_allclose(svt(m, 0.0), m, atol=1e-8 * np.abs(m).max())

    def test_threshold_above_sigma1_zeroes(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, (5, 4))
        s1 = np.linalg.svd(m, compute_uv=False)[0]
        np.testing.assert_allclose(svt(m, s1 + 1.0), np.zeros((5, 4)), atol=1e-12)

    def test_diag_hand_case(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.5)

    @pytest.mark.parametrize("t, kept", [(0.5, 3), (1.5, 2), (2.5, 1), (3.5, 0)])
    def test_kept_rank_counts_values_above_threshold(self, t, kept):
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q1 * [3.0, 2.0, 1.0]) @ q2.T
        z, count = lowrank._svt_kept(m, t)
        assert count == kept
        assert np.array_equal(z, svt(m, t))

    def test_prox_objective_optimality(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_complex(rng, (6, 4))
            t = rng.uniform(0.1, 2.0)
            z_star = svt(m, t)
            f_star = 0.5 * np.linalg.norm(z_star - m) ** 2 + t * nuclear_norm(z_star)
            for _ in range(20):
                z = z_star + 0.3 * random_complex(rng, (6, 4))
                f = 0.5 * np.linalg.norm(z - m) ** 2 + t * nuclear_norm(z)
                assert f_star <= f + 1e-10


def svd_reference_svt(m, t):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - t, 0.0)) @ vh


def gram_cases():
    """(name, matrix): real/complex, tall/wide, rank-deficient, denoiser shape."""
    rng = np.random.default_rng(12)
    low = random_complex(rng, (200, 5)) @ random_complex(rng, (5, 30))
    return [
        ("real-tall", rng.standard_normal((60, 12))),
        ("real-wide", rng.standard_normal((9, 70))),
        ("complex-tall", random_complex(rng, (50, 20))),
        ("complex-wide", random_complex(rng, (7, 40))),
        ("rank5-of-30", low),
        ("rank5-of-30-wide", low.T),
        ("denoiser-4096x43", rng.standard_normal((4096, 43))),
    ]


def gram_delta(m, s_max):
    """The docstring's Gram eigenvalue error n * eps * sigma_max**2."""
    return min(m.shape) * np.finfo(np.float64).eps * s_max**2


class TestGramRoute:
    """svt and nuclear_norm against the LAPACK SVD, within the docstring bounds."""

    @pytest.mark.parametrize("name, m", gram_cases())
    @pytest.mark.parametrize("ratio", [1e-4, 1e-2, 0.3, 0.9, 1.5])
    def test_svt_matches_svd(self, name, m, ratio):
        s = np.linalg.svd(m, compute_uv=False)
        t = ratio * s[0]
        n_eps = min(m.shape) * np.finfo(np.float64).eps
        bound = gram_delta(m, s[0]) / t + n_eps * s[0]
        err = np.linalg.norm(svt(m, t) - svd_reference_svt(m, t), 2)
        assert err <= bound, (name, ratio, err / bound)
        assert np.iscomplexobj(svt(m, t)) == np.iscomplexobj(m)

    @pytest.mark.parametrize("name, m", gram_cases())
    def test_nuclear_norm_matches_svd(self, name, m):
        s = np.linalg.svd(m, compute_uv=False)
        delta = gram_delta(m, s[0])
        per_value = np.minimum(np.sqrt(delta), delta / np.maximum(s, 1e-300))
        bound = per_value.sum() + min(m.shape) * np.finfo(np.float64).eps * s.sum()
        assert abs(nuclear_norm(m) - s.sum()) <= bound, name


def gap_matrix(rng, shape, is_complex, ratio):
    """Random matrix with sigma_1 = 1, sigma_2 = ratio, then falling to ratio/1000."""
    k = min(shape)
    draw = random_complex if is_complex else (lambda r, sh: r.standard_normal(sh))
    q1 = np.linalg.qr(draw(rng, (shape[0], k)))[0]
    q2 = np.linalg.qr(draw(rng, (shape[1], k)))[0]
    s = ratio * np.geomspace(1.0, 1e-3, k)
    s[0] = 1.0
    return (q1 * s) @ q2.conj().T


def flat_tail_matrix(rng, shape, is_complex, ratio):
    """sigma_1 = 1, then every other singular value within 1% below sigma_2 = ratio."""
    m = gap_matrix(rng, shape, is_complex, ratio)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    s[1:] = ratio * np.linspace(1.0, 0.99, s.shape[0] - 1)
    return (u * s) @ vh


def rank_one_bound(m):
    """The docstring's bound times sigma_1: the Gram term plus product rounding."""
    s = np.linalg.svd(m, compute_uv=False)
    n_eps = min(m.shape) * np.finfo(np.float64).eps
    return n_eps * s[0] * (1.0 + s[0] ** 2 / (s[0] ** 2 - s[1] ** 2))


def table1_matrix(representation, div, noisy):
    """The matrix a Table 1 cell truncates, at window 512 and 0.5 s (n = 30..118)."""
    clean = default_signal(3, 0.5)
    config = analysis_config(512, div)
    x_obs, _, _ = observe(clean, valid_spectrogram(clean, config), 10.0 if noisy else None, 0,
                          "tf")
    return represent(x_obs, representation, build_corrector(estimate_if_valid(clean, config)))[0]


class TestRankOneApprox:
    """rank_one_approx against svd(m).reconstruct(1), within the docstring bound."""

    @pytest.mark.parametrize("shape", [(300, 40), (40, 300), (2049, 79)])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 0.99, 0.999])
    def test_matches_svd(self, shape, is_complex, ratio):
        m = gap_matrix(np.random.default_rng(13), shape, is_complex, ratio)
        approx = rank_one_approx(m)
        err = np.linalg.norm(approx - svd(m).reconstruct(1), 2)
        assert err <= rank_one_bound(m), err / rank_one_bound(m)
        assert np.iscomplexobj(approx) == is_complex

    @pytest.mark.parametrize("shape", [(300, 40), (40, 300)])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("ratio", [0.9, 0.999])
    def test_matches_svd_on_flat_tail(self, shape, is_complex, ratio):
        m = flat_tail_matrix(np.random.default_rng(14), shape, is_complex, ratio)
        err = np.linalg.norm(rank_one_approx(m) - svd(m).reconstruct(1), 2)
        assert err <= rank_one_bound(m), err / rank_one_bound(m)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("div", [2, 4, 8])
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_matches_svd_on_table1_matrices(self, representation, div, noisy, monkeypatch):
        m = table1_matrix(representation, div, noisy)
        expected = svd(m).reconstruct(1)
        eigh = np.linalg.eigh

        def block_sized_eigh(a, *args, **kwargs):
            assert a.shape[-1] <= lowrank._BLOCK, a.shape
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", block_sized_eigh)
        err = np.linalg.norm(rank_one_approx(m) - expected, 2)
        assert err <= rank_one_bound(m), err / rank_one_bound(m)

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_repeats_bit_for_bit(self, representation):
        m = table1_matrix(representation, 4, True)
        np.testing.assert_array_equal(rank_one_approx(m), rank_one_approx(m.copy()))

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
    def test_zero_matrix(self, shape):
        np.testing.assert_array_equal(rank_one_approx(np.zeros(shape)), np.zeros(shape))
        zero = np.zeros(shape, dtype=complex)
        np.testing.assert_array_equal(rank_one_approx(zero), zero)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_like_svd(self, bad):
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        for fn in (rank_one_approx, svd, lambda a: rank_k_approx(a, 1)):
            with pytest.raises(ValueError, match="NaN/Inf"):
                fn(m)


class TestSinusoidRank:
    def test_rank_matches_component_count(self):
        # Three separated on-grid complex sinusoids: truncation at k=3 is
        # essentially exact, k=1 only keeps the strongest component.
        cfg = StftConfig(window_len=256, hop=64)
        l = np.arange(6 * 256)
        x = sum(A * np.exp(2j * np.pi * f * l / 256)
                for A, f in [(3.0, 20), (2.0, 50), (1.0, 90)])
        spec = stft(x, cfg, hann_window(256), framing="valid").data
        from ipclr.signals import snr_db

        assert snr_db(spec, rank_k_approx(spec, 3)) > 50.0
        assert snr_db(spec, rank_k_approx(spec, 1)) < 10.0


class TestNoiseContrast:
    def test_amplitude_low_rank_complex_not(self):
        # Spectrogram of pure white noise: rank-1 keeps most of the
        # amplitude energy but almost none of the complex energy.
        rng = np.random.default_rng(11)
        cfg = StftConfig(window_len=4096, hop=1024)
        n = 4096 + 63 * 1024  # 64 valid frames
        noise = SignalBuffer(rng.standard_normal(n), 16000.0)
        spec = stft(noise, cfg, hann_window(4096), framing="valid")
        assert spec.data.shape[1] >= 64
        s_complex = np.linalg.svd(spec.data, compute_uv=False)
        s_amp = np.linalg.svd(np.abs(spec.data), compute_uv=False)
        complex_fraction = s_complex[0] ** 2 / np.sum(s_complex**2)
        amp_fraction = s_amp[0] ** 2 / np.sum(s_amp**2)
        assert amp_fraction >= 0.5
        assert complex_fraction <= 0.05
