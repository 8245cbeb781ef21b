import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipclr.denoise import (
    AdmmParams,
    _RealAnalysis,
    denoise,
    estimate_if_for,
    ipclr_objective,
    lambda_sweep,
)
from ipclr.experiments import default_signal
from ipclr.frames import (
    StftConfig,
    analysis_window,
    derivative_window,
    hann_window,
    one_sided,
    stft,
)
from ipclr.ifreq import IfMap, estimate_if
from ipclr.ipc import build_corrector, ipc_istft, ipc_stft
from ipclr.lowrank import nuclear_norm
from ipclr.signals import SignalBuffer, SinusoidSpec, add_noise_at_snr, snr_db, synth_sinusoid_sum

CFG = StftConfig(window_len=1024, hop=256, window_kind="hann_tight")
RATE = 16000.0


def harmonic_signal(duration=0.5):
    specs = [SinusoidSpec(10.0 - h, (h + 1) * 400.0) for h in range(3)]
    return synth_sinusoid_sum(specs, duration, RATE)


def two_sided_if_map(x, config):
    """The Hann-pair IF map over all L rows, from the two-sided spectrograms of ``x``."""
    s_w = stft(x, config, hann_window(config.window_len))
    s_wp = stft(x, config, derivative_window(config.window_len))
    return estimate_if(s_w, s_wp)


@pytest.fixture(scope="module")
def noisy_pair():
    clean = harmonic_signal()
    return clean, add_noise_at_snr(clean, 10.0, seed=0)


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdmmParams(lam=0.0)
        with pytest.raises(ValueError):
            AdmmParams(lam=1.0, rho=0.0)
        with pytest.raises(ValueError):
            AdmmParams(lam=1.0, max_iter=0)
        with pytest.raises(ValueError):
            AdmmParams(lam=1.0, tol=-1.0)

    def test_defaults(self):
        p = AdmmParams(lam=2.0)
        assert p.rho == 1.0 and p.max_iter == 100 and p.tol == 0.0


class TestObjective:
    def test_zero_lambda_limit(self):
        clean = harmonic_signal(0.25)
        noisy = add_noise_at_snr(clean, 5.0, seed=1)
        corr = build_corrector(estimate_if_for(noisy, CFG))
        tiny = ipclr_objective(clean, noisy, 1e-300, corr, CFG)
        assert tiny == pytest.approx(
            0.5 * float(np.sum((clean.samples - noisy.samples) ** 2)), rel=1e-12
        )

    def test_zero_signals(self):
        zero = SignalBuffer(np.zeros(2048), RATE)
        corr = build_corrector(
            IfMap(np.zeros(one_sided(stft(zero, CFG, analysis_window(CFG))).data.shape), CFG)
        )
        assert ipclr_objective(zero, zero, 3.0, corr, CFG) == 0.0

    def test_matches_nuclear_norm_oracle(self):
        sig = harmonic_signal(0.25)
        corr = build_corrector(estimate_if_for(sig, CFG))
        lam = 2.5
        obj = ipclr_objective(sig, sig, lam, corr, CFG)
        spec = stft(sig, CFG, analysis_window(CFG))
        expected = lam * nuclear_norm(build_corrector(two_sided_if_map(sig, CFG)) * spec.data)
        assert obj == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        a = SignalBuffer(np.ones(100), RATE)
        b = SignalBuffer(np.ones(101), RATE)
        corr = build_corrector(IfMap(np.zeros((4, 4)), CFG))
        with pytest.raises(ValueError):
            ipclr_objective(a, b, 1.0, corr, CFG)


class TestOperatorIdentity:
    def test_adjoint_of_forward_is_identity(self):
        # A^H A = I for the tight window and unimodular correction; this
        # validates the closed-form (1 + rho) denominator of the x-update.
        rng = np.random.default_rng(2)
        x = SignalBuffer(rng.standard_normal(3000), RATE)
        w = analysis_window(CFG)
        spec = stft(x, CFG, w)
        corr = build_corrector(
            IfMap(rng.uniform(0, 1024, spec.data.shape), CFG)
        )
        back = ipc_istft(ipc_stft(spec, corr), corr, w)
        assert np.linalg.norm(back.samples - x.samples) <= 1e-10 * np.linalg.norm(x.samples)


@st.composite
def real_operator_case(draw):
    """A real signal of random length, its operator A (hop L/2, L/4 or L/8)."""
    cfg = StftConfig(window_len=64, hop=64 // draw(st.sampled_from([2, 4, 8])),
                     window_kind="hann_tight")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(draw(st.integers(1, 400)))
    op = _RealAnalysis(cfg, build_corrector(estimate_if_for(SignalBuffer(x, RATE), cfg)))
    return cfg, op, x, rng


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestRealOperator:
    @PROPERTY
    @given(real_operator_case())
    def test_adjointness(self, case):
        _, op, x, rng = case
        ax = op.forward(x)
        z = rng.standard_normal(ax.shape)
        lhs, rhs = np.vdot(ax, z), np.vdot(x, op.adjoint(z, len(x)))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(z)

    @PROPERTY
    @given(real_operator_case())
    def test_tight_frame_inverse(self, case):
        _, op, x, _ = case
        back = op.adjoint(op.forward(x), len(x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    @PROPERTY
    @given(real_operator_case())
    def test_singular_values_match_two_sided(self, case):
        cfg, op, x, _ = case
        ax = op.forward(x)
        assert ax.dtype == np.float64
        E = build_corrector(two_sided_if_map(x, cfg))
        two_sided = E * stft(x, cfg, analysis_window(cfg)).data
        assert ax.shape == two_sided.shape
        s_real = np.linalg.svd(ax, compute_uv=False)
        s_two = np.linalg.svd(two_sided, compute_uv=False)
        assert np.abs(s_real - s_two).max() <= 1e-10 * s_two[0]


class TestDenoise:
    def test_lambda_to_zero_returns_observation(self, noisy_pair):
        _, noisy = noisy_pair
        x, _ = denoise(noisy, AdmmParams(lam=1e-12, max_iter=20), CFG)
        dev = np.linalg.norm(x.samples - noisy.samples) / np.linalg.norm(noisy.samples)
        assert dev < 1e-6

    def test_output_energy_monotone_in_lambda(self, noisy_pair):
        _, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        corr = build_corrector(two_sided_if_map(noisy, CFG))
        energies = []
        norms = []
        for lam in (1e-3, 1.0, 30.0, 300.0):
            x, _ = denoise(noisy, AdmmParams(lam=lam, max_iter=30), CFG, if_map=if_map)
            energies.append(float(np.sum(x.samples**2)))
            w = analysis_window(CFG)
            norms.append(nuclear_norm(corr * stft(x, CFG, w).data))
        input_energy = float(np.sum(noisy.samples**2))
        assert all(e <= input_energy * (1 + 1e-9) for e in energies)
        # Heavier regularization never increases the nuclear norm of Ax.
        assert all(b <= a * (1 + 1e-6) for a, b in zip(norms, norms[1:]))

    def test_residual_trend_after_burn_in(self, noisy_pair):
        _, noisy = noisy_pair
        _, state = denoise(noisy, AdmmParams(lam=5.0, max_iter=60), CFG)
        res = np.array(state.residual_history)
        assert np.all(res[11:] <= res[10:-1] * 1.01)

    def test_objective_never_worse_than_observation(self, noisy_pair):
        _, noisy = noisy_pair
        lam = 10.0
        if_map = estimate_if_for(noisy, CFG)
        x, state = denoise(noisy, AdmmParams(lam=lam, max_iter=50), CFG, if_map=if_map)
        corr = build_corrector(if_map)
        assert state.objective_history[-1] <= ipclr_objective(noisy, noisy, lam, corr, CFG)

    @pytest.mark.parametrize("lam", [1e-12, 3.0, 100.0])
    def test_final_objective_is_ipclr_objective(self, lam):
        # The solver records the objective through the same forward map as
        # ipclr_objective, so the two agree bit for bit on the last iterate.
        cfg = StftConfig(window_len=512, hop=128, window_kind="hann_tight")
        noisy = add_noise_at_snr(harmonic_signal(0.5), 10.0, seed=0)
        if_map = estimate_if_for(noisy, cfg)
        x, state = denoise(noisy, AdmmParams(lam=lam, max_iter=10), cfg, if_map=if_map)
        objective = ipclr_objective(x, noisy, lam, build_corrector(if_map), cfg)
        assert objective == state.objective_history[-1]

    def test_histories_finite_nonnegative(self, noisy_pair):
        _, noisy = noisy_pair
        _, state = denoise(noisy, AdmmParams(lam=2.0, max_iter=15), CFG)
        obj = np.array(state.objective_history)
        res = np.array(state.residual_history)
        assert obj.shape == (15,) and res.shape == (15,)
        assert np.all(np.isfinite(obj)) and np.all(obj >= 0)
        assert np.all(np.isfinite(res)) and np.all(res >= 0)

    def test_deterministic_bit_identical(self, noisy_pair):
        _, noisy = noisy_pair
        p = AdmmParams(lam=3.0, max_iter=12)
        x1, s1 = denoise(noisy, p, CFG)
        x2, s2 = denoise(noisy, p, CFG)
        assert np.array_equal(x1.samples, x2.samples)
        assert s1.objective_history == s2.objective_history
        assert np.array_equal(s1.Z, s2.Z) and np.array_equal(s1.U, s2.U)

    def test_output_real_and_finite(self, noisy_pair):
        _, noisy = noisy_pair
        x, state = denoise(noisy, AdmmParams(lam=50.0, max_iter=20), CFG)
        assert x.samples.dtype == np.float64
        assert np.all(np.isfinite(x.samples))
        assert state.Z.shape == state.U.shape

    def test_state_holds_last_iterates(self, noisy_pair):
        _, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        x, state = denoise(noisy, AdmmParams(lam=5.0, max_iter=8), CFG, if_map=if_map)
        ax = _RealAnalysis(CFG, build_corrector(if_map)).forward(x.samples)
        residual = np.linalg.norm(ax - state.Z)
        assert residual == pytest.approx(state.residual_history[-1], rel=1e-12)
        np.testing.assert_allclose(state.U + state.Z, state.Y, rtol=0, atol=1e-12 * np.abs(state.Y).max())

    def test_tol_stops_early(self, noisy_pair):
        _, noisy = noisy_pair
        _, state = denoise(noisy, AdmmParams(lam=1e-9, max_iter=50, tol=1e-8), CFG)
        assert len(state.residual_history) < 50

    def test_rejects_non_tight_window(self, noisy_pair):
        _, noisy = noisy_pair
        plain_cfg = StftConfig(window_len=1024, hop=256, window_kind="hann")
        with pytest.raises(ValueError, match="tight"):
            denoise(noisy, AdmmParams(lam=1.0), plain_cfg)

    def test_rejects_empty_observation(self):
        empty = SignalBuffer(np.zeros(0), RATE)
        with pytest.raises(ValueError):
            denoise(empty, AdmmParams(lam=1.0), CFG)

    def test_rejects_mismatched_if_map(self, noisy_pair):
        _, noisy = noisy_pair
        wrong = IfMap(np.zeros((1024, 3)), CFG)
        with pytest.raises(ValueError, match="IF map shape"):
            denoise(noisy, AdmmParams(lam=1.0), CFG, if_map=wrong)

    def test_rejects_two_sided_if_map(self, noisy_pair):
        _, noisy = noisy_pair
        two_sided = two_sided_if_map(noisy, CFG)
        assert two_sided.values.shape[0] == 1024
        expected = rf"\(513, {two_sided.values.shape[1]}\)"
        with pytest.raises(ValueError, match=expected):
            denoise(noisy, AdmmParams(lam=1.0), CFG, if_map=two_sided)

    def test_rejects_if_map_of_complex_signal(self, noisy_pair):
        # Bin 0 and bin L/2 of a real signal's E are real; without that the
        # one-sided operator is not tight and the x-update would be wrong.
        _, noisy = noisy_pair
        shape = estimate_if_for(noisy, CFG).values.shape
        skewed = IfMap(np.random.default_rng(3).uniform(0, 1024, shape), CFG)
        with pytest.raises(ValueError, match="real signal"):
            denoise(noisy, AdmmParams(lam=1.0), CFG, if_map=skewed)

    def test_rejects_mismatched_clean_reference(self, noisy_pair):
        _, noisy = noisy_pair
        short = SignalBuffer(np.ones(100), RATE)
        with pytest.raises(ValueError, match="length"):
            lambda_sweep(noisy, short, [1.0], AdmmParams(lam=1.0), CFG)

    def test_improves_snr_with_tuned_lambda(self, noisy_pair):
        clean, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        rows = lambda_sweep(
            noisy, clean, [3.0, 10.0, 30.0, 100.0], AdmmParams(lam=1.0, max_iter=60),
            CFG, if_map=if_map,
        )
        best = max(r.snr_db for r in rows)
        assert best > snr_db(clean, noisy) + 3.0


class TestHannPairAtHalfHop:
    """At hop L/2 the tight window is not a multiple of Hann; the Hann-pair E still works."""

    def test_corrected_top_singular_value_dominates(self):
        # Measured: 0.296 uncorrected, 0.976 corrected (0.988 at hop L/4).
        cfg = StftConfig(window_len=4096, hop=2048, window_kind="hann_tight")
        clean = default_signal(duration_s=2.56)

        def top_share(E):
            s = np.linalg.svd(_RealAnalysis(cfg, E).forward(clean.samples), compute_uv=False)
            return s[0] ** 2 / np.sum(s**2)

        E = build_corrector(estimate_if_for(clean, cfg))
        assert top_share(np.ones_like(E)) < 0.5
        assert top_share(E) >= 0.95


class TestLambdaSweep:
    def test_single_value_matches_direct_call(self, noisy_pair):
        clean, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        p = AdmmParams(lam=7.0, max_iter=10)
        rows = lambda_sweep(noisy, clean, [7.0], p, CFG, if_map=if_map)
        x, state = denoise(noisy, p, CFG, if_map=if_map)
        assert len(rows) == 1
        assert rows[0].lam == 7.0
        assert rows[0].snr_db == snr_db(clean, x)
        assert rows[0].objective == state.objective_history[-1]

    def test_rows_sorted_ascending(self, noisy_pair):
        clean, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        rows = lambda_sweep(
            noisy, clean, [10.0, 0.1, 1.0], AdmmParams(lam=1.0, max_iter=5),
            CFG, if_map=if_map,
        )
        assert [r.lam for r in rows] == [0.1, 1.0, 10.0]

    def test_rejects_empty_or_nonpositive_grid(self, noisy_pair):
        clean, noisy = noisy_pair
        with pytest.raises(ValueError):
            lambda_sweep(noisy, clean, [], AdmmParams(lam=1.0), CFG)
        with pytest.raises(ValueError):
            lambda_sweep(noisy, clean, [1.0, -2.0], AdmmParams(lam=1.0), CFG)

    def test_snr_curve_unimodal_over_log_grid(self, noisy_pair):
        clean, noisy = noisy_pair
        if_map = estimate_if_for(noisy, CFG)
        grid = list(np.geomspace(1e-2, 1e3, 11))
        rows = lambda_sweep(
            noisy, clean, grid, AdmmParams(lam=1.0, max_iter=60), CFG, if_map=if_map
        )
        snrs = np.array([r.snr_db for r in rows])
        diffs = np.diff(snrs)
        # Rises to a single peak then falls; 0.05 dB slack for flat stretches.
        signs = np.sign(np.where(np.abs(diffs) < 0.05, 0.0, diffs))
        moves = signs[signs != 0]
        assert len(moves) > 0
        flips = np.count_nonzero(np.diff(moves) != 0)
        assert flips <= 1 and moves[0] > 0
