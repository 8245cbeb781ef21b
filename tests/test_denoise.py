import importlib
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipclr.denoise import (
    AdmmParams,
    RealAnalysis,
    denoise,
    estimate_if_for,
    ipclr_objective,
    lambda_sweep,
)
from ipclr.experiments import default_signal
from ipclr.frames import (
    Spectrogram,
    StftConfig,
    analysis_window,
    derivative_window,
    frame_count,
    hann_window,
    istft,
    stft,
)
from ipclr.ifreq import IfMap, estimate_if
from ipclr.ipc import build_corrector, ipc_istft, ipc_stft
from ipclr.lowrank import nuclear_norm, rank_k_approx, svt
from ipclr.signals import SignalBuffer, SinusoidSpec, add_noise_at_snr, snr_db, synth_sinusoid_sum

CFG = StftConfig(window_len=1024, hop=256, window_kind="hann_tight")
# The package re-exports the function ``denoise``, which hides the module's name.
DENOISE_MODULE = importlib.import_module("ipclr.denoise")
RATE = 16000.0


def harmonic_signal(duration=0.5):
    specs = [SinusoidSpec(10.0 - h, (h + 1) * 400.0) for h in range(3)]
    return synth_sinusoid_sum(specs, duration, RATE)


def two_sided_if_map(x, config):
    """The Hann-pair IF map over all L rows, from the two-sided spectrograms of ``x``."""
    s_w = stft(x, config, hann_window(config.window_len))
    s_wp = stft(x, config, derivative_window(config.window_len))
    return estimate_if(s_w, s_wp)


def two_sided_rank_k(x, config, e_half, k):
    """istft(conj(E2) * rank_k(E2 * stft(x))) on the two-sided matrix.

    E2 extends the one-sided ``e_half`` conjugate-symmetrically: row L-j is
    the conjugate of row j.
    """
    L = config.window_len
    e2 = np.concatenate([e_half, np.conj(e_half[1 : 1 + (L - 1) // 2][::-1])])
    w = analysis_window(config)
    spec = stft(x, config, w)
    z = np.conj(e2) * rank_k_approx(e2 * spec.data, k)
    return istft(replace(spec, data=z), w).samples


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
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be non-negative and finite"):
                AdmmParams(lam=1.0, tol=bad)
        for bad in (2.5, True, 10.0):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                AdmmParams(lam=1.0, max_iter=bad)
        assert AdmmParams(lam=1.0, max_iter=np.int64(3)).max_iter == 3
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                AdmmParams(lam=bad)
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                AdmmParams(lam=1.0, rho=bad)

    def test_defaults(self):
        p = AdmmParams(lam=2.0)
        assert p.rho == 1.0 and p.max_iter == 100 and p.tol == 1e-4


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
            IfMap(np.zeros(stft(zero, CFG, analysis_window(CFG), one_sided=True).data.shape), CFG)
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
    op = RealAnalysis(cfg, build_corrector(estimate_if_for(SignalBuffer(x, RATE), cfg)))
    return cfg, op, x, rng


@st.composite
def rank_k_case(draw):
    """A real signal, an even or odd window, a random unimodular E and a rank k.

    E is real (+-1) in row 0 and, for even L, in row L/2, as the operator needs.
    """
    L, div = draw(st.sampled_from([(64, 2), (64, 4), (64, 8), (63, 3), (63, 7), (65, 5)]))
    cfg = StftConfig(window_len=L, hop=L // div, window_kind="hann_tight")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(draw(st.integers(1, 400)))
    shape = (L // 2 + 1, frame_count(len(x), cfg, "cover"))
    e = np.exp(2j * np.pi * rng.uniform(size=shape))
    real_rows = [0, L // 2] if L % 2 == 0 else [0]
    e[real_rows] = rng.choice([-1.0, 1.0], size=(len(real_rows), shape[1]))
    k = min(draw(st.integers(1, 3)), shape[1])
    return cfg, x, e, k


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
        assert ax.shape == two_sided.shape[::-1]
        s_real = np.linalg.svd(ax, compute_uv=False)
        s_two = np.linalg.svd(two_sided, compute_uv=False)
        assert np.abs(s_real - s_two).max() <= 1e-10 * s_two[0]

    @PROPERTY
    @given(rank_k_case())
    def test_rank_k_round_trip_matches_two_sided(self, case):
        cfg, x, e, k = case
        op = RealAnalysis(cfg, e)
        got = op.adjoint(rank_k_approx(op.forward(x), k), len(x))
        ref = two_sided_rank_k(x, cfg, e, k)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(x)

    @staticmethod
    def public_route(op, cfg, x, z):
        """A x and A^T z through ``stft``/``istft`` and the operator's stored E."""
        pairs = slice(1, 1 + (cfg.window_len - 1) // 2)
        spec = stft(x, cfg, op.window, one_sided=True).data.T * op.e_forward
        ax = np.concatenate([spec.real, spec.imag[:, pairs]], axis=1)
        spec = np.zeros((z.shape[0], op.half), dtype=complex)
        spec.real = z[:, : op.half]
        spec.imag[:, pairs] = z[:, op.half :]
        back = istft(Spectrogram((spec * op.e_adjoint).T, cfg, len(x)), op.window)
        return ax, back.samples

    @staticmethod
    def buffers(op, shape):
        """NaN-filled ``out`` and ``spec``: an entry left unwritten shows."""
        return np.full(shape, np.nan), np.full((shape[0], op.half), np.nan + 1j * np.nan)

    def check_buffered_bit_identity(self, cfg, op, x, Z, U):
        n = len(x)
        ax, back = op.forward(x), op.adjoint(Z - U, n)
        ref_ax, ref_back = self.public_route(op, cfg, x, Z - U)
        assert np.array_equal(ax, ref_ax) and np.array_equal(back, ref_back)
        out, spec = self.buffers(op, ax.shape)
        assert op.forward(x, out=out, spec=spec) is out
        assert np.array_equal(out, ax)
        _, spec = self.buffers(op, ax.shape)
        assert np.array_equal(op.adjoint(Z, n, minus=U, spec=spec), back)
        # A second pass through the same, now dirty, buffers gives the same bits.
        assert np.array_equal(op.forward(x, out=out, spec=spec), ax)
        assert np.array_equal(op.adjoint(Z, n, minus=U, spec=spec), back)

    @PROPERTY
    @given(real_operator_case())
    def test_buffered_directions_are_bit_identical(self, case):
        cfg, op, x, rng = case
        shape = op.forward(x).shape
        Z, U = rng.standard_normal(shape), rng.standard_normal(shape)
        self.check_buffered_bit_identity(cfg, op, x, Z, U)

    @PROPERTY
    @given(rank_k_case())
    def test_buffered_directions_are_bit_identical_odd_and_even(self, case):
        # Odd L has no unpaired top bin: its row K-1 carries an imaginary part.
        cfg, x, e, k = case
        op = RealAnalysis(cfg, e)
        ax = op.forward(x)
        Z = rank_k_approx(ax, k)
        self.check_buffered_bit_identity(cfg, op, x, Z, ax - Z)

    def test_one_shot_calls_keep_no_workspace(self, noisy_pair):
        # lowrank -o and ipclr_objective apply the operator once; the
        # operator must not keep the T x L buffers of such a call alive.
        _, noisy = noisy_pair
        op = RealAnalysis(CFG, build_corrector(estimate_if_for(noisy, CFG)))
        ax = op.forward(noisy.samples)
        op.adjoint(ax, len(noisy))
        T, L = ax.shape
        assert all(a.size < T * L for a in ndarrays(op))


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
        _, state = denoise(noisy, AdmmParams(lam=5.0, max_iter=60, tol=0.0), CFG)
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
        _, state = denoise(noisy, AdmmParams(lam=2.0, max_iter=15, tol=0.0), CFG)
        obj = np.array(state.objective_history)
        res = np.array(state.residual_history)
        assert obj.shape == (15,) and res.shape == (15,)
        assert np.all(np.isfinite(obj)) and np.all(obj >= 0)
        assert np.all(np.isfinite(res)) and np.all(res >= 0)

    def test_deterministic_bit_identical(self, noisy_pair):
        _, noisy = noisy_pair
        p = AdmmParams(lam=3.0, max_iter=12, tol=0.0)
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
        ax = RealAnalysis(CFG, build_corrector(if_map)).forward(x.samples)
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
            s = np.linalg.svd(RealAnalysis(cfg, E).forward(clean.samples), compute_uv=False)
            return s[0] ** 2 / np.sum(s**2)

        E = build_corrector(estimate_if_for(clean, cfg))
        assert top_share(np.ones_like(E)) < 0.5
        assert top_share(E) >= 0.95


def ndarrays(obj, seen=None):
    """Every numpy array reachable through ``obj``'s attributes, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from ndarrays(item, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from ndarrays(value, seen)


class TestCertifiedStop:
    CFG512 = StftConfig(window_len=512, hop=128, window_kind="hann_tight")

    @pytest.fixture(scope="class")
    def instance(self):
        noisy = add_noise_at_snr(harmonic_signal(0.5), 10.0, seed=0)
        return noisy, estimate_if_for(noisy, self.CFG512)

    @pytest.mark.parametrize("lam, ref_iters", [(0.3, 100), (3.0, 100), (30.0, 200)])
    def test_bound_covers_distance_to_long_run(self, instance, lam, ref_iters):
        noisy, if_map = instance
        x, state = denoise(noisy, AdmmParams(lam=lam), self.CFG512, if_map=if_map)
        x_ref, ref = denoise(noisy, AdmmParams(lam=lam, max_iter=ref_iters, tol=0.0),
                             self.CFG512, if_map=if_map)
        assert state.certified and 2 <= state.iterations < ref_iters
        bound, ref_bound = state.bound_history[-1], ref.bound_history[-1]
        assert bound <= 1e-4 * np.linalg.norm(x.samples)
        assert ref_bound <= 0.05 * bound
        # Both lie within their bounds of the same minimizer.
        assert np.linalg.norm(x.samples - x_ref.samples) <= bound + ref_bound

    def test_dual_recursion_matches_adjoint(self, instance):
        noisy, if_map = instance
        params = AdmmParams(lam=3.0)
        op = DENOISE_MODULE._operator(noisy, self.CFG512, if_map)
        iterates = DENOISE_MODULE._iterates(noisy, op, params)
        for it in itertools.islice(iterates, 12):
            direct = op.adjoint(it.U, len(noisy))
            assert np.linalg.norm(it.at_u - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_iterates_reuse_their_matrices(self, instance):
        noisy, if_map = instance
        op = DENOISE_MODULE._operator(noisy, self.CFG512, if_map)
        iterates = DENOISE_MODULE._iterates(noisy, op, AdmmParams(lam=3.0))
        first = next(iterates)
        views = {name: getattr(first, name) for name in ("ax", "Y", "U")}
        for it in itertools.islice(iterates, 3):
            for name, view in views.items():
                assert np.shares_memory(getattr(it, name), view)

    def test_zero_tol_runs_max_iter(self, instance):
        # At lam -> 0 every bound from x_2 on is about 0; tol=0 must still run on.
        noisy, if_map = instance
        _, state = denoise(noisy, AdmmParams(lam=1e-12, max_iter=7, tol=0.0),
                           self.CFG512, if_map=if_map)
        assert state.iterations == 7 and not state.certified
        assert len(state.bound_history) == len(state.rank_history) == 7

    def test_first_iterate_is_never_certified(self, instance):
        noisy, if_map = instance
        _, state = denoise(noisy, AdmmParams(lam=1e-12), self.CFG512, if_map=if_map)
        assert state.iterations == 2 and state.certified
        _, one = denoise(noisy, AdmmParams(lam=1e-12, max_iter=1), self.CFG512, if_map=if_map)
        assert one.iterations == 1 and not one.certified

    def test_histories_describe_each_iterate(self, instance):
        noisy, if_map = instance
        params = AdmmParams(lam=30.0, max_iter=40)
        x, state = denoise(noisy, params, self.CFG512, if_map=if_map)
        assert state.certified == (
            state.bound_history[-1] <= params.tol * np.linalg.norm(x.samples))
        assert all(b >= 0 for b in state.bound_history)
        kept = np.linalg.svd(state.Y, compute_uv=False) > params.lam / params.rho
        assert state.rank_history[-1] == int(kept.sum())
        assert all(1 <= r <= min(state.Y.shape) for r in state.rank_history)

    def test_state_rebuilds_last_matrices_bit_for_bit(self, noisy_pair):
        # No IF map given: the rebuild estimates it from the observation again.
        _, noisy = noisy_pair
        x, state = denoise(noisy, AdmmParams(lam=5.0, max_iter=40), CFG)
        L, T = CFG.window_len, frame_count(len(noisy), CFG, "cover")
        assert state.certified and state.iterations < 40
        assert all(a.size < L * T for a in ndarrays(state))

        # The textbook scaled-dual loop, run for as many iterations; its
        # first x-update (d + A^T A d) / 2 is d, as A^T A = I.
        op = RealAnalysis(CFG, build_corrector(estimate_if_for(noisy, CFG)))
        x_k = noisy.samples
        U = np.zeros_like(op.forward(x_k))
        for k in range(state.iterations):
            if k:
                x_k = (noisy.samples + op.adjoint(Z - U, len(noisy))) / 2.0
            Y = op.forward(x_k) + U
            Z = svt(Y, 5.0)
            U = Y - Z
        assert np.array_equal(x_k, x.samples)
        assert np.array_equal(state.Y, Y) and np.array_equal(state.Z, Z)
        assert np.array_equal(state.U, U)
        _, fixed = denoise(noisy, AdmmParams(lam=5.0, max_iter=state.iterations, tol=0.0), CFG)
        for name in ("Y", "Z", "U"):
            assert np.array_equal(getattr(state, name), getattr(fixed, name))


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_grid_before_any_solve(self, noisy_pair, monkeypatch, bad):
        clean, noisy = noisy_pair
        calls = []
        monkeypatch.setattr(DENOISE_MODULE, "denoise", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="positive and finite"):
            lambda_sweep(noisy, clean, [1.0, bad], AdmmParams(lam=1.0), CFG)
        assert calls == []

    def test_rows_run_params_with_only_lam_replaced(self, noisy_pair, monkeypatch):
        clean, noisy = noisy_pair
        seen = []

        def fake_denoise(d, params, config, if_map=None):
            seen.append(params)
            return d, SimpleNamespace(objective_history=[0.0])

        monkeypatch.setattr(DENOISE_MODULE, "denoise", fake_denoise)
        params = AdmmParams(lam=5.0, rho=2.5, max_iter=7, tol=1e-3)
        lambda_sweep(noisy, clean, [3.0, 0.5], params, CFG)
        assert seen == [replace(params, lam=0.5), replace(params, lam=3.0)]

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
