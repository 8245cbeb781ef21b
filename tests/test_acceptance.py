"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy fixtures mirror the published experiment scale (Hann window of
4096 samples at 16 kHz, 10.24 s harmonic test signal); the whole module
runs in a few minutes.
"""

import numpy as np
import pytest

from ipclr.denoise import AdmmParams, denoise, estimate_if_for, ipclr_objective, lambda_sweep
from ipclr.experiments import (
    ExperimentSpec,
    analysis_config,
    default_signal,
    rank_cell_snr,
    run_fig3,
    run_table1,
    table1_layout,
)
from ipclr.frames import StftConfig, canonical_tight_window, derivative_window, hann_window, istft, stft
from ipclr.ifreq import estimate_if
from ipclr.ipc import build_corrector
from ipclr.lowrank import nuclear_norm, svt
from ipclr.signals import SignalBuffer, SinusoidSpec, add_noise_at_snr, snr_db, synth_sinusoid_sum

L = 4096
HOP = 1024
RATE = 16000.0


@pytest.fixture
def report(capsys):
    def _report(ok: bool, line: str):
        with capsys.disabled():
            print(("[PASS] " if ok else "[FAIL] ") + line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def table_signal():
    return default_signal()  # 3 harmonics, 10.24 s at 16 kHz


@pytest.fixture(scope="module")
def denoise_instance():
    clean = default_signal(duration_s=2.56)
    noisy = add_noise_at_snr(clean, 10.0, seed=0)
    cfg = StftConfig(window_len=L, hop=HOP, window_kind="hann_tight")
    return clean, noisy, cfg


def test_criterion_1_perfect_reconstruction(report):
    cfg = StftConfig(window_len=L, hop=HOP)
    wt = canonical_tight_window(hann_window(L), HOP)
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(L, 3 * L + 1))
        x = SignalBuffer(rng.standard_normal(n), RATE)
        y = istft(stft(x, cfg, wt), wt)
        worst = max(worst, np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples))
    report(worst <= 1e-10,
           f"1. perfect reconstruction, 100 random signals: worst rel err "
           f"{worst:.2e} (tol 1e-10)")


def test_criterion_2_rank_one_sinusoid(report):
    cfg = StftConfig(window_len=L, hop=HOP)
    x = np.exp(2j * np.pi * 25 * np.arange(3 * L) / L)
    spec = stft(x, cfg, hann_window(L), framing="valid")
    s = np.linalg.svd(spec.data, compute_uv=False)
    ratio = s[1] / s[0]
    report(ratio <= 1e-9,
           f"2. on-grid exponential rank one: sigma2/sigma1 = {ratio:.2e} (tol 1e-9)")


def test_criterion_3_rank_collapse(report, table_signal):
    cfg = analysis_config(L, 4)
    ipc = rank_cell_snr(table_signal, cfg, "ipc", k=1)
    plain = rank_cell_snr(table_signal, cfg, "stft", k=1)
    report(ipc >= 50.0 and plain <= 5.0,
           f"3. rank-1 collapse, clean 3-sinusoid signal: phase-corrected "
           f"{ipc:.1f} dB (need >= 50), plain {plain:.1f} dB (need <= 5)")


def test_criterion_4_table1_reproduction(report, table_signal):
    spec = ExperimentSpec(kind="table1")
    cells = run_table1(spec)
    rows = {(r["representation"], r["shift"]): r for r in table1_layout(cells)}
    targets = {
        ("ipc", "1/4"): ([21.8, 31.6, 41.5], 2.0),
        ("amplitude", "1/4"): ([1.3, 11.4, 21.4], 1.0),
        ("stft", "1/4"): ([2.2, 2.3, 2.3], 1.5),
        ("ipc", "1/2"): ([18.8, 28.9, 38.7], 2.0),
        ("ipc", "1/8"): ([24.5, 34.3, 44.2], 2.0),
    }
    lines = []
    ok = True
    for (representation, shift), (expected, tol) in targets.items():
        row = rows[(representation, shift)]
        got = [row["snr_in_0"], row["snr_in_10"], row["snr_in_20"]]
        hit = all(abs(g - e) <= tol for g, e in zip(got, expected))
        ok = ok and hit
        lines.append(f"{representation}@{shift}: "
                     + "/".join(f"{g:.1f}" for g in got)
                     + f" vs {'/'.join(str(e) for e in expected)} (+-{tol})")
    report(ok, "4. rank-1 table, 10-seed average: " + "; ".join(lines))


def test_criterion_5_rank_k_curve_shapes(report):
    jumps = {}
    for h in (3, 5):
        spec = ExperimentSpec(kind="fig3", sinusoid_count=h, k_values=(h - 1, h))
        curve = {c.k: c.snr_db for c in run_fig3(spec, None) if c.representation == "stft"}
        jumps[h] = curve[h] - curve[h - 1]
    spec = ExperimentSpec(kind="fig3", sinusoid_count=3, k_values=(1,))
    noisy = {c.representation: c.snr_db for c in run_fig3(spec, 10.0)}
    gap = noisy["ipc"] - noisy["stft"]
    report(all(j >= 20.0 for j in jumps.values()) and gap >= 15.0,
           f"5. rank-k curve shapes: plain-spectrogram jump at k=H is "
           f"{jumps[3]:.1f}/{jumps[5]:.1f} dB for H=3/5 (need >= 20); "
           f"phase-corrected rank-1 beats plain by {gap:.1f} dB at 10 dB noise "
           f"(need >= 15)")


def test_criterion_6_svt_prox(report):
    rng = np.random.default_rng(200)
    violations = 0
    for _ in range(200):
        shape = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t = float(rng.uniform(0.05, 3.0))
        z_star = svt(m, t)
        f_star = 0.5 * np.linalg.norm(z_star - m) ** 2 + t * nuclear_norm(z_star)
        for _ in range(100):
            z = z_star + rng.uniform(0.05, 1.0) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            f = 0.5 * np.linalg.norm(z - m) ** 2 + t * nuclear_norm(z)
            if f_star > f + 1e-9:
                violations += 1
    report(violations == 0,
           f"6. singular-value thresholding prox: {violations} objective "
           f"violations over 200 matrices x 100 candidates")


def test_criterion_7_admm_contract(report, denoise_instance):
    clean, noisy, cfg = denoise_instance
    if_map = estimate_if_for(noisy, cfg)

    x0, state0 = denoise(noisy, AdmmParams(lam=1e-12), cfg, if_map=if_map)
    limit_dev = np.linalg.norm(x0.samples - noisy.samples) / np.linalg.norm(noisy.samples)

    lam = 100.0
    x1, state1 = denoise(noisy, AdmmParams(lam=lam), cfg, if_map=if_map)
    w = canonical_tight_window(hann_window(L), HOP)
    ax_norm = np.linalg.norm(stft(x1, cfg, w).data)
    rel_residual = state1.residual_history[-1] / ax_norm

    corr = build_corrector(if_map)
    obs_objective = ipclr_objective(noisy, noisy, lam, corr, cfg)
    objective_ok = (
        state1.objective_history[-1] <= obs_objective
        and state0.objective_history[-1]
        <= ipclr_objective(noisy, noisy, 1e-12, corr, cfg)
    )
    report(limit_dev <= 1e-6 and rel_residual <= 0.01 and objective_ok,
           f"7. ADMM contract: lam->0 deviation {limit_dev:.2e} (tol 1e-6); "
           f"relative primal residual after {state1.iterations} iters {rel_residual:.2e} "
           f"(tol 1e-2); final objective below observation objective: "
           f"{objective_ok}")


def test_criterion_8_denoising_efficacy(report, denoise_instance):
    clean, noisy, cfg = denoise_instance
    input_snr = snr_db(clean, noisy)
    grid = list(np.geomspace(1.0, 1000.0, 7))
    params = AdmmParams(lam=1.0)

    est_rows = lambda_sweep(noisy, clean, grid, params, cfg)  # IF from the noisy input
    best_est = max(est_rows, key=lambda r: r.snr_db)
    improvement = best_est.snr_db - input_snr

    # Oracle mode at the tuned lam is a lower bound on its own tuned score.
    oracle_if = estimate_if_for(clean, cfg)
    x_ora, _ = denoise(noisy, AdmmParams(lam=best_est.lam), cfg, if_map=oracle_if)
    ora_snr = snr_db(clean, x_ora)

    report(improvement >= 5.0 and ora_snr >= best_est.snr_db - 0.5,
           f"8. denoising efficacy at 10 dB input: tuned improvement "
           f"{improvement:+.1f} dB (need >= +5) at lam={best_est.lam:g}; "
           f"oracle-IF mode {ora_snr:.1f} dB vs estimated-IF "
           f"{best_est.snr_db:.1f} dB (need >= est - 0.5)")


def test_criterion_9_if_calibration(report):
    cfg = StftConfig(window_len=L, hop=HOP)

    x = np.exp(2j * np.pi * 25 * np.arange(3 * L) / L)
    s_w = stft(x, cfg, hann_window(L), framing="valid")
    s_wp = stft(x, cfg, derivative_window(L), framing="valid")
    v = estimate_if(s_w, s_wp)
    peak = int(np.argmax(np.abs(s_w.data[:, 0])))
    grid_err = np.abs(v.values[peak, :] - 25.0).max()

    sig = synth_sinusoid_sum([SinusoidSpec(1.0, 100.0)], 1.0, RATE)
    s_w = stft(sig, cfg, hann_window(L), framing="valid")
    s_wp = stft(sig, cfg, derivative_window(L), framing="valid")
    v = estimate_if(s_w, s_wp)
    peak = int(np.argmax(np.abs(s_w.data[: L // 2, 0])))
    hz100 = v.values[peak, 0]

    report(grid_err <= 0.01 and abs(hz100 - 25.6) <= 0.05,
           f"9. IF calibration: on-grid peak-bin error {grid_err:.2e} bins "
           f"(tol 0.01); 100 Hz at 16 kHz reads {hz100:.4f} cycles/window "
           f"(25.6 +- 0.05)")
