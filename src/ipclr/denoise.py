"""ADMM denoiser for the phase-corrected low-rankness (nuclear norm) prior.

Solves

    x* = argmin_x  0.5 * ||x - d||_2^2 + lam * ||A x||_*

where A x = E * stft(x) with the canonical tight window and a frozen phase
correction E.  The problem is split as min 0.5||x - d||^2 + lam||Z||_*
subject to Z = A x and solved with scaled-dual ADMM.  Because the tight
frame satisfies A^H A = I (and E is unimodular), the x-update has the
closed form x = Re[(d + rho * A^H (Z - U)) / (1 + rho)]; the real-part
projection is exact for real signals since it is the minimizer of the
quadratic over the real subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .frames import (
    Spectrogram,
    StftConfig,
    analysis_window,
    derivative_window,
    frame_count,
    hann_window,
    istft,
    stft,
)
from .ifreq import IfMap, estimate_if
from .ipc import PhaseCorrector, build_corrector
from .lowrank import nuclear_norm, svt
from .signals import SignalBuffer, snr_db


class NumericalError(RuntimeError):
    """Raised when an iterative solve produces non-finite values."""


@dataclass(frozen=True)
class AdmmParams:
    """Solver knobs: regularization lam, penalty rho, iteration budget.

    ``tol`` is a relative primal-residual stop; the default 0 runs exactly
    ``max_iter`` iterations.
    """

    lam: float
    rho: float = 1.0
    max_iter: int = 100
    tol: float = 0.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")


@dataclass
class AdmmState:
    """Final iterates and per-iteration diagnostics of one solve."""

    x: SignalBuffer
    Z: np.ndarray
    U: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)


class LambdaSweepRow(NamedTuple):
    """One row of a regularization sweep."""

    lam: float
    snr_db: float
    objective: float


def _mirror_average(z: np.ndarray) -> np.ndarray:
    """Project a two-sided matrix onto the conjugate-symmetric subspace."""
    mirror = (-np.arange(z.shape[0])) % z.shape[0]
    return 0.5 * (z + np.conj(z[mirror, :]))


class _TightAnalysis:
    """The frozen linear operator A = E * stft(., tight window) and A^H."""

    def __init__(self, config: StftConfig, corrector: PhaseCorrector, rate: float):
        if config.window_kind != "hann_tight":
            raise ValueError("denoising requires a tight analysis window")
        self.config = config
        self.window = analysis_window(config)
        self.corrector = corrector
        self.rate = rate

    def forward(self, samples: np.ndarray) -> np.ndarray:
        sig = SignalBuffer(samples, self.rate)
        return self.corrector.E * stft(sig, self.config, self.window).data

    def adjoint(self, z: np.ndarray, origin_len: int) -> np.ndarray:
        spec = Spectrogram(
            data=self.corrector.conjugate() * z,
            config=self.config,
            origin_len=origin_len,
            sample_rate_hz=self.rate,
        )
        return istft(spec, self.window).samples


def estimate_if_for(signal: SignalBuffer, config: StftConfig) -> IfMap:
    """IF map of a signal under the plain Hann / derivative-window pair.

    The correction matrix is always built from Hann-pair estimates even
    when the solver analyzes with the tight window: for hops of at most
    L/3 the tight window is an exact scalar multiple of the Hann window,
    and the phase advance per hop is a property of the signal, not of the
    analysis window.
    """
    L = config.window_len
    s_w = stft(signal, config, hann_window(L))
    s_wp = stft(signal, config, derivative_window(L))
    return estimate_if(s_w, s_wp)


def ipclr_objective(
    x: SignalBuffer,
    d: SignalBuffer,
    lam: float,
    corrector: PhaseCorrector,
    config: StftConfig,
) -> float:
    """0.5 * ||x - d||^2 + lam * ||E * stft(x)||_* with the config's window."""
    if len(x) != len(d):
        raise ValueError("signal lengths must match")
    data_term = 0.5 * float(np.sum((x.samples - d.samples) ** 2))
    spec = stft(x, config, analysis_window(config))
    if corrector.E.shape != spec.data.shape:
        raise ValueError("corrector shape does not match the transform shape")
    return data_term + lam * nuclear_norm(corrector.E * spec.data)


def denoise(
    d: SignalBuffer,
    params: AdmmParams,
    config: StftConfig,
    if_map: IfMap | None = None,
) -> tuple[SignalBuffer, AdmmState]:
    """ADMM solve of the nuclear-norm denoising problem.

    The phase correction is built once, from ``if_map`` when given (oracle
    mode) and otherwise from the noisy observation itself, and stays fixed
    for the whole solve so the prior is convex.  Conjugate symmetry of the
    split variable is restored after each thresholding step by averaging
    mirrored bins, keeping the adjoint consistent with real signals.

    Returns the denoised signal and the full solver state.
    """
    if len(d) == 0:
        raise ValueError("observation must be non-empty")
    if if_map is None:
        if_map = estimate_if_for(d, config)
    n = len(d)
    expected = (config.window_len, frame_count(n, config, "cover"))
    if if_map.values.shape != expected:
        raise ValueError(
            f"IF map shape {if_map.values.shape} does not match the "
            f"transform shape {expected}"
        )
    corrector = build_corrector(if_map)
    op = _TightAnalysis(config, corrector, d.sample_rate_hz)

    x = d.samples.copy()
    Z = op.forward(x)
    U = np.zeros_like(Z)
    threshold = params.lam / params.rho
    objective_history: list[float] = []
    residual_history: list[float] = []

    for _ in range(params.max_iter):
        x = (d.samples + params.rho * op.adjoint(Z - U, n)) / (1.0 + params.rho)
        if not np.all(np.isfinite(x)):
            raise NumericalError("ADMM iterate diverged to non-finite values")
        ax = op.forward(x)
        Z = _mirror_average(svt(ax + U, threshold))
        U = U + ax - Z
        residual = float(np.linalg.norm(ax - Z))
        ax_norm = float(np.linalg.norm(ax))
        objective = 0.5 * float(np.sum((x - d.samples) ** 2))
        objective += params.lam * nuclear_norm(ax)
        objective_history.append(objective)
        residual_history.append(residual)
        if params.tol > 0 and residual <= params.tol * max(ax_norm, 1e-300):
            break

    out = SignalBuffer(x, d.sample_rate_hz)
    state = AdmmState(
        x=out,
        Z=Z,
        U=U,
        objective_history=objective_history,
        residual_history=residual_history,
    )
    return out, state


def lambda_sweep(
    d: SignalBuffer,
    clean: SignalBuffer,
    grid: list[float],
    params: AdmmParams,
    config: StftConfig,
    if_map: IfMap | None = None,
) -> list[LambdaSweepRow]:
    """One denoise run per regularization value, scored against ``clean``.

    The IF map is estimated once from the observation and shared across
    the grid, so rows differ only in lam.  Rows come back sorted by lam
    ascending.
    """
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if any(not g > 0 for g in grid):
        raise ValueError("lambda grid values must be positive")
    if len(clean) != len(d):
        raise ValueError("clean reference length must match the observation")
    if if_map is None:
        if_map = estimate_if_for(d, config)
    rows = []
    for lam in sorted(grid):
        run_params = AdmmParams(
            lam=lam, rho=params.rho, max_iter=params.max_iter, tol=params.tol
        )
        x, state = denoise(d, run_params, config, if_map=if_map)
        rows.append(
            LambdaSweepRow(lam, snr_db(clean, x), state.objective_history[-1])
        )
    return rows
