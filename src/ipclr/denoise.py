"""ADMM denoiser for the phase-corrected low-rankness (nuclear norm) prior.

Solves

    x* = argmin_x  0.5 * ||x - d||_2^2 + lam * ||A x||_*

where A x = E * stft(x) with the canonical tight window and a frozen phase
correction E.  The problem is split as min 0.5||x - d||^2 + lam||Z||_*
subject to Z = A x and solved with scaled-dual ADMM.  For a real signal
A x is conjugate-symmetric, so the solver works on its real one-sided
form: the rfft of the windowed frames times the one-sided E, mapped
isometrically onto a real L x T matrix with the same singular values
(see ``_RealAnalysis``).  Because the tight frame satisfies A^T A = I
(and E is unimodular), the x-update has the closed form
x = (d + rho * A^T (Z - U)) / (1 + rho), which is real by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .frames import (  # istft: not called here, wrapped by perfbench
    StftConfig,
    analysis_window,
    derivative_window,
    frame_count,
    frame_signal,
    hann_window,
    istft,
    one_sided,
    overlap_add,
    stft,
)
from .ifreq import IfMap, estimate_if
from .ipc import build_corrector
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
    """Final iterate and per-iteration diagnostics of one solve.

    The split variable and the scaled dual of the last iteration are both
    fixed by the input of its thresholding step, ``Y = A x + U_prev``:
    Z = svt(Y, threshold) and U = Y - Z.  The state keeps Y alone, half the
    memory of keeping both, and ``Z`` and ``U`` recompute them on access.
    All three are real L x T matrices in the one-sided coordinates of
    ``_RealAnalysis``; their norms and singular values equal those of the
    two-sided complex matrices.
    """

    x: SignalBuffer
    Y: np.ndarray
    threshold: float
    objective_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)

    @property
    def Z(self) -> np.ndarray:
        """Split variable of the last iteration, svt(Y, threshold)."""
        return svt(self.Y, self.threshold)

    @property
    def U(self) -> np.ndarray:
        """Scaled dual of the last iteration, Y - Z."""
        return self.Y - self.Z


class LambdaSweepRow(NamedTuple):
    """One row of a regularization sweep."""

    lam: float
    snr_db: float
    objective: float


class _RealAnalysis:
    """The frozen operator A = E * stft(., config's window) in real coordinates.

    For a real signal and the E of a real signal's IF map, E * stft(x) is
    conjugate-symmetric (row K-j is the conjugate of row j), so it is fixed
    by its rows 0..L/2, as is E.  ``forward`` returns the real L x T matrix

        [row 0; sqrt2 * Re rows 1..h; row L/2; sqrt2 * Im rows 1..h]

    with h = (L-1)//2 (row L/2 only for even L).  E must be real in rows 0
    and L/2, as the E of a real signal's IF map is.  The map is an isometry
    from the conjugate-symmetric subspace onto R^(L x T), so norms and
    singular values equal those of the two-sided matrix, and ``adjoint`` is
    A^T, which with the canonical tight window and unimodular E is also the
    inverse: A^T A = I.  The FFTs run along the contiguous axis of T x L
    frame arrays; the sqrt2 and the inverse DFT's factor L are folded into
    the stored corrector rows.
    """

    def __init__(self, config: StftConfig, E: np.ndarray):
        self.config = config
        self.window = analysis_window(config)
        L = config.window_len
        self.half = L // 2 + 1
        self.pairs = slice(1, 1 + (L - 1) // 2)
        unpaired = E[[0, L // 2] if L % 2 == 0 else [0]]
        if np.abs(unpaired.imag).max() > 1e-9:
            raise ValueError(
                "phase correction must be real in bins 0 and L/2, "
                "as it is for the IF map of a real signal"
            )
        scale = np.ones(self.half)
        scale[self.pairs] = np.sqrt(2.0)
        e = E.T
        self.e_forward = e * scale
        self.e_adjoint = np.conj(e) * (L / scale)

    def forward(self, samples: np.ndarray) -> np.ndarray:
        patches = frame_signal(samples, self.config).T
        spec = np.fft.rfft(self.window * patches, axis=1)
        spec *= self.e_forward
        out = np.empty((self.config.window_len, spec.shape[0]))
        out[: self.half] = spec.real.T
        out[self.half :] = spec.imag[:, self.pairs].T
        return out

    def adjoint(self, z: np.ndarray, origin_len: int) -> np.ndarray:
        L, a = self.config.window_len, self.config.hop
        spec = np.zeros((z.shape[1], self.half), dtype=np.complex128)
        spec.real = z[: self.half].T
        spec.imag[:, self.pairs] = z[self.half :].T
        spec *= self.e_adjoint
        frames = np.fft.irfft(spec, n=L, axis=1)
        frames *= self.window
        left = L - a  # the cover framing's left padding
        return overlap_add(frames.T, a)[left : left + origin_len]


def estimate_if_for(signal: SignalBuffer, config: StftConfig) -> IfMap:
    """One-sided ((L/2+1) x T) cover-framing IF map under the Hann pair.

    The Hann / derivative-window pair is used even when the solver analyzes
    with the tight window.  For hops of at most L/3 the tight window is a
    scalar multiple of Hann.  At hop L/2 it is not, and the pair is kept on
    evidence: on the 2.56 s harmonic signal with the 4096-sample tight
    window its E lifts the top singular value's energy share of A x from
    0.30 (E = 1) to 0.976, which a test pins at 0.95 or more.
    """
    L = config.window_len
    s_w = one_sided(stft(signal, config, hann_window(L)))
    s_wp = one_sided(stft(signal, config, derivative_window(L)))
    return estimate_if(s_w, s_wp)


def ipclr_objective(
    x: SignalBuffer,
    d: SignalBuffer,
    lam: float,
    E: np.ndarray,
    config: StftConfig,
) -> float:
    """0.5 * ||x - d||^2 + lam * ||E * stft(x)||_* with the config's window.

    The nuclear norm is taken of the real one-sided form of E * stft(x),
    exactly as ``denoise`` records it in ``objective_history``, so the two
    compare like for like.  For a real signal and the one-sided E of its
    IF map it equals the nuclear norm of the two-sided matrix.
    """
    if len(x) != len(d):
        raise ValueError("signal lengths must match")
    if E.shape != (config.window_len // 2 + 1, frame_count(len(x), config, "cover")):
        raise ValueError("corrector shape does not match the transform shape")
    data_term = 0.5 * float(np.sum((x.samples - d.samples) ** 2))
    ax = _RealAnalysis(config, E).forward(x.samples)
    return data_term + lam * nuclear_norm(ax)


def denoise(
    d: SignalBuffer,
    params: AdmmParams,
    config: StftConfig,
    if_map: IfMap | None = None,
) -> tuple[SignalBuffer, AdmmState]:
    """ADMM solve of the nuclear-norm denoising problem.

    The phase correction is built once, from the one-sided ``if_map`` when
    given (oracle mode) and otherwise from the noisy observation itself,
    and stays fixed for the whole solve so the prior is convex.  Each iteration runs one
    forward and one adjoint transform and one thresholding step on the real
    L x T form of A x, plus one nuclear norm for the exact objective
    0.5 * ||x - d||^2 + lam * ||A x||_* recorded in ``objective_history``.

    Returns the denoised signal and the full solver state.
    """
    if len(d) == 0:
        raise ValueError("observation must be non-empty")
    if config.window_kind != "hann_tight":
        raise ValueError("denoising requires a tight analysis window")
    if if_map is None:
        if_map = estimate_if_for(d, config)
    n = len(d)
    expected = (config.window_len // 2 + 1, frame_count(n, config, "cover"))
    if if_map.values.shape != expected:
        raise ValueError(
            f"IF map shape {if_map.values.shape} does not match the "
            f"one-sided transform shape {expected} (L/2+1 rows)"
        )
    op = _RealAnalysis(config, build_corrector(if_map))

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
        Y = ax + U
        Z = svt(Y, threshold)
        U = Y - Z
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
        Y=Y,
        threshold=threshold,
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
    the grid, so rows differ only in lam.  ``params.lam`` is ignored: each
    row runs its grid value with ``params.rho``, ``max_iter`` and ``tol``.
    Rows come back sorted by lam ascending.
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
