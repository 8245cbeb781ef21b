"""ADMM denoiser for the phase-corrected low-rankness (nuclear norm) prior.

Solves

    x* = argmin_x  0.5 * ||x - d||_2^2 + lam * ||A x||_*

where A x = E * stft(x) with the canonical tight window and a frozen phase
correction E.  The problem is split as min 0.5||x - d||^2 + lam||Z||_*
subject to Z = A x and solved with scaled-dual ADMM.  For a real signal
A x is conjugate-symmetric, so the solver works on its real one-sided
form: the one-sided stft times the one-sided E, mapped isometrically onto
a real T x L matrix, one frame per row, with the same singular values (see
``RealAnalysis``).
Because the tight frame satisfies A^T A = I (and E is unimodular), the
x-update has the closed form x = (d + rho * A^T (Z - U)) / (1 + rho),
which is real by construction.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .frames import (
    StftConfig,
    analysis_window,
    frame_count,
    hann_window,
    irfft_synthesize,
    istft,  # wrapped by perfbench
    rfft_rows,
    stft,
    windowed_frames,
)
from .ifreq import IfMap, estimate_if, estimate_if_from  # estimate_if: wrapped by perfbench
from .ipc import build_corrector
from .lowrank import _svt_kept, nuclear_norm, svt  # svt: wrapped by perfbench
from .signals import SignalBuffer, snr_db


class NumericalError(RuntimeError):
    """Raised when an iterative solve produces non-finite values."""


@dataclass(frozen=True)
class AdmmParams:
    """Solver knobs: regularization lam, penalty rho, iteration cap, stop tolerance.

    The solve stops at the first iterate x_k, k >= 2, whose certified
    distance to the exact minimizer, ``AdmmState.bound_history``, is at most
    ``tol * ||x_k||``, and after ``max_iter`` iterations at the latest.
    ``tol=0`` runs exactly ``max_iter`` iterations.
    """

    lam: float
    rho: float = 1.0
    max_iter: int = 100
    tol: float = 1e-4

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be non-negative and finite, got {self.tol}")


@dataclass
class AdmmState:
    """Final iterate and per-iteration diagnostics of one solve.

    Entry k-1 of each history belongs to iterate x_k: the objective
    P(x_k) = 0.5 * ||x_k - d||^2 + lam * ||A x_k||_*, the primal residual
    ||A x_k - Z_k||, the distance bound ||x_k - x*|| <= sqrt(2 (P(x_k) -
    D(rho U_k))) and the rank kept by the thresholding step of iteration k.
    ``certified`` says whether the last bound met ``params.tol``.

    The last iteration's thresholding input ``Y = A x + U_prev``, split
    variable ``Z = svt(Y, lam / rho)`` and scaled dual ``U = Y - Z`` are
    real T x L matrices in the one-sided coordinates of ``RealAnalysis``;
    their norms and singular values equal those of the two-sided complex
    matrices.  The state keeps none of them: the first access to any of
    the three reruns the deterministic solve for ``iterations`` iterations
    from ``d``, ``config`` and ``if_map`` (the caller's map, or None when
    the solve estimated it from ``d``), which gives them bit for bit.
    """

    x: SignalBuffer
    d: SignalBuffer = field(repr=False)
    params: AdmmParams
    config: StftConfig
    if_map: IfMap | None = field(repr=False)
    certified: bool = False
    objective_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    bound_history: list[float] = field(default_factory=list)
    rank_history: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of iterations the solve ran."""
        return len(self.residual_history)

    @cached_property
    def _last(self) -> _Iterate:
        iterates = _iterates(self.d, _operator(self.d, self.config, self.if_map), self.params)
        return next(itertools.islice(iterates, self.iterations - 1, None))

    @property
    def Y(self) -> np.ndarray:
        """Thresholding input of the last iteration, A x + U_prev."""
        return self._last.Y

    @property
    def Z(self) -> np.ndarray:
        """Split variable of the last iteration, svt(Y, lam / rho)."""
        return self._last.Z

    @property
    def U(self) -> np.ndarray:
        """Scaled dual of the last iteration, Y - Z."""
        return self._last.U


class LambdaSweepRow(NamedTuple):
    """One row of a regularization sweep; ``x`` is the output ``denoise`` returned."""

    lam: float
    snr_db: float
    objective: float
    x: SignalBuffer


class RealAnalysis:
    """The frozen operator A = E * stft(., config's window) in real coordinates.

    E is unimodular, broadcasts against the (L/2+1) x T one-sided stft and
    is real in rows 0 and L/2: the corrector of a real signal's IF map, 1,
    or the conjugate of a real signal's phase.  For a real signal x,
    E * stft(x) is then the top of a conjugate-symmetric two-sided matrix
    (bin K-j is the conjugate of bin j).  ``forward`` takes the one-sided
    stft, multiplies it by E and returns the real T x L matrix whose row
    tau is

        [bin 0; sqrt2 * Re bins 1..h; bin L/2; sqrt2 * Im bins 1..h]

    of frame tau, with h = (L-1)//2 (bin L/2 only for even L).  The map is
    an isometry from the conjugate-symmetric subspace onto R^(T x L), so
    norms, singular values and rank-k truncations are those of the
    two-sided matrix (transposed).  ``adjoint`` (A^T, and with the
    canonical tight window the inverse: A^T A = I) undoes the embedding,
    multiplies by conj(E) and runs the one-sided istft; each direction
    folds its sqrt2 into its stored corrector.

    Frames, spectra and the embedding are all held one frame per row, the
    FFT's own order: E is transposed once, here, to T x (L/2+1), and the
    real part and the paired imaginary parts fill contiguous column blocks.
    The operator holds E and the window only.  A caller that applies it
    repeatedly passes its own buffers (``out``, ``spec``), which are filled
    and reused; a call without them allocates its own and keeps nothing
    afterwards.
    """

    def __init__(self, config: StftConfig, E: np.ndarray):
        self.config = config
        self.window = analysis_window(config)
        L = config.window_len
        self.half = L // 2 + 1
        self.pairs = slice(1, 1 + (L - 1) // 2)
        self.unpaired = [0, L // 2] if L % 2 == 0 else [0]
        if np.abs(E[self.unpaired].imag).max() > 1e-9:
            raise ValueError(
                "phase correction must be real in bins 0 and L/2, "
                "as it is for the IF map of a real signal"
            )
        scale = np.ones((self.half, 1))
        scale[self.pairs] = np.sqrt(2.0)
        self.e_forward = np.ascontiguousarray((E * scale).T)
        self.e_adjoint = np.ascontiguousarray((np.conj(E) / scale).T)

    def forward(
        self,
        samples: np.ndarray,
        out: np.ndarray | None = None,
        spec: np.ndarray | None = None,
    ) -> np.ndarray:
        """A x as a real T x L matrix, written into ``out`` when given.

        The windowed frames go into ``out`` and are transformed into
        ``spec``; the embedding then overwrites them.
        """
        out = windowed_frames(samples, self.config, self.window, out=out)
        spec = rfft_rows(out, out=spec)
        spec *= self.e_forward
        out[:, : self.half] = spec.real
        out[:, self.half :] = spec.imag[:, self.pairs]
        return out

    def adjoint(
        self,
        z: np.ndarray,
        origin_len: int,
        minus: np.ndarray | None = None,
        spec: np.ndarray | None = None,
    ) -> np.ndarray:
        """A^T z, or A^T (z - minus) with the difference taken in ``spec``.

        ``spec`` (T x (L/2+1)) is scratch, filled when given; the samples
        come back in a new array.
        """
        if spec is None:
            spec = np.empty((z.shape[0], self.half), dtype=np.complex128)
        h = self.half
        minus_re, minus_im = (0.0, 0.0) if minus is None else (minus[:, :h], minus[:, h:])
        np.subtract(z[:, :h], minus_re, out=spec.real)
        np.subtract(z[:, h:], minus_im, out=spec.imag[:, self.pairs])
        spec.imag[:, self.unpaired] = 0.0
        spec *= self.e_adjoint
        return irfft_synthesize(spec, self.config, self.window, origin_len)


def estimate_if_for(signal: SignalBuffer, config: StftConfig) -> IfMap:
    """One-sided ((L/2+1) x T) cover-framing IF map under the Hann pair.

    The Hann / derivative-window pair is used even when the solver analyzes
    with the tight window.  For hops of at most L/3 the tight window is a
    scalar multiple of Hann.  At hop L/2 it is not, and the pair is kept on
    evidence: on the 2.56 s harmonic signal with the 4096-sample tight
    window its E lifts the top singular value's energy share of A x from
    0.30 (E = 1) to 0.976, which a test pins at 0.95 or more.
    """
    s_w = stft(signal, config, hann_window(config.window_len), one_sided=True)
    return estimate_if_from(signal, s_w)


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
    ax = RealAnalysis(config, E).forward(x.samples)
    return data_term + lam * nuclear_norm(ax)


class _Iterate(NamedTuple):
    """Iterate k of the scaled-dual ADMM, with A^T U_k for the dual bound."""

    x: np.ndarray
    ax: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    kept: int
    at_u: np.ndarray


def _iterates(d: SignalBuffer, op: RealAnalysis, params: AdmmParams) -> Iterator[_Iterate]:
    """The iterates k = 1, 2, ... of the solve, without end, from Z_0 = A d and U_0 = 0.

    Iteration k runs the x-update x_k = (d + rho A^T (Z_{k-1} - U_{k-1})) / (1 + rho),
    Y_k = A x_k + U_{k-1}, Z_k = svt(Y_k, lam / rho) and U_k = Y_k - Z_k.
    Because A^T A = I, x_1 = (d + rho A^T A d) / (1 + rho) is d itself and
    A x_1 is Z_0, so neither is transformed again.  The adjoint
    A^T (Z_k - U_k) of iteration k+1 is taken before iterate k is yielded,
    and it also gives A^T U_k = (x_k + A^T U_{k-1} - A^T (Z_k - U_k)) / 2
    without a transform of its own.  A caller stopping at iterate k has
    paid for k forward transforms (A d among them) and k adjoints.

    The generator owns the solve's workspace: ``ax``, ``Y`` and ``U`` are
    updated in place, so every iterate it yields holds the same three
    arrays, and both transforms go through one spectrum buffer.  An
    iterate's matrices are valid until the next one is requested; the
    workspace is freed with the generator.
    """
    n = len(d)
    threshold = params.lam / params.rho
    x = d.samples.copy()
    ax = op.forward(x)
    spec = np.empty((ax.shape[0], op.half), dtype=np.complex128)
    Y = np.empty_like(ax)
    U = np.zeros_like(ax)
    at_u = np.zeros(n)
    while True:
        np.add(ax, U, out=Y)
        Z, kept = _svt_kept(Y, threshold)
        np.subtract(Y, Z, out=U)
        back = op.adjoint(Z, n, minus=U, spec=spec)
        at_u = 0.5 * (x + at_u - back)
        yield _Iterate(x, ax, Y, Z, U, kept, at_u)
        x = (d.samples + params.rho * back) / (1.0 + params.rho)
        if not np.all(np.isfinite(x)):
            raise NumericalError("ADMM iterate diverged to non-finite values")
        op.forward(x, out=ax, spec=spec)


def _operator(d: SignalBuffer, config: StftConfig, if_map: IfMap | None) -> RealAnalysis:
    """The solver's A for observation ``d``, with E from ``if_map`` or from ``d``."""
    if config.window_kind != "hann_tight":
        raise ValueError("denoising requires a tight analysis window")
    if if_map is None:
        if_map = estimate_if_for(d, config)
    expected = (config.window_len // 2 + 1, frame_count(len(d), config, "cover"))
    if if_map.values.shape != expected:
        raise ValueError(
            f"IF map shape {if_map.values.shape} does not match the "
            f"one-sided transform shape {expected} (L/2+1 rows)"
        )
    return RealAnalysis(config, build_corrector(if_map))


def denoise(
    d: SignalBuffer,
    params: AdmmParams,
    config: StftConfig,
    if_map: IfMap | None = None,
) -> tuple[SignalBuffer, AdmmState]:
    """ADMM solve of the nuclear-norm denoising problem.

    The phase correction is built once, from the one-sided ``if_map`` when
    given (oracle mode) and otherwise from the noisy observation itself,
    and stays fixed for the whole solve so the prior is convex.  Each
    iteration runs one forward and one adjoint transform and one
    thresholding step on the real T x L form of A x, plus one nuclear norm
    for the exact objective P(x) = 0.5 * ||x - d||^2 + lam * ||A x||_*.
    The T x L matrices and transform buffers are allocated once per solve
    and reused by every iteration (see ``_iterates``); none outlives the
    call, and the returned state keeps none of them.

    The stop is certified.  ``svt`` clips every singular value of U_k at
    lam / rho, so W_k = rho U_k is dual-feasible and
    D(W_k) = <A^T W_k, d> - 0.5 * ||A^T W_k||^2 bounds P from below; as P is
    1-strongly convex, ||x_k - x*|| <= sqrt(2 (P(x_k) - D(W_k))) (Boyd et
    al., "Distributed Optimization and Statistical Learning via ADMM",
    2011, section 3.3).  A^T W_k comes from the adjoint the next x-update
    needs anyway (see ``_iterates``), so the bound costs no transform, no
    ``svt`` and no nuclear norm.  The solve returns the first x_k with
    k >= 2 whose bound is at most ``params.tol * ||x_k||``, or x_max_iter.
    x_1 is never certified: it equals d up to rounding, and a bound met
    there would return the observation itself.

    Returns the denoised signal and the solver state.
    """
    if len(d) == 0:
        raise ValueError("observation must be non-empty")
    op = _operator(d, config, if_map)
    objectives, residuals, bounds, ranks = [], [], [], []
    certified = False
    # No enumerate: it keeps the last iterate alive while the next is computed.
    for it in itertools.islice(_iterates(d, op, params), params.max_iter):
        objective = 0.5 * float(np.sum((it.x - d.samples) ** 2))
        objective += params.lam * nuclear_norm(it.ax)
        at_w = params.rho * it.at_u
        dual = float(at_w @ d.samples) - 0.5 * float(at_w @ at_w)
        bound = math.sqrt(2.0 * max(objective - dual, 0.0))
        objectives.append(objective)
        residuals.append(float(np.linalg.norm(it.ax - it.Z)))
        bounds.append(bound)
        ranks.append(it.kept)
        x = it.x
        certified = (params.tol > 0 and len(bounds) >= 2
                     and bound <= params.tol * float(np.linalg.norm(x)))
        if certified:
            break
        del it  # so the next thresholding step's Z can reuse this one's memory

    out = SignalBuffer(x, d.sample_rate_hz)
    state = AdmmState(
        x=out,
        d=d,
        params=params,
        config=config,
        if_map=if_map,
        certified=certified,
        objective_history=objectives,
        residual_history=residuals,
        bound_history=bounds,
        rank_history=ranks,
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
    row runs ``replace(params, lam=lam)`` for its grid value.
    Rows come back sorted by lam ascending.
    """
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if any(not 0 < g < math.inf for g in grid):
        raise ValueError("lambda grid values must be positive and finite")
    if len(clean) != len(d):
        raise ValueError("clean reference length must match the observation")
    if if_map is None:
        if_map = estimate_if_for(d, config)
    rows = []
    for lam in sorted(grid):
        x, state = denoise(d, replace(params, lam=lam), config, if_map=if_map)
        rows.append(
            LambdaSweepRow(lam, snr_db(clean, x), state.objective_history[-1], x)
        )
    return rows
