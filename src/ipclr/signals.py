"""Synthetic test signals (sinusoid sums, seeded noise) and fidelity metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SignalBuffer:
    """Real-valued time-domain samples with a sampling rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


@dataclass(frozen=True)
class SinusoidSpec:
    """One sinusoid: amplitude, frequency in Hz, initial phase in radians."""

    amplitude: float
    frequency_hz: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")


def synth_sinusoid_sum(
    specs: list[SinusoidSpec], duration_s: float, sample_rate_hz: float
) -> SignalBuffer:
    """Synthesize sum_h A_h * sin(2*pi*f_h*l/fs + phi_h).

    An empty spec list gives an all-zero buffer.  Frequencies must be
    pairwise distinct and below Nyquist, and the duration must round to at
    least one sample.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
    if not 0 < sample_rate_hz < math.inf:
        raise ValueError(f"sample_rate_hz must be positive and finite, got {sample_rate_hz}")
    freqs = [s.frequency_hz for s in specs]
    if len(set(freqs)) != len(freqs):
        raise ValueError("sinusoid frequencies must be pairwise distinct")
    nyquist = sample_rate_hz / 2.0
    for s in specs:
        if not 0 <= s.frequency_hz < nyquist:
            raise ValueError(
                f"frequency {s.frequency_hz} Hz outside [0, Nyquist={nyquist} Hz)"
            )
    n = round(duration_s * sample_rate_hz)
    if n == 0:
        raise ValueError(f"duration_s={duration_s} s is shorter than one sample "
                         f"at {sample_rate_hz:g} Hz")
    t = np.arange(n) / sample_rate_hz
    samples = np.zeros(n)
    for s in specs:
        samples += s.amplitude * np.sin(2.0 * np.pi * s.frequency_hz * t + s.phase)
    return SignalBuffer(samples, sample_rate_hz)


def _energy(a: np.ndarray) -> float:
    """Squared Frobenius norm of a real or complex array."""
    return float(np.vdot(a, a).real)


def _check_target(target_snr_db: float) -> None:
    if math.isnan(target_snr_db) or target_snr_db == -math.inf:
        raise ValueError(f"target_snr_db must be finite or +inf, got {target_snr_db}")


def add_noise_at_snr(
    clean: SignalBuffer, target_snr_db: float, seed: int
) -> SignalBuffer:
    """Add white Gaussian noise in the time domain at an exact realized SNR.

    The noise vector is scaled after sampling so that
    10*log10(||clean||^2 / ||noise||^2) equals ``target_snr_db`` for the
    realized draw, which makes per-seed comparisons reproducible.  A target
    of +inf returns the clean signal unchanged; NaN and -inf raise
    ValueError.  The energies are summed as ``np.sum(x**2)``, not by
    ``vdot``, so that a seed gives the same waveform to the last bit as
    before: the denoiser's results and the acceptance report depend on it.
    """
    _check_target(target_snr_db)
    energy = float(np.sum(clean.samples**2))
    if energy == 0.0:
        raise ValueError("clean signal has zero energy")
    if target_snr_db == math.inf:
        return clean
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(clean))
    scale = math.sqrt(energy / np.sum(noise**2)) * 10.0 ** (-target_snr_db / 20.0)
    return SignalBuffer(clean.samples + scale * noise, clean.sample_rate_hz)


def add_complex_noise_at_snr(
    clean: np.ndarray, target_snr_db: float, seed: int
) -> np.ndarray:
    """Add white complex Gaussian noise per time-frequency bin.

    Companion to :func:`add_noise_at_snr` for experiments that degrade the
    spectrogram directly rather than the waveform.  Same exact-SNR scaling
    rule, applied to the complex matrix; the real parts of the noise are
    drawn first, then the imaginary parts.
    """
    _check_target(target_snr_db)
    clean = np.asarray(clean)
    energy = _energy(clean)
    if energy == 0.0:
        raise ValueError("clean matrix has zero energy")
    if target_snr_db == math.inf:
        return clean.copy()
    rng = np.random.default_rng(seed)
    noise = np.empty(clean.shape, dtype=np.complex128)
    noise.real = rng.standard_normal(clean.shape)
    noise.imag = rng.standard_normal(clean.shape)
    scale = math.sqrt(energy / _energy(noise))
    scale *= 10.0 ** (-target_snr_db / 20.0)
    noise *= scale
    noise += clean
    return noise


def snr_db(reference, estimate) -> float:
    """10*log10(||reference||^2 / ||reference - estimate||^2).

    Accepts SignalBuffer or array-like (real or complex); shapes must match.
    Returns +inf when the estimate equals the reference exactly.
    """
    ref = np.asarray(reference.samples if isinstance(reference, SignalBuffer) else reference)
    est = np.asarray(estimate.samples if isinstance(estimate, SignalBuffer) else estimate)
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {est.shape}")
    ref_energy = _energy(ref)
    if ref_energy == 0.0:
        raise ValueError("reference has zero energy")
    err_energy = _energy(ref - est)
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(ref_energy / err_energy)
