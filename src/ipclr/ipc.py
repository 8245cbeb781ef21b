"""Instantaneous phase correction: build the unimodular matrix E and apply it.

E counter-rotates each bin by its accumulated phase advance so that the
phase evolution of sinusoidal components is cancelled; the corrected
spectrogram of a sum of well-separated sinusoids has (near-)identical
columns and therefore collapses to rank one.  The correction is inverted
exactly by the complex conjugate of E.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frames import Spectrogram, istft
from .ifreq import IfMap
from .signals import SignalBuffer


@dataclass(frozen=True)
class PhaseCorrector:
    """Unimodular phase-correction matrix."""

    E: np.ndarray

    def conjugate(self) -> np.ndarray:
        return np.conj(self.E)


def build_corrector(v: IfMap) -> PhaseCorrector:
    """Cumulative per-hop counter-rotation E[xi, tau] from an IF map.

    E[:, 0] = 1 and E[:, tau] = exp(-2j*pi*frac(a/L * sum_{t<tau} v[:, t])),
    the closed form of the recurrence E[:, tau] = E[:, tau-1] *
    exp(-2j*pi*v[:, tau-1]*a/L).  Every entry is one cos/sin pair of a
    phase reduced to [0, 1) cycles, so it is unimodular to rounding and
    cannot drift over long signals.  For the IF map of a real signal,
    v[K-j] = K - v[j] and a is an integer, so E[K-j] = conj(E[j]).
    """
    values = v.values
    if not np.all(np.isfinite(values)):
        raise ValueError("IF map contains non-finite values")
    a, L = v.config.hop, v.config.window_len
    angle = np.zeros(values.shape)
    np.cumsum(values[:, :-1], axis=1, out=angle[:, 1:])
    angle *= a / L
    angle -= np.floor(angle)
    angle *= -2.0 * np.pi
    E = np.empty(values.shape, dtype=np.complex128)
    np.cos(angle, out=E.real)
    np.sin(angle, out=E.imag)
    return PhaseCorrector(E=E)


def ipc_stft(spec: Spectrogram, corrector: PhaseCorrector) -> Spectrogram:
    """Hadamard product E * S."""
    if corrector.E.shape != spec.data.shape:
        raise ValueError("corrector shape does not match spectrogram shape")
    return replace(spec, data=corrector.E * spec.data)


def ipc_istft(
    spec_ipc: Spectrogram, corrector: PhaseCorrector, w_synth: np.ndarray
) -> SignalBuffer:
    """Undo the phase correction with conj(E), then invert the STFT."""
    if corrector.E.shape != spec_ipc.data.shape:
        raise ValueError("corrector shape does not match spectrogram shape")
    plain = replace(spec_ipc, data=corrector.conjugate() * spec_ipc.data)
    return istft(plain, w_synth)
