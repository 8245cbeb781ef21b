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

    E[:, 0] = 1 and E[:, tau] = E[:, tau-1] * exp(-2j*pi*v[:, tau-1]*a/L),
    renormalized to unit modulus every frame so the running product cannot
    drift over long signals.
    """
    values = v.values
    if not np.all(np.isfinite(values)):
        raise ValueError("IF map contains non-finite values")
    a, L = v.config.hop, v.config.window_len
    step = np.exp(-2j * np.pi * values * a / L)
    E = np.empty(values.shape, dtype=np.complex128)
    E[:, 0] = 1.0
    for tau in range(1, values.shape[1]):
        col = E[:, tau - 1] * step[:, tau - 1]
        E[:, tau] = col / np.abs(col)
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
