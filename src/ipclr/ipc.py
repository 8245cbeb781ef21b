"""Instantaneous phase correction: build the unimodular matrix E and apply it.

E counter-rotates each bin by its accumulated phase advance so that the
phase evolution of sinusoidal components is cancelled; the corrected
spectrogram of a sum of well-separated sinusoids has (near-)identical
columns and therefore collapses to rank one.  The correction is inverted
exactly by the complex conjugate of E.  E has the shape of its IF map:
one-sided for the one-sided map of a real signal, two-sided otherwise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .frames import Spectrogram, istft
from .ifreq import IfMap
from .signals import SignalBuffer


def build_corrector(v: IfMap) -> np.ndarray:
    """Cumulative per-hop counter-rotation E[xi, tau] from an IF map.

    E[:, 0] = 1 and E[:, tau] = exp(-2j*pi*frac(a/L * sum_{t<tau} v[:, t])),
    the closed form of the recurrence E[:, tau] = E[:, tau-1] *
    exp(-2j*pi*v[:, tau-1]*a/L).  Every entry is one cos/sin pair of a
    phase reduced to [0, 1) cycles, so it is unimodular to rounding and
    cannot drift over long signals.  For the two-sided IF map of a real
    signal, v[K-j] = K - v[j] and a is an integer, so E[K-j] = conj(E[j]):
    rows 0..L/2 carry all of E.
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
    return E


def ipc_stft(spec: Spectrogram, E: np.ndarray) -> Spectrogram:
    """Hadamard product E * S."""
    if E.shape != spec.data.shape:
        raise ValueError("corrector shape does not match spectrogram shape")
    return replace(spec, data=E * spec.data)


def ipc_istft(spec_ipc: Spectrogram, E: np.ndarray, w_synth: np.ndarray) -> SignalBuffer:
    """Undo the phase correction with conj(E), then invert the two-sided STFT."""
    if E.shape != spec_ipc.data.shape:
        raise ValueError("corrector shape does not match spectrogram shape")
    return istft(replace(spec_ipc, data=np.conj(E) * spec_ipc.data), w_synth)
