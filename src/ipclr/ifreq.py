"""Per-bin instantaneous frequency from a derivative-window spectrogram pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Spectrogram, StftConfig, derivative_window, stft
from .signals import SignalBuffer

DEFAULT_GUARD_EPS = 1e-6


@dataclass(frozen=True)
class IfMap:
    """Instantaneous frequency per bin, in DFT-grid cycles per window length.

    Same shape as the source spectrogram pair, so a real signal's map is
    one-sided ((L/2+1) x T) when the pair is.  Bins whose magnitude fell
    below the guard threshold carry the carrier frequency of their own bin
    index.
    """

    values: np.ndarray
    config: StftConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("IF map must be a 2-D matrix")
        object.__setattr__(self, "values", values)


def estimate_if(
    spec_w: Spectrogram,
    spec_wprime: Spectrogram,
    guard_eps: float = DEFAULT_GUARD_EPS,
) -> IfMap:
    """Estimate the IF map from spectrograms under w and its derivative.

    At bins where |S_w| >= guard_eps * max|S_w| the estimate is

        v[xi, tau] = xi - Im[S_w'[xi, tau] / S_w[xi, tau]]

    (bin units, frequency step 1); elsewhere it falls back to the bin
    carrier v = xi.  Low-amplitude bins contribute little to the phase
    correction, so the crude fallback is sufficient.
    """
    if spec_w.data.shape != spec_wprime.data.shape:
        raise ValueError("spectrogram pair must share one shape")
    if spec_w.config != spec_wprime.config or spec_w.framing != spec_wprime.framing:
        raise ValueError("spectrogram pair must share one configuration")
    mag = np.abs(spec_w.data)
    peak = mag.max()
    ratio = np.zeros_like(spec_w.data)  # stays 0, so v = xi, where the guard fails
    if peak > 0.0:
        np.divide(spec_wprime.data, spec_w.data, out=ratio, where=mag >= guard_eps * peak)
    bins = np.arange(spec_w.n_bins, dtype=np.float64)[:, None]
    return IfMap(values=bins - ratio.imag, config=spec_w.config)


def estimate_if_from(signal: SignalBuffer, s_w: Spectrogram) -> IfMap:
    """IF map of a real ``signal`` from its Hann spectrogram ``s_w``.

    The derivative-window spectrogram is taken with the config, framing and
    sidedness of ``s_w``, so the map has the shape of ``s_w``.  This is the
    only place that pairs the Hann window with its derivative.
    """
    L = s_w.config.window_len
    s_wp = stft(signal, s_w.config, derivative_window(L), s_w.framing,
                one_sided=s_w.n_bins != L)
    return estimate_if(s_w, s_wp)
