"""Per-bin instantaneous frequency from a derivative-window spectrogram pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Spectrogram, StftConfig

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
    bins = np.arange(spec_w.n_bins, dtype=np.float64)[:, None]
    values = np.broadcast_to(bins, spec_w.data.shape).copy()
    if peak > 0.0:
        ok = mag >= guard_eps * peak
        ratio = np.zeros_like(spec_w.data)
        np.divide(spec_wprime.data, spec_w.data, out=ratio, where=ok)
        values[ok] = (values - ratio.imag)[ok]
    return IfMap(values=values, config=spec_w.config)
