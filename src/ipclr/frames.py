"""Window design and forward/inverse STFT with a Parseval-tight frame.

The transform follows the windowed-DFT convention

    S[xi, tau] = sum_l x[l + a*tau] * w[l] * exp(-2j*pi*xi*l/L)

with window_len two-sided bins on the exact DFT grid (K = L rows,
xi = 0..L-1) and an unnormalized DFT.  Rows 0..L/2 hold all of a real
signal's transform: ``stft(..., one_sided=True)`` computes only those with
a real FFT, and ``istft`` inverts either form.  The FFTs run along the
frames held one per row (T x L); ``windowed_frames``, ``rfft_rows`` and
``irfft_synthesize`` are those steps in that order, and the first two fill
buffers a caller passes in.  Two framing rules exist:

``cover``
    The signal is zero-padded by L - a samples on the left and enough on
    the right that every original sample is covered by a complete lattice
    of window shifts; frame count is ceil(n/a) + L/a - 1.  With the
    canonical tight window this makes the transform Parseval (frame bound
    one) and exactly invertible by windowed overlap-add.

``valid``
    Frames start at sample 0 and only complete frames that lie entirely
    inside the signal are kept (frame count floor((n - L)/a) + 1).  Every
    column is then a pure windowed patch of the signal, which preserves
    the algebraic rank structure of sinusoid spectrograms; this mode is
    not invertible and is meant for analysis experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SignalBuffer

FRAMINGS = ("cover", "valid")


@dataclass(frozen=True)
class StftConfig:
    """Transform geometry: window length L, hop a, and window family.

    Constraints: a divides L and a <= L/2 (painless overlap for tight-frame
    construction).  The transform has ``window_len`` two-sided bins on the
    exact DFT grid.
    """

    window_len: int
    hop: int
    window_kind: str = "hann"

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be at least 2")
        if self.hop < 1:
            raise ValueError("hop must be positive")
        if self.hop * 2 > self.window_len:
            raise ValueError("hop must not exceed window_len/2")
        if self.window_len % self.hop != 0:
            raise ValueError("hop must divide window_len")
        if self.window_kind not in ("hann", "hann_tight"):
            raise ValueError(f"unknown window_kind: {self.window_kind!r}")


@dataclass(frozen=True)
class Spectrogram:
    """Complex K x T matrix plus the configuration that produced it.

    K is L (two-sided) or L/2+1 (one-sided, of a real signal).
    ``origin_len`` is the pre-padding signal length; ``framing`` records
    which framing rule built the matrix.  Values are treated as immutable
    after construction.
    """

    data: np.ndarray
    config: StftConfig
    origin_len: int
    sample_rate_hz: float = 1.0
    framing: str = "cover"

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise ValueError("spectrogram data must be a 2-D matrix")
        if data.shape[0] not in (self.config.window_len, self.config.window_len // 2 + 1):
            raise ValueError("row count must be window_len or window_len // 2 + 1")
        if self.framing not in FRAMINGS:
            raise ValueError(f"unknown framing: {self.framing!r}")
        object.__setattr__(self, "data", data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann window w[l] = 0.5 - 0.5*cos(2*pi*l/L)."""
    if window_len < 2:
        raise ValueError("window_len must be at least 2")
    l = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * l / window_len)


def derivative_window(window_len: int) -> np.ndarray:
    """Per-sample time derivative of the Hann window, scaled by L/(2*pi).

    With this scaling the reassignment quotient Im[S_w' / S_w] comes out
    directly in DFT-bin units (cycles per window length); the sign and
    scale are pinned by the on-grid calibration test of the instantaneous
    frequency estimator.
    """
    if window_len < 2:
        raise ValueError("window_len must be at least 2")
    l = np.arange(window_len)
    return 0.5 * np.sin(2.0 * np.pi * l / window_len)


def shifted_square_sum(w: np.ndarray, hop: int) -> np.ndarray:
    """Periodic lattice sum s[l] = sum_n w^2[l - n*hop] (hop must divide L)."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if n % hop != 0:
        raise ValueError("hop must divide the window length")
    per_residue = w.reshape(-1, hop) ** 2
    return np.tile(per_residue.sum(axis=0), n // hop)


def canonical_tight_window(w: np.ndarray, hop: int) -> np.ndarray:
    """Normalize a window so the cover-mode STFT is a Parseval tight frame.

    Returns w[l] / sqrt(L * sum_n w^2[l - n*hop]).  The extra factor L
    absorbs the unnormalized DFT so that ||stft(x)||_F == ||x||_2 and the
    windowed overlap-add inverse is exact with the same window on both
    sides (frame bound one).
    """
    w = np.asarray(w, dtype=np.float64)
    if hop < 1 or hop * 2 > w.shape[0]:
        raise ValueError("hop must satisfy 1 <= hop <= len(w)/2")
    denom = shifted_square_sum(w, hop)
    if np.any(denom <= 0.0):
        raise ValueError("window/hop incompatible: shifted squared sum has zeros")
    return w / np.sqrt(w.shape[0] * denom)


def analysis_window(config: StftConfig) -> np.ndarray:
    """The window named by ``config.window_kind``."""
    w = hann_window(config.window_len)
    if config.window_kind == "hann_tight":
        return canonical_tight_window(w, config.hop)
    return w


def frame_count(origin_len: int, config: StftConfig, framing: str) -> int:
    """Number of frames produced by the given framing rule."""
    L, a = config.window_len, config.hop
    if framing == "cover":
        return -(-origin_len // a) + L // a - 1
    if framing == "valid":
        if origin_len < L:
            raise ValueError("valid framing requires the signal to span a full window")
        return (origin_len - L) // a + 1
    raise ValueError(f"unknown framing: {framing!r}")


def _pad_left(config: StftConfig, framing: str) -> int:
    return config.window_len - config.hop if framing == "cover" else 0


def frame_signal(x: np.ndarray, config: StftConfig, framing: str = "cover") -> np.ndarray:
    """Arrange a signal into the L x T patch matrix used by the transform.

    Both framings zero-pad the signal by ``_pad_left`` on the left and cut
    or pad it on the right to the last sample of the last frame; valid
    framing pads nothing on the left and only cuts.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    L, a = config.window_len, config.hop
    total = a * (frame_count(x.shape[0], config, framing) - 1) + L
    left = _pad_left(config, framing)
    padded = np.zeros(total, dtype=np.promote_types(x.dtype, np.float64))
    padded[left : left + x.shape[0]] = x[: total - left]
    return np.lib.stride_tricks.sliding_window_view(padded, L)[::a].T


def stft(
    x: SignalBuffer | np.ndarray,
    config: StftConfig,
    w: np.ndarray,
    framing: str = "cover",
    one_sided: bool = False,
) -> Spectrogram:
    """Forward STFT of a real or complex signal.

    ``w`` must have length ``config.window_len``.  Rows are DFT bins
    0..K-1, columns are frames in time order.  The FFT runs along the
    contiguous axis of the T x L windowed frames, and the result is
    returned C-contiguous.  With ``one_sided`` the signal must be real, the
    FFT is a real one and K = L/2+1.
    """
    if isinstance(x, SignalBuffer):
        samples, rate = x.samples, x.sample_rate_hz
    else:
        samples, rate = np.asarray(x), 1.0
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (config.window_len,):
        raise ValueError("window length does not match config.window_len")
    if one_sided and np.iscomplexobj(samples):
        raise ValueError(
            "one_sided needs a real signal: a complex signal's negative "
            "frequencies are not the conjugates of its positive ones"
        )
    frames = windowed_frames(samples, config, w, framing)
    data = rfft_rows(frames) if one_sided else np.fft.fft(frames, axis=1)
    return Spectrogram(
        data=np.ascontiguousarray(data.T),
        config=config,
        origin_len=samples.shape[0],
        sample_rate_hz=rate,
        framing=framing,
    )


def istft(spec: Spectrogram, w_synth: np.ndarray) -> SignalBuffer:
    """Windowed overlap-add inverse of a cover-mode STFT.

    For the canonical tight window as both analysis and synthesis window
    this reconstructs the original samples exactly (up to roundoff); it is
    also the adjoint of :func:`stft` restricted to real signals, which the
    ADMM solver relies on.  A one-sided spectrogram (L/2+1 rows) is read
    as half of a conjugate-symmetric one and inverted with the real
    inverse DFT.
    """
    if spec.framing != "cover":
        raise ValueError("only cover-mode spectrograms are invertible")
    L = spec.config.window_len
    w_synth = np.asarray(w_synth, dtype=np.float64)
    if w_synth.shape != (L,):
        raise ValueError("synthesis window length does not match config.window_len")
    if spec.n_bins == L:
        frames = (np.fft.ifft(spec.data.T, axis=1) * L).real
        samples = _synthesize(frames, spec.config, w_synth, spec.origin_len)
    else:
        samples = irfft_synthesize(spec.data.T, spec.config, w_synth, spec.origin_len)
    return SignalBuffer(samples, spec.sample_rate_hz)


def windowed_frames(
    x: np.ndarray,
    config: StftConfig,
    w: np.ndarray,
    framing: str = "cover",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The T x L windowed frames w[l] * x[l + a*tau] of :func:`frame_signal`, one per row.

    This is the layout the FFTs run along.  ``out``, when given, is filled
    and returned.
    """
    return np.multiply(w, frame_signal(x, config, framing).T, out=out)


def rfft_rows(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real DFT of each row of the T x L real ``frames``: bins 0..L/2, T x (L/2+1).

    ``out``, when given, is filled and returned.
    """
    return np.fft.rfft(frames, axis=1, out=out)


def irfft_synthesize(
    rows: np.ndarray,
    config: StftConfig,
    w_synth: np.ndarray,
    origin_len: int,
) -> np.ndarray:
    """Cover-mode inverse of a one-sided spectrogram held as T x (L/2+1) rows.

    Each row is read as half of a conjugate-symmetric DFT and inverted with
    the real inverse DFT into T x L frames, which are windowed by
    ``w_synth`` and overlap-added; the samples come back cropped to
    ``origin_len``.
    """
    frames = np.fft.irfft(rows, n=config.window_len, axis=1, norm="forward")
    return _synthesize(frames, config, w_synth, origin_len)


def _synthesize(
    frames: np.ndarray, config: StftConfig, w_synth: np.ndarray, origin_len: int
) -> np.ndarray:
    """Window the T x L frames in place, overlap-add them and crop to the signal."""
    frames *= w_synth
    buf = overlap_add(frames.T, config.hop)
    left = _pad_left(config, "cover")
    return buf[left : left + origin_len]


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum the L x T columns at offsets hop*tau into one hop*(T-1)+L buffer.

    This is the adjoint of :func:`frame_signal` before cropping.  hop must
    divide L; the work is L/hop whole-block additions, taken from the last
    block row to the first so that every sample accumulates its frames in
    time order.
    """
    L, n_frames = frames.shape
    blocks = L // hop
    buf = np.zeros((n_frames - 1 + blocks, hop), dtype=frames.dtype)
    for r in reversed(range(blocks)):
        buf[r : r + n_frames] += frames[r * hop : (r + 1) * hop].T
    return buf.reshape(-1)
