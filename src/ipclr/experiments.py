"""Reproducible rank-k approximation and denoising experiments.

The experiments measure how well rank-k truncation of three spectrogram
representations (amplitude, plain complex, phase-corrected complex)
preserves a harmonic test signal, optionally under additive noise, and
drive the nuclear-norm denoiser.  Conventions shared by all of them:

- test signal: sum of H sinusoids with amplitudes 10 - h and frequencies
  (h+1) * 100 Hz at a 16 kHz sampling rate;
- analysis with the plain Hann window in ``valid`` framing, so every
  column is a complete windowed patch and the rank structure of the
  sinusoids is not disturbed by boundary padding;
- rank-k approximation and SNR scoring on the one-sided half spectrum
  (rows 0..L/2): a real sinusoid contributes one ridge there instead of a
  conjugate pair, so its patch structure occupies a single rank;
- amplitude-mode approximations are recombined with the observed phase
  before scoring;
- noise is complex Gaussian added per time-frequency bin (the waveform
  variant is available via ``noise_domain="time"``), with the input SNR
  realized exactly on the observed matrix;
- the SNR of a cell compares the approximated observation against the
  clean spectrogram of the same representation pipeline.

Cells are pure functions of their parameters.  ``run_table1`` shares the
work they have in common: per hop it builds the clean spectrogram and the
clean-signal corrector once, and per (hop, level, seed) one observation
that all three representations truncate; only a corrector estimated from
a noisy waveform is built per observation.  Every IF map comes from
``ifreq.estimate_if_from``, fed the Hann spectrogram already taken for the
cells, so no spectrogram is taken twice.  Table 1's cells are rank 1 and
take the top singular pair from the Gram matrix (``rank_one_approx``);
Fig. 3's rank-k curves factor each observation with the LAPACK ``svd``.
Both use the threads of the BLAS library.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .frames import Spectrogram, StftConfig, hann_window, stft
from .ifreq import IfMap, estimate_if, estimate_if_from  # estimate_if: wrapped by perfbench
from .ipc import build_corrector
from .lowrank import rank_one_approx, svd
from .signals import (
    SignalBuffer,
    SinusoidSpec,
    add_complex_noise_at_snr,
    add_noise_at_snr,
    snr_db,
    synth_sinusoid_sum,
)

SAMPLE_RATE_HZ = 16000.0
WINDOW_LEN = 4096
BASE_FREQ_HZ = 100.0
TABLE_DURATION_S = 10.24
SHIFT_DIVISORS = (2, 4, 8)
INPUT_SNRS_DB = (0.0, 10.0, 20.0)
REPRESENTATIONS = ("amplitude", "stft", "ipc")


def harmonic_specs(count: int = 3, base_hz: float = BASE_FREQ_HZ) -> list[SinusoidSpec]:
    """Test recipe: A_h = 10 - h, f_h = (h+1) * base_hz."""
    return [
        SinusoidSpec(amplitude=10.0 - h, frequency_hz=(h + 1) * base_hz)
        for h in range(count)
    ]


def default_signal(count: int = 3, duration_s: float = TABLE_DURATION_S) -> SignalBuffer:
    return synth_sinusoid_sum(harmonic_specs(count), duration_s, SAMPLE_RATE_HZ)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run (a sweep or a single cell)."""

    kind: str
    sinusoid_count: int = 3
    duration_s: float = TABLE_DURATION_S
    window_len: int = WINDOW_LEN
    shift_divisors: tuple[int, ...] = SHIFT_DIVISORS
    input_snrs_db: tuple[float, ...] = INPUT_SNRS_DB
    seeds: tuple[int, ...] = tuple(range(10))
    noise_domain: str = "tf"
    if_source: str = "clean"
    k_values: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.kind not in ("table1", "fig3"):
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        _check_noise(self.noise_domain, self.if_source)


def _check_noise(noise_domain: str, if_source: str) -> None:
    if noise_domain not in ("tf", "time"):
        raise ValueError("noise_domain must be 'tf' or 'time'")
    if if_source not in ("clean", "noisy"):
        raise ValueError("if_source must be 'clean' or 'noisy'")
    if if_source == "noisy" and noise_domain == "tf":
        raise ValueError("if_source='noisy' needs noise_domain='time' (a waveform)")


def analysis_config(window_len: int, shift_divisor: int,
                    window_kind: str = "hann") -> StftConfig:
    """The config of window ``window_len`` at hop ``window_len // shift_divisor``."""
    if shift_divisor < 1:
        raise ValueError(f"shift divisor must be at least 1, got {shift_divisor}")
    return StftConfig(window_len, window_len // shift_divisor, window_kind)


def estimate_if_valid(signal: SignalBuffer, config: StftConfig) -> IfMap:
    """One-sided IF map of a real signal under the Hann/derivative pair in valid framing."""
    return estimate_if_from(signal, valid_spectrogram(signal, config))


@dataclass(frozen=True)
class RankCell:
    """One (representation, hop, noise level, k, seed) measurement."""

    representation: str
    shift_divisor: int
    input_snr_db: float | None
    k: int
    seed: int
    snr_db: float


def valid_spectrogram(signal: SignalBuffer, config: StftConfig) -> Spectrogram:
    """One-sided Hann spectrogram of ``signal`` in valid framing (C-contiguous data)."""
    return stft(signal, config, hann_window(config.window_len), "valid", one_sided=True)


def observe(
    clean: SignalBuffer,
    s_clean: Spectrogram,
    input_snr_db: float | None,
    seed: int,
    noise_domain: str,
) -> tuple[np.ndarray, SignalBuffer, Spectrogram]:
    """Return ``(x_obs, observed, s_observed)`` for ``clean`` and its ``valid_spectrogram``.

    ``s_observed`` is the Hann spectrogram of the ``observed`` waveform.
    ``input_snr_db=None`` observes the clean signal.  Bin-wise (``"tf"``) noise
    has no waveform, so the observed signal is then ``clean`` itself.
    """
    if input_snr_db is None:
        return s_clean.data, clean, s_clean
    if noise_domain == "time":
        noisy = add_noise_at_snr(clean, input_snr_db, seed)
        s_noisy = valid_spectrogram(noisy, s_clean.config)
        return s_noisy.data, noisy, s_noisy
    return add_complex_noise_at_snr(s_clean.data, input_snr_db, seed), clean, s_clean


def unit_phase(x: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """``x / mag`` for ``mag = |x|``, with 1 where ``|x| = 0`` (as ``np.angle(0) = 0``)."""
    return np.divide(x, mag, out=np.ones_like(x), where=mag != 0)


def represent(
    x: np.ndarray, representation: str, e: np.ndarray | None
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Return ``(matrix, back)``: what rank-k truncation acts on, and the map back.

    ``amplitude`` truncates ``|x|`` and restores the phase of ``x``
    (``unit_phase``); ``ipc`` truncates ``E * x`` with a corrector ``e`` of
    the shape of ``x`` (the other representations ignore ``e``).
    """
    if representation == "amplitude":
        mag = np.abs(x)
        phase = unit_phase(x, mag)
        return mag, lambda m: m * phase
    if representation == "stft":
        return x, lambda m: m
    if representation != "ipc":
        raise ValueError(f"unknown representation: {representation!r}")
    return e * x, lambda m: np.conj(e) * m


def _rank_one_snr(
    x_clean: np.ndarray, x_obs: np.ndarray, representation: str, e: np.ndarray | None
) -> float:
    m, back = represent(x_obs, representation, e)
    return snr_db(x_clean, back(rank_one_approx(m)))


def rank_cell_snr(
    clean: SignalBuffer,
    config: StftConfig,
    representation: str,
    k: int,
    input_snr_db: float | None = None,
    seed: int = 0,
    noise_domain: str = "tf",
    if_source: str = "clean",
) -> float:
    """SNR of the rank-1 approximated observation against the clean spectrogram.

    One cell of ``run_table1``, computed through the same helpers.  ``k``
    must be 1: the Gram route of ``rank_one_approx`` is accurate for the
    top singular pair only, and ``run_fig3`` is the rank-k path.
    ``input_snr_db=None`` runs the noise-free cell.  All scoring happens on
    the one-sided half spectrum.  ``if_source="noisy"`` estimates the phase
    correction from the noisy waveform and so needs ``noise_domain="time"``:
    bin-wise noise has no waveform, and the pair is a ValueError.
    """
    if k != 1:
        raise ValueError(
            f"Table 1 cells are rank-1, got k={k}; run_fig3 is the rank-k path"
        )
    _check_noise(noise_domain, if_source)
    s_clean = valid_spectrogram(clean, config)
    x_obs, observed, s_obs = observe(clean, s_clean, input_snr_db, seed, noise_domain)
    if_signal, s_if = (clean, s_clean) if if_source == "clean" else (observed, s_obs)
    e = build_corrector(estimate_if_from(if_signal, s_if)) if representation == "ipc" else None
    return _rank_one_snr(s_clean.data, x_obs, representation, e)


def run_table1(spec: ExperimentSpec) -> list[RankCell]:
    """Rank-1 SNR sweep over representations, hops, and input noise levels.

    Noisy cells are repeated per seed; the clean column is deterministic
    and runs once (seed -1).  Cells are computed hop by hop, sharing the
    clean spectrogram and corrector of each hop and the observation of each
    (level, seed), and returned ordered by representation, hop, then level
    and seed, with the clean cell last.
    """
    clean = default_signal(spec.sinusoid_count, spec.duration_s)
    noisy = [(level, seed) for level in spec.input_snrs_db for seed in spec.seeds]
    cells: dict[str, list[RankCell]] = {r: [] for r in REPRESENTATIONS}
    for div in spec.shift_divisors:
        s_clean = valid_spectrogram(clean, analysis_config(spec.window_len, div))
        e_clean = build_corrector(estimate_if_from(clean, s_clean))
        for level, seed in noisy + [(None, -1)]:
            x_obs, observed, s_obs = observe(clean, s_clean, level, seed, spec.noise_domain)
            if spec.if_source == "clean" or observed is clean:
                e = e_clean
            else:  # a corrector from the noisy waveform
                e = build_corrector(estimate_if_from(observed, s_obs))
            for representation in REPRESENTATIONS:
                value = _rank_one_snr(s_clean.data, x_obs, representation, e)
                cells[representation].append(
                    RankCell(representation, div, level, 1, seed, value)
                )
    return [cell for representation in REPRESENTATIONS for cell in cells[representation]]


def table1_layout(cells: list[RankCell]) -> list[dict]:
    """Seed-averaged rows in the representation x shift layout.

    The hops and noise levels are those of ``cells``, in the order they
    first appear.  A row gets no key for a level it has no cells at; the
    clean column is the row's first clean cell.
    """
    groups: dict[tuple, list[float]] = {}
    for c in cells:
        key = (c.representation, c.shift_divisor, c.input_snr_db)
        groups.setdefault(key, []).append(c.snr_db)
    levels = dict.fromkeys(c.input_snr_db for c in cells if c.input_snr_db is not None)
    rows = []
    for representation in REPRESENTATIONS:
        for div in dict.fromkeys(c.shift_divisor for c in cells):
            row = {"representation": representation, "shift": f"1/{div}"}
            for level in levels:
                if values := groups.get((representation, div, level)):
                    row[f"snr_in_{level:g}"] = float(np.mean(values))
            if clean := groups.get((representation, div, None)):
                row["clean"] = clean[0]
            rows.append(row)
    return rows


def run_fig3(spec: ExperimentSpec, input_snr_db: float | None) -> list[RankCell]:
    """Rank-k SNR curves for every representation over the given k range.

    Only the spec's first hop and first seed are used (seed 0 when it has
    none).  The SVD of each observation is factored once; truncations reuse
    it.
    """
    clean = default_signal(spec.sinusoid_count, spec.duration_s)
    div = spec.shift_divisors[0]
    config = analysis_config(spec.window_len, div)
    seed = spec.seeds[0] if spec.seeds else 0
    s_clean = valid_spectrogram(clean, config)
    x_obs, observed, s_obs = observe(clean, s_clean, input_snr_db, seed, spec.noise_domain)
    if_signal, s_if = (clean, s_clean) if spec.if_source == "clean" else (observed, s_obs)
    e = build_corrector(estimate_if_from(if_signal, s_if))
    cell_seed = seed if input_snr_db is not None else -1

    cells = []
    for representation in REPRESENTATIONS:
        m, back = represent(x_obs, representation, e)
        factors = svd(m)
        for k in spec.k_values:
            value = snr_db(s_clean.data, back(factors.reconstruct(k)))
            cells.append(RankCell(representation, div, input_snr_db, k, cell_seed, value))
    return cells
