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

Cells are pure functions of their parameters; sweeps fan out over a
thread pool capped by the IPCLR_THREADS environment variable.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .denoise import estimate_if_for
from .frames import (
    StftConfig,
    derivative_window,
    hann_window,
    one_sided,
    stft,
)
from .ifreq import IfMap, estimate_if
from .ipc import build_corrector
from .lowrank import svd
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


def default_signal(
    count: int = 3,
    duration_s: float = TABLE_DURATION_S,
    sample_rate_hz: float = SAMPLE_RATE_HZ,
) -> SignalBuffer:
    return synth_sinusoid_sum(harmonic_specs(count), duration_s, sample_rate_hz)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run (a sweep or a single cell)."""

    kind: str
    sinusoid_count: int = 3
    duration_s: float = TABLE_DURATION_S
    sample_rate_hz: float = SAMPLE_RATE_HZ
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
        if self.noise_domain not in ("tf", "time"):
            raise ValueError("noise_domain must be 'tf' or 'time'")
        if self.if_source not in ("clean", "noisy"):
            raise ValueError("if_source must be 'clean' or 'noisy'")


def _threads() -> int:
    env = os.environ.get("IPCLR_THREADS", "")
    if not env.strip():
        return os.cpu_count() or 1
    if not env.strip().isdigit() or int(env) < 1:
        raise ValueError(f"IPCLR_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _pmap(fn, items):
    workers = min(_threads(), max(1, len(items)))
    if workers == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def analysis_config(window_len: int, shift_divisor: int) -> StftConfig:
    return StftConfig(window_len=window_len, hop=window_len // shift_divisor)


def estimate_if_valid(signal: SignalBuffer, config: StftConfig) -> IfMap:
    """IF map under the Hann/derivative pair in valid framing."""
    s_w = stft(signal, config, hann_window(config.window_len), framing="valid")
    s_wp = stft(signal, config, derivative_window(config.window_len), framing="valid")
    return estimate_if(s_w, s_wp)


@dataclass(frozen=True)
class RankCell:
    """One (representation, hop, noise level, k, seed) measurement."""

    representation: str
    shift_divisor: int
    input_snr_db: float | None
    k: int
    seed: int
    snr_db: float


def observe(
    clean: SignalBuffer,
    config: StftConfig,
    input_snr_db: float | None,
    seed: int,
    noise_domain: str,
) -> tuple[np.ndarray, np.ndarray, SignalBuffer]:
    """Return ``(x_clean, x_obs, observed_signal)``, one-sided in valid framing.

    ``input_snr_db=None`` observes the clean signal.  Bin-wise (``"tf"``) noise
    has no waveform, so the observed signal is then ``clean`` itself.
    """
    w = hann_window(config.window_len)
    x_clean = one_sided(stft(clean, config, w, framing="valid").data)
    if input_snr_db is None:
        return x_clean, x_clean, clean
    if noise_domain == "time":
        noisy = add_noise_at_snr(clean, input_snr_db, seed)
        return x_clean, one_sided(stft(noisy, config, w, framing="valid").data), noisy
    return x_clean, add_complex_noise_at_snr(x_clean, input_snr_db, seed), clean


def represent(
    x: np.ndarray,
    representation: str,
    if_signal: SignalBuffer,
    config: StftConfig,
    framing: str = "valid",
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Return ``(matrix, back)``: what rank-k truncation acts on, and the map back.

    ``amplitude`` truncates ``|x|`` and restores the phase of ``x``; ``ipc``
    truncates ``E * x`` with ``E`` from the IF map of ``if_signal``.  ``x`` is
    one-sided for ``valid`` framing and two-sided for ``cover``.
    """
    if representation == "amplitude":
        phase = np.exp(1j * np.angle(x))
        return np.abs(x), lambda m: m * phase
    if representation == "stft":
        return x, lambda m: m
    if representation != "ipc":
        raise ValueError(f"unknown representation: {representation!r}")
    if framing == "cover":
        e = build_corrector(estimate_if_for(if_signal, config)).E
    else:
        e = one_sided(build_corrector(estimate_if_valid(if_signal, config)).E)
    return e * x, lambda m: np.conj(e) * m


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
    """SNR of the rank-k approximated observation against the clean spectrogram.

    ``input_snr_db=None`` runs the noise-free cell.  All scoring happens on
    the one-sided half spectrum.  ``if_source="noisy"`` takes effect only
    with ``noise_domain="time"``: bin-wise noise has no waveform for the
    estimator to look at, so the phase correction then comes from the
    clean signal.
    """
    x_clean, x_obs, observed = observe(clean, config, input_snr_db, seed, noise_domain)
    if_signal = clean if if_source == "clean" else observed
    m, back = represent(x_obs, representation, if_signal, config)
    return snr_db(x_clean, back(svd(m).reconstruct(k)))


def run_table1(spec: ExperimentSpec) -> list[RankCell]:
    """Rank-1 SNR sweep over representations, hops, and input noise levels.

    Noisy cells are repeated per seed; the clean column is deterministic
    and runs once (seed -1).
    """
    clean = default_signal(spec.sinusoid_count, spec.duration_s, spec.sample_rate_hz)
    jobs: list[tuple[str, int, float | None, int]] = []
    for representation in REPRESENTATIONS:
        for div in spec.shift_divisors:
            for level in spec.input_snrs_db:
                for seed in spec.seeds:
                    jobs.append((representation, div, level, seed))
            jobs.append((representation, div, None, -1))

    def run(job):
        representation, div, level, seed = job
        config = analysis_config(spec.window_len, div)
        value = rank_cell_snr(
            clean,
            config,
            representation,
            k=1,
            input_snr_db=level,
            seed=seed,
            noise_domain=spec.noise_domain,
            if_source=spec.if_source,
        )
        return RankCell(representation, div, level, 1, seed, value)

    return _pmap(run, jobs)


def table1_layout(
    cells: list[RankCell],
    shift_divisors: tuple[int, ...] = SHIFT_DIVISORS,
    input_snrs_db: tuple[float, ...] = INPUT_SNRS_DB,
) -> list[dict]:
    """Seed-averaged rows in the representation x shift layout."""
    rows = []
    for representation in REPRESENTATIONS:
        for div in shift_divisors:
            row = {"representation": representation, "shift": f"1/{div}"}
            for level in input_snrs_db:
                values = [
                    c.snr_db
                    for c in cells
                    if c.representation == representation
                    and c.shift_divisor == div
                    and c.input_snr_db == level
                ]
                if values:
                    row[f"snr_in_{level:g}"] = float(np.mean(values))
            clean_values = [
                c.snr_db
                for c in cells
                if c.representation == representation
                and c.shift_divisor == div
                and c.input_snr_db is None
            ]
            if clean_values:
                row["clean"] = clean_values[0]
            rows.append(row)
    return rows


def run_fig3(spec: ExperimentSpec, input_snr_db: float | None) -> list[RankCell]:
    """Rank-k SNR curves for every representation over the given k range.

    The SVD of each observation is factored once; truncations reuse it.
    """
    clean = default_signal(spec.sinusoid_count, spec.duration_s, spec.sample_rate_hz)
    div = spec.shift_divisors[0]
    config = analysis_config(spec.window_len, div)
    seed = spec.seeds[0] if spec.seeds else 0
    x_clean, x_obs, observed = observe(clean, config, input_snr_db, seed, spec.noise_domain)
    if_signal = clean if spec.if_source == "clean" else observed
    cell_seed = seed if input_snr_db is not None else -1

    cells = []
    for representation in REPRESENTATIONS:
        m, back = represent(x_obs, representation, if_signal, config)
        factors = svd(m)
        for k in spec.k_values:
            value = snr_db(x_clean, back(factors.reconstruct(k)))
            cells.append(RankCell(representation, div, input_snr_db, k, cell_seed, value))
    return cells
