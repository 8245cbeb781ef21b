"""Instantaneous-phase-corrected STFT and nuclear-norm audio denoising.

The package turns complex spectrograms of harmonic signals into
approximately low-rank matrices by cancelling the per-bin phase evolution,
and exploits that structure through truncated SVD experiments and an ADMM
denoiser with a nuclear-norm prior.
"""

from .denoise import (
    AdmmParams,
    AdmmState,
    LambdaSweepRow,
    NumericalError,
    denoise,
    estimate_if_for,
    ipclr_objective,
    lambda_sweep,
)
from .frames import (
    Spectrogram,
    StftConfig,
    analysis_window,
    canonical_tight_window,
    derivative_window,
    frame_count,
    frame_signal,
    hann_window,
    istft,
    stft,
)
from .ifreq import IfMap, estimate_if, estimate_if_from
from .ipc import build_corrector, ipc_istft, ipc_stft
from .lowrank import SvdFactors, nuclear_norm, rank_k_approx, svd, svt
from .signals import (
    SignalBuffer,
    SinusoidSpec,
    add_complex_noise_at_snr,
    add_noise_at_snr,
    snr_db,
    synth_sinusoid_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmParams",
    "AdmmState",
    "IfMap",
    "LambdaSweepRow",
    "NumericalError",
    "SignalBuffer",
    "SinusoidSpec",
    "Spectrogram",
    "StftConfig",
    "SvdFactors",
    "add_complex_noise_at_snr",
    "add_noise_at_snr",
    "analysis_window",
    "build_corrector",
    "canonical_tight_window",
    "denoise",
    "derivative_window",
    "estimate_if",
    "estimate_if_for",
    "estimate_if_from",
    "frame_count",
    "frame_signal",
    "hann_window",
    "ipc_istft",
    "ipc_stft",
    "ipclr_objective",
    "istft",
    "lambda_sweep",
    "nuclear_norm",
    "rank_k_approx",
    "snr_db",
    "stft",
    "svd",
    "svt",
    "synth_sinusoid_sum",
]
