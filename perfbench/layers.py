"""Run-time wrappers around the public calls into each ipclr module.

Each wrapper is installed where its caller looks the function up (for example
``ipclr.denoise.svt`` and ``ipclr.experiments.svd``), records one span per
call, and attaches computed kernel counts.  No source file of the package is
edited; ``instrument`` returns a function that puts the originals back.

Computed counts, not measured by hardware counters:

- FFT: 5 K log2 K real operations per transformed column of length K (the
  radix-2 Cooley-Tukey count), bytes = input array + output array.
- SVD of an m x n matrix, m >= n (Golub & Van Loan, Matrix Computations,
  4th ed., Fig. 8.6.1, R-SVD): 6 m n^2 + 20 n^3 real operations with thin U
  and V, 2 m n^2 + 2 n^3 for singular values only; times 4 for complex
  data.  ``svt`` adds the 2 m n^2 (times 4 if complex) of rebuilding
  U diag(s) V^H.  Bytes = input + factors (+ output for ``svt``).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
from collections import defaultdict

import numpy as np

from spans import Recorder, Span, children_of, descendants, self_times

WINDOW_LEN = 4096
TABLE_SAMPLES = 163840  # 10.24 s at 16 kHz
SHIFT_DIVISORS = (2, 4, 8)


def _fft_work(k: int, columns: int, in_bytes: int, out_bytes: int) -> dict:
    return {
        "gflop": 5.0 * k * math.log2(k) * columns / 1e9,
        "mb": (in_bytes + out_bytes) / 1e6,
    }


def _stft_work(args, kwargs, spec) -> dict:
    x = args[0]
    in_bytes = np.asarray(getattr(x, "samples", x)).nbytes
    return _fft_work(spec.n_bins, spec.n_frames, in_bytes, spec.data.nbytes)


def _istft_work(args, kwargs, out) -> dict:
    spec = args[0]
    return _fft_work(spec.n_bins, spec.n_frames, spec.data.nbytes, out.samples.nbytes)


def _svd_cost(m: np.ndarray, factors: bool, rebuild: bool) -> dict:
    rows, cols = m.shape
    big, small = max(rows, cols), min(rows, cols)
    scale = 4.0 if np.iscomplexobj(m) else 1.0
    if factors:
        flop = 6 * big * small**2 + 20 * small**3
        out_bytes = (big * small + small * small) * m.itemsize + small * 8
    else:
        flop = 2 * big * small**2 + 2 * small**3
        out_bytes = small * 8
    if rebuild:
        flop += 2 * big * small**2
        out_bytes += m.nbytes
    return {
        "gflop": scale * flop / 1e9,
        "mb": (m.nbytes + out_bytes) / 1e6,
        "shape": [rows, cols],
    }


def _svd_work(args, kwargs, out) -> dict:
    return _svd_cost(np.asarray(args[0]), factors=True, rebuild=False)


def _svt_work(args, kwargs, out) -> dict:
    return _svd_cost(np.asarray(args[0]), factors=True, rebuild=True)


def _nuclear_work(args, kwargs, out) -> dict:
    return _svd_cost(np.asarray(args[0]), factors=False, rebuild=False)


def _denoise_work(args, kwargs, out) -> dict:
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"lam": float(params.lam), "iterations": len(out[1].residual_history)}


def _csv_work(args, kwargs, out) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


# span name -> (work function or None, [(module, attribute), ...])
TARGETS = {
    "signals.noise": (None, [
        ("ipclr.experiments", "add_complex_noise_at_snr"),
        ("ipclr.experiments", "add_noise_at_snr"),
        ("ipclr.cli", "add_noise_at_snr"),
    ]),
    "signals.snr": (None, [
        ("ipclr.experiments", "snr_db"),
        ("ipclr.denoise", "snr_db"),
        ("ipclr.cli", "snr_db"),
    ]),
    "frames.stft": (_stft_work, [
        ("ipclr.experiments", "stft"),
        ("ipclr.denoise", "stft"),
        ("ipclr.cli", "stft"),
    ]),
    "frames.istft": (_istft_work, [
        ("ipclr.denoise", "istft"),
        ("ipclr.ipc", "istft"),
        ("ipclr.cli", "istft"),
    ]),
    "ifreq.estimate_if": (None, [
        ("ipclr.experiments", "estimate_if"),
        ("ipclr.denoise", "estimate_if"),
    ]),
    "ipc.build_corrector": (None, [
        ("ipclr.experiments", "build_corrector"),
        ("ipclr.denoise", "build_corrector"),
        ("ipclr.cli", "build_corrector"),
    ]),
    "ipc.apply": (None, [
        ("ipclr.cli", "ipc_stft"),
        ("ipclr.cli", "ipc_istft"),
    ]),
    "lowrank.svd": (_svd_work, [
        ("ipclr.experiments", "svd"),
        ("ipclr.lowrank", "svd"),
    ]),
    "lowrank.rank_k_approx": (None, [("ipclr.cli", "rank_k_approx")]),
    "lowrank.svt": (_svt_work, [("ipclr.denoise", "svt")]),
    "lowrank.nuclear_norm": (_nuclear_work, [("ipclr.denoise", "nuclear_norm")]),
    "denoise.denoise": (_denoise_work, [
        ("ipclr.denoise", "denoise"),
        ("ipclr.cli", "denoise"),
    ]),
    "denoise.estimate_if_for": (None, [
        ("ipclr.denoise", "estimate_if_for"),
        ("ipclr.cli", "estimate_if_for"),
    ]),
    "experiments.rank_cell_snr": (None, [("ipclr.experiments", "rank_cell_snr")]),
    "experiments.estimate_if_valid": (None, [
        ("ipclr.experiments", "estimate_if_valid"),
    ]),
    "io.read_wav": (None, [("ipclr.cli", "read_wav")]),
    "io.write_wav": (None, [("ipclr.cli", "write_wav")]),
    "io.write_matrix_csv": (_csv_work, [("ipclr.cli", "write_matrix_csv")]),
}


def traced(recorder: Recorder, name: str, fn, work=None):
    """``fn`` wrapped so each call is one span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            out = fn(*args, **kwargs)
            if work is not None:
                span.work.update(work(args, kwargs, out))
        return out

    return wrapper


def instrument(recorder: Recorder):
    """Install every wrapper in TARGETS; returns the undo function."""
    saved = []
    for name, (work, sites) in TARGETS.items():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, traced(recorder, name, original, work))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def _svd_shape(div: int) -> list[int]:
    hop = WINDOW_LEN // div
    return [WINDOW_LEN // 2 + 1, (TABLE_SAMPLES - WINDOW_LEN) // hop + 1]


COUNT_METRICS = (
    "signals.noise_calls", "frames.stft_calls", "frames.istft_calls",
    "frames.fft_gflop", "frames.fft_computed_mb", "ifreq.estimate_if_calls",
    "ipc.build_corrector_calls", "lowrank.svd_calls", "lowrank.svd_gflop",
    "lowrank.svd_computed_mb", "lowrank.svt_calls", "lowrank.nuclear_norm_calls",
    "denoise.iterations", "experiments.cells",
)


def _mean_ms(values: list[float]) -> float:
    return 1000.0 * sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (0 where a layer is unused).

    ``*_ms`` is the mean self time per call, ``*_s`` a total over the pass,
    and calls and computed counts are totals over the pass.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_ms(name):
        return _mean_ms([own[s.id] for s in by_name[name]])

    def total(name, key):
        return sum(s.work.get(key, 0.0) for s in by_name[name])

    svd_like = ("lowrank.svd", "lowrank.svt", "lowrank.nuclear_norm")
    m = {
        "signals.noise_ms": self_ms("signals.noise"),
        "signals.noise_calls": len(by_name["signals.noise"]),
        "signals.snr_ms": self_ms("signals.snr"),
        "frames.stft_ms": self_ms("frames.stft"),
        "frames.stft_calls": len(by_name["frames.stft"]),
        "frames.istft_ms": self_ms("frames.istft"),
        "frames.istft_calls": len(by_name["frames.istft"]),
        "frames.fft_gflop": total("frames.stft", "gflop") + total("frames.istft", "gflop"),
        "frames.fft_computed_mb": total("frames.stft", "mb") + total("frames.istft", "mb"),
        "ifreq.estimate_if_ms": self_ms("ifreq.estimate_if"),
        "ifreq.estimate_if_calls": len(by_name["ifreq.estimate_if"]),
        "ipc.build_corrector_ms": self_ms("ipc.build_corrector"),
        "ipc.build_corrector_calls": len(by_name["ipc.build_corrector"]),
        "ipc.apply_ms": self_ms("ipc.apply"),
        "lowrank.svd_calls": len(by_name["lowrank.svd"]),
        "lowrank.svd_gflop": sum(total(n, "gflop") for n in svd_like),
        "lowrank.svd_computed_mb": sum(total(n, "mb") for n in svd_like),
        "lowrank.svt_ms": self_ms("lowrank.svt"),
        "lowrank.svt_calls": len(by_name["lowrank.svt"]),
        "lowrank.nuclear_norm_ms": self_ms("lowrank.nuclear_norm"),
        "lowrank.nuclear_norm_calls": len(by_name["lowrank.nuclear_norm"]),
        "io.write_matrix_csv_s": sum(own[s.id] for s in by_name["io.write_matrix_csv"]),
        "io.csv_mb_written": total("io.write_matrix_csv", "mb"),
        "io.read_wav_ms": self_ms("io.read_wav"),
        "io.write_wav_ms": self_ms("io.write_wav"),
    }
    for div in SHIFT_DIVISORS:
        shape = _svd_shape(div)
        m[f"lowrank.svd_ms.div{div}"] = _mean_ms(
            [own[s.id] for s in by_name["lowrank.svd"] if s.work["shape"] == shape]
        )

    solves = by_name["denoise.denoise"]
    iterations = sum(s.work["iterations"] for s in solves)
    per_iter = 1000.0 / iterations if iterations else 0.0
    m["denoise.iterations"] = iterations
    m["denoise.iter_ms"] = sum(s.duration for s in solves) * per_iter
    m["denoise.self_ms_per_iter"] = sum(own[s.id] for s in solves) * per_iter

    cells = by_name["experiments.rank_cell_snr"]
    m["experiments.cells"] = len(cells)
    m["experiments.self_s"] = sum(
        own[s.id] for s in spans if s.layer == "experiments"
    )
    return m


def solve_self_sum(spans: list[Span]) -> float:
    """Median over solves of the self time of frames, lowrank and denoise spans."""
    own = self_times(spans)
    children = children_of(spans)
    per_solve = [
        sum(own[d.id] for d in descendants(s, children)
            if d.layer in ("frames", "lowrank", "denoise"))
        for s in spans if s.name == "denoise.denoise"
    ]
    return statistics.median(per_solve) if per_solve else 0.0


def pool_busy_ratio(spans: list[Span], root_name: str) -> float:
    """Cell time over (worker threads x root span time) for one pool call."""
    roots = [s for s in spans if s.name == root_name]
    cells = [s for s in spans if s.name == "experiments.rank_cell_snr"]
    if not roots or not cells:
        return 0.0
    threads = len({c.thread for c in cells})
    return sum(c.duration for c in cells) / (threads * sum(r.duration for r in roots))


def counts(spans: list[Span]) -> dict[str, float]:
    """The seed-independent subset of ``layer_metrics``: calls and work."""
    m = layer_metrics(spans)
    return {k: round(m[k], 9) for k in COUNT_METRICS}
