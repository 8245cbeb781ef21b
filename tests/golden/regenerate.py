"""Golden outputs of every ipclr command, and the script that regenerates them.

``produce`` runs each command at window 512 on 0.5 s synthetic WAVs in a
working directory, with relative paths so that no output names the
directory, and keeps each command's stdout as ``<label>.stdout``.  It also
writes one signal through ``write_wav`` in every format.  ``snapshot``
parses every file it left: WAVs into their samples and rate, matrix CSVs
into their matrix, and any other text into its numbers plus the text with
each number replaced by ``#``.  ``golden.npz`` holds those parsed values,
and ``sha256.json`` each file's sha256.

``tests/test_golden.py`` compares a fresh snapshot with them.  To
regenerate them, after a change that moves an output on purpose, run

    PYTHONPATH=src python tests/golden/regenerate.py

which prints what moved against the committed data before it overwrites
it.  With ``--check`` it writes nothing: it prints the values that moved
beyond tolerance and the files whose sha256 changed, appeared or vanished,
and exits 1 when a value moved or a file appeared or vanished.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from ipclr.cli import main as cli_main
from ipclr.io import FORMATS, read_matrix_csv, read_wav, write_wav
from ipclr.signals import SignalBuffer

GOLDEN_DIR = Path(__file__).resolve().parent
VALUES = GOLDEN_DIR / "golden.npz"
HASHES = GOLDEN_DIR / "sha256.json"

TABLE1_ABS_DB = 1e-9
REL = 1e-12

SMALL = ["--window-len", "512"]
SYNTH = [
    ("synth_clean", ["synth", "--duration", "0.5", "-o", "clean.wav"]),
    ("synth_noisy", ["synth", "--duration", "0.5", "--snr", "10", "--seed", "1",
                     "-o", "noisy.wav"]),
]
SPECTROGRAM = [
    (f"spec_{framing}_{side}",
     ["spectrogram", "noisy.wav", *SMALL, "--ipc", "--framing", framing, f"--{side}",
      "-o", f"spec_{framing}_{side}"])
    for framing in ("valid", "cover") for side in ("one-sided", "two-sided")
]
COMMANDS = SYNTH + SPECTROGRAM + [
    (f"lowrank_{rep}_{source}",
     ["lowrank", "noisy.wav", *SMALL, "--clean", "clean.wav", "--representation", rep,
      "--if-source", source, "-o", f"lowrank_{rep}_{source}.wav"])
    for rep in ("amplitude", "stft", "ipc") for source in ("clean", "noisy")
] + [
    (f"table1_{domain}_{source}",
     ["table1", "--seeds", "2", "--duration", "0.5", *SMALL, "--noise-domain", domain,
      "--if-source", source, "-o", f"table1_{domain}_{source}"])
    for domain, source in (("tf", "clean"), ("time", "noisy"))
] + [
    ("fig3_clean", ["fig3", "--duration", "0.5", *SMALL, "-o", "fig3_clean.csv"]),
    ("fig3_noisy", ["fig3", "--duration", "0.5", *SMALL, "--input-snr", "10",
                    "-o", "fig3_noisy.csv"]),
] + [
    (f"denoise_{name}",
     ["denoise", "noisy.wav", *SMALL, "--lam", "4", flag, "clean.wav",
      "-o", f"denoise_{name}.wav", "--convergence-csv", f"denoise_{name}_convergence.csv"])
    for name, flag in (("clean", "--clean"), ("oracle", "--if-oracle"))
] + [
    ("denoise_sweep",
     ["denoise-sweep", "noisy.wav", "clean.wav", *SMALL, "--lam-min", "0.01",
      "--lam-max", "100", "--lam-count", "3", "-o", "sweep.csv", "--best-wav",
      "sweep_best.wav"]),
]

# Extremes for the PCM encoders: clamping, full scale, and the smallest steps.
_EDGES = [-1.5, -1.0, -0.5, -1 / 8388608, -0.5 / 8388608, 0.0, 0.5 / 8388608,
          1 / 8388608, 0.5, 1.0 - 1e-9, 1.0, 1.5]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")


@contextlib.contextmanager
def _chdir(path: Path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def produce(workdir: Path, commands=COMMANDS) -> None:
    """Run ``commands`` and the ``write_wav`` formats in ``workdir``."""
    with _chdir(workdir):
        for label, argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"ipclr {' '.join(argv)} exited with {code}")
            Path(f"{label}.stdout").write_text(out.getvalue())
        noisy = read_wav("noisy.wav")
        x = SignalBuffer(np.concatenate([1.1 * noisy.samples, _EDGES]), noisy.sample_rate_hz)
        for fmt in FORMATS:
            write_wav(x, f"write_{fmt}.wav", format=fmt)


def parse(path: Path, name: str) -> dict[str, np.ndarray]:
    """Parsed values of one output file, keyed by ``name`` and a suffix."""
    if path.suffix == ".wav":
        signal = read_wav(path)
        return {name: signal.samples, f"{name}:rate": np.array(signal.sample_rate_hz)}
    text = path.read_text()
    if text.startswith("# "):
        return {name: read_matrix_csv(path)}
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return {name: np.array(numbers, dtype=np.float64),
            f"{name}:text": np.array(_NUMBER.sub("#", text))}


def snapshot(workdir: Path, commands=COMMANDS) -> tuple[dict, dict]:
    """``(values, hashes)`` of every file ``produce`` leaves in ``workdir``."""
    produce(workdir, commands)
    values, hashes = {}, {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        values.update(parse(path, name))
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return values, hashes


def mismatches(got: dict, want) -> list[str]:
    """One line per value of ``got`` outside its tolerance against ``want``.

    Table 1 numbers must lie within 1e-9 dB; every other number within 1e-12
    times the largest magnitude in its file.  Text, shapes and non-finite
    entries must match exactly.
    """
    bad = []
    for key in sorted(got):
        if key not in want:
            bad.append(f"{key}: not in the golden data")
            continue
        a, b = got[key], want[key]
        if b.dtype.kind == "U" or a.shape != b.shape:
            if not (a.shape == b.shape and np.array_equal(a, b)):
                bad.append(f"{key}: differs")
            continue
        finite = np.isfinite(b)
        if not np.array_equal(finite, np.isfinite(a)) or not np.array_equal(a[~finite],
                                                                            b[~finite]):
            bad.append(f"{key}: non-finite entries differ")
            continue
        if key.startswith("table1_"):
            tol = TABLE1_ABS_DB
        else:
            tol = REL * float(np.abs(b[finite]).max(initial=0.0))
        err = float(np.abs(a[finite] - b[finite]).max(initial=0.0))
        if err > tol:
            bad.append(f"{key}: max deviation {err:.3g} > {tol:.3g}")
    return bad


def report(values: dict, hashes: dict) -> bool:
    """Print what moved against the committed data.

    Returns whether a value moved beyond tolerance or a file appeared or
    vanished; a file whose bytes changed within tolerance is only printed.
    """
    with np.load(VALUES) as old:
        moved = mismatches(values, old) + [
            f"{key}: gone" for key in sorted(old.files) if key not in values]
    old_hashes = json.loads(HASHES.read_text())
    for line in moved:
        print(f"moved beyond tolerance: {line}")
    for name in sorted(hashes.keys() | old_hashes.keys()):
        if name not in old_hashes:
            print(f"file appeared: {name}")
        elif name not in hashes:
            print(f"file vanished: {name}")
        elif old_hashes[name] != hashes[name]:
            print(f"sha256 changed: {name}")
    return bool(moved) or hashes.keys() != old_hashes.keys()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed data and write nothing")
    check = parser.parse_args(argv).check
    with tempfile.TemporaryDirectory() as tmp:
        values, hashes = snapshot(Path(tmp))
    if check:
        failed = report(values, hashes)
        print(f"{len(hashes)} files: {'FAILED' if failed else 'ok'} against the golden data")
        return int(failed)
    if VALUES.exists():
        report(values, hashes)
    np.savez_compressed(VALUES, **values)
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} files' values to {VALUES.name} and hashes to {HASHES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
