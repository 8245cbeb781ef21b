"""Every ipclr command's outputs against the golden data in ``tests/golden/``.

The data pins parsed values with tolerances (see ``golden/regenerate.py``),
because BLAS kernels and thread counts differ between hosts.  Files whose
bytes are no longer those the data was made from are reported as a warning.
"""

import importlib
import json
import warnings

import numpy as np
import pytest

import golden.regenerate as regenerate
import ipclr.cli
import ipclr.experiments
from golden.regenerate import HASHES, SPECTROGRAM, SYNTH, VALUES, mismatches, snapshot
from ipclr.ipc import build_corrector


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``(values, hashes)`` of one snapshot of the current tree."""
    return snapshot(tmp_path_factory.mktemp("golden"))


def test_outputs_match_golden(fresh):
    values, hashes = fresh
    with np.load(VALUES) as want:
        assert sorted(values) == sorted(want.files)
        bad = mismatches(values, want)
    assert not bad, "\n".join(bad)
    moved = [name for name, digest in json.loads(HASHES.read_text()).items()
             if hashes[name] != digest]
    if moved:
        warnings.warn(f"within tolerance, but not sha256-identical to the golden "
                      f"files: {', '.join(moved)}")


def test_perturbed_corrector_fails_the_check(tmp_path, monkeypatch):
    def perturbed(if_map):
        return build_corrector(if_map) * (1.0 + 1e-9)

    for module in (ipclr.cli, ipclr.experiments, importlib.import_module("ipclr.denoise")):
        monkeypatch.setattr(module, "build_corrector", perturbed)
    values, _ = snapshot(tmp_path, SYNTH + SPECTROGRAM[:1])
    with np.load(VALUES) as want:
        flagged = {line.split(":")[0] for line in mismatches(values, want)}
    assert "spec_valid_one-sided/noisy_ipc.csv" in flagged
    assert "spec_valid_one-sided/noisy_complex.csv" not in flagged


def test_check_mode_writes_nothing_and_flags_moves(fresh, monkeypatch, capsys):
    values, hashes = fresh
    committed = VALUES.read_bytes(), HASHES.read_bytes()
    snapshots = []
    monkeypatch.setattr(regenerate, "snapshot", lambda workdir: snapshots.pop())
    key = "denoise_clean.wav"
    moved = {**values, key: values[key] * (1.0 + 1e-9)}
    vanished = {name: digest for name, digest in hashes.items() if name != "sweep.csv"}
    snapshots += [(values, vanished), (moved, {**hashes, key: "0" * 64}), (values, hashes)]

    assert regenerate.main(["--check"]) == 0
    assert "moved" not in capsys.readouterr().out
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert f"moved beyond tolerance: {key}: max deviation" in out
    assert f"sha256 changed: {key}" in out
    assert regenerate.main(["--check"]) == 1
    assert "file vanished: sweep.csv" in capsys.readouterr().out
    assert (VALUES.read_bytes(), HASHES.read_bytes()) == committed
