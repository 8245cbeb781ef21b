import functools
import importlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ipclr.cli
import ipclr.io
from ipclr.cli import main
from ipclr.denoise import AdmmParams, estimate_if_for
from ipclr.experiments import REPRESENTATIONS, analysis_config
from ipclr.frames import StftConfig, analysis_window, istft, stft
from ipclr.io import read_matrix_csv, read_wav, write_wav
from ipclr.ipc import build_corrector
from ipclr.lowrank import rank_k_approx
from ipclr.signals import snr_db

# ipclr/__init__.py re-exports the function ``denoise`` under the module's name.
denoise_module = importlib.import_module("ipclr.denoise")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def two_sided_rank_k(x, config, e_half, k):
    """istft(conj(E2) * rank_k(E2 * stft(x))), E2 the conjugate-symmetric extension of e_half."""
    L = config.window_len
    e2 = np.concatenate([e_half, np.conj(e_half[1 : 1 + (L - 1) // 2][::-1])])
    w = analysis_window(config)
    spec = stft(x, config, w)
    z = np.conj(e2) * rank_k_approx(e2 * spec.data, k)
    return istft(replace(spec, data=z), w).samples


def synth_pair(workdir):
    assert main(["synth", "--duration", "0.5", "-o", "clean.wav"]) == 0
    assert main(["synth", "--duration", "0.5", "--snr", "10", "--seed", "1",
                 "-o", "noisy.wav"]) == 0
    return workdir / "clean.wav", workdir / "noisy.wav"


class TestSynth:
    def test_default_recipe(self, workdir):
        assert main(["synth", "--duration", "0.25", "-o", "out.wav"]) == 0
        sig = read_wav(workdir / "out.wav")
        assert len(sig) == 4000
        assert sig.sample_rate_hz == 16000.0
        # Three harmonics of 100 Hz: spectrum peaks at 100/200/300 Hz.
        spectrum = np.abs(np.fft.rfft(sig.samples))
        top = np.argsort(spectrum)[-3:]
        hz = np.sort(top) * 16000.0 / len(sig)
        np.testing.assert_allclose(hz, [100.0, 200.0, 300.0], atol=4.1)

    def test_snr_flag_realizes_target(self, workdir):
        clean_p, noisy_p = synth_pair(workdir)
        clean, noisy = read_wav(clean_p), read_wav(noisy_p)
        # float32 storage rounds both files; the realized SNR survives it.
        assert snr_db(clean, noisy) == pytest.approx(10.0, abs=1e-4)

    def test_seeded_outputs_reproducible(self, workdir):
        for name in ("a.wav", "b.wav"):
            assert main(["synth", "--duration", "0.2", "--snr", "5",
                         "--seed", "7", "-o", name]) == 0
        assert (workdir / "a.wav").read_bytes() == (workdir / "b.wav").read_bytes()

    def test_zero_duration_rejected(self, workdir):
        assert main(["synth", "--duration", "0"]) == 1

    def test_duplicate_freqs_rejected(self, workdir):
        assert main(["synth", "--freq", "440", "--freq", "440"]) == 1

    def test_explicit_freqs(self, workdir):
        assert main(["synth", "--freq", "500", "--amp", "2", "--duration", "0.1",
                     "-o", "f.wav"]) == 0

    def test_full_recipe(self, workdir):
        assert main(["synth", "--count", "11", "--duration", "0.1", "-o", "f.wav"]) == 0

    # The recipe's amplitudes are 10 - h, so a 12th harmonic would be negative.
    @pytest.mark.parametrize("args,message", [
        (["--amp", "0.5"], "--amp needs --freq"),
        (["--count", "12"], "--count must lie in 1..11, got 12"),
        (["--count", "0"], "--count must lie in 1..11, got 0"),
    ])
    def test_recipe_options_checked(self, workdir, capsys, args, message):
        assert main(["synth", *args, "--duration", "0.1", "-o", "bad.wav"]) == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "bad.wav").exists()

    # --freq replaces the recipe, so a recipe option given with it is an error,
    # also when it comes from the config file.
    @pytest.mark.parametrize("args,config", [
        (["--count", "20"], ""),
        (["--base-freq", "50"], ""),
        ([], "count = 4\n"),
    ])
    def test_recipe_options_rejected_with_freq(self, workdir, capsys, args, config):
        (workdir / "conf.txt").write_text(config)
        option = args[0] if args else "--count"
        assert main(["--config", "conf.txt", "synth", "--freq", "100", *args,
                     "--duration", "0.1", "-o", "bad.wav"]) == 1
        assert f"{option} sets the recipe, which --freq replaces" in capsys.readouterr().err
        assert not (workdir / "bad.wav").exists()

    # The 5e9 Hz case keeps the buffer at 5 samples; the header cannot hold the rate.
    @pytest.mark.parametrize("args,message", [
        (["--rate", "16000.5"], "sample rate 16000.5 Hz is not an integer"),
        (["--rate", "5e9", "--duration", "1e-9"], "sample rate 5e+09 Hz is not an integer"),
        (["--rate", "inf"], "sample_rate_hz must be positive and finite"),
        (["--duration", "inf"], "duration_s must be positive and finite"),
        (["--duration", "0.00001"], "duration_s=1e-05 s is shorter than one sample"),
        (["--duration", "0.00001", "--no-normalize"],
         "duration_s=1e-05 s is shorter than one sample"),
    ])
    def test_bad_rate_or_duration_rejected(self, workdir, capsys, args, message):
        assert main(["synth", *args, "-o", "bad.wav"]) == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "bad.wav").exists()


class TestSpectrogram:
    def test_exports_and_ipc_diagnostic(self, workdir):
        synth_pair(workdir)
        rc = main(["spectrogram", "clean.wav", "--window-len", "512",
                   "--shift-div", "4", "--ipc", "-o", "spec"])
        assert rc == 0
        amp = read_matrix_csv(workdir / "spec" / "clean_amplitude.csv")
        cm = read_matrix_csv(workdir / "spec" / "clean_complex.csv")
        corrected = read_matrix_csv(workdir / "spec" / "clean_ipc.csv")
        ifm = read_matrix_csv(workdir / "spec" / "clean_if.csv")
        assert amp.shape == cm.shape == corrected.shape == ifm.shape
        assert amp.shape[0] == 257
        np.testing.assert_allclose(np.abs(cm), amp, atol=1e-12)
        # Phase correction changes phases only.
        np.testing.assert_allclose(np.abs(corrected), amp, atol=1e-9)

    @pytest.mark.parametrize("framing", ["valid", "cover"])
    def test_ipc_one_sided_is_top_rows_of_two_sided(self, workdir, framing):
        synth_pair(workdir)
        for sides in ("one", "two"):
            assert main(["spectrogram", "noisy.wav", "--window-len", "512", "--ipc",
                         "--framing", framing, f"--{sides}-sided", "-o", sides]) == 0
        for kind in ("amplitude", "complex", "ipc", "if"):
            half = read_matrix_csv(workdir / "one" / f"noisy_{kind}.csv")
            full = read_matrix_csv(workdir / "two" / f"noisy_{kind}.csv")
            assert full.shape[0] == 512 and half.shape[0] == 257
            # The one-sided rows come from a real FFT, the two-sided ones from a
            # complex FFT: equal up to rounding, which the phase corrector's
            # running sum of IF values grows to about 3e-13 of the largest entry.
            np.testing.assert_allclose(half, full[:257], rtol=0,
                                       atol=1e-12 * np.abs(full).max())

    def test_no_ipc_skips_extra_files(self, workdir):
        synth_pair(workdir)
        assert main(["spectrogram", "clean.wav", "--window-len", "512",
                     "-o", "spec2"]) == 0
        assert (workdir / "spec2" / "clean_complex.csv").exists()
        assert not (workdir / "spec2" / "clean_ipc.csv").exists()

    def test_missing_input(self, workdir):
        assert main(["spectrogram", "absent.wav"]) == 1

    def test_csv_worker_failure_exits_1(self, workdir, monkeypatch, capsys):
        synth_pair(workdir)
        caller = os.getpid()

        def format_rows(rows):
            if os.getpid() != caller:
                raise ValueError("formatter broke")
            return "never written\n"

        monkeypatch.setattr(ipclr.io, "_format_rows", format_rows)
        monkeypatch.setattr(ipclr.io, "_usable_cpus", lambda: 2)
        assert main(["spectrogram", "clean.wav", "--window-len", "512", "-o", "spec"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "clean_amplitude.csv: CSV worker for rows 128-256 failed" in err

    def test_same_bytes_under_a_traced_writer(self, workdir, monkeypatch):
        """A functools.wraps wrapper on the CLI's writer, as a tracing launcher installs."""
        synth_pair(workdir)
        monkeypatch.setattr(ipclr.io, "_usable_cpus", lambda: 3)
        args = ["spectrogram", "noisy.wav", "--window-len", "512", "--ipc", "-o"]
        assert main(args + ["plain"]) == 0
        calls = []
        write = ipclr.cli.write_matrix_csv

        @functools.wraps(write)
        def traced(*a, **kw):
            calls.append(a[1])
            return write(*a, **kw)

        monkeypatch.setattr(ipclr.cli, "write_matrix_csv", traced)
        assert main(args + ["traced"]) == 0
        assert len(calls) == 4
        for path in calls:
            plain = workdir / "plain" / Path(path).name
            assert Path(path).read_bytes() == plain.read_bytes()


class TestLowrank:
    def test_full_rank_is_exact(self, workdir):
        synth_pair(workdir)
        # 8000 samples, window 512, hop 128 -> 59 valid frames = full rank.
        rc = main(["lowrank", "clean.wav", "--window-len", "512", "--k", "59",
                   "--representation", "stft"])
        assert rc == 0

    @pytest.mark.parametrize("representation,if_source", [
        ("amplitude", "clean"), ("stft", "clean"), ("ipc", "clean"), ("ipc", "noisy"),
    ])
    def test_rank_one_reconstruction(self, workdir, representation, if_source):
        clean_p, noisy_p = synth_pair(workdir)
        rc = main(["lowrank", "noisy.wav", "--window-len", "512", "--k", "1",
                   "--representation", representation, "--if-source", if_source,
                   "--clean", "clean.wav", "-o", "rk.wav"])
        assert rc == 0
        recon = read_wav(workdir / "rk.wav")
        assert len(recon) == len(read_wav(noisy_p))

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_output_matches_two_sided_rank_k(self, workdir, representation):
        clean_p, noisy_p = synth_pair(workdir)
        assert main(["lowrank", "noisy.wav", "--window-len", "512", "--k", "2",
                     "--representation", representation, "--clean", "clean.wav",
                     "-o", "rk.wav"]) == 0
        noisy = read_wav(noisy_p)
        cfg = StftConfig(window_len=512, hop=128, window_kind="hann_tight")
        half = stft(noisy, cfg, analysis_window(cfg), one_sided=True).data
        e = {
            "amplitude": np.exp(-1j * np.angle(half)),
            "stft": np.ones(half.shape),
            "ipc": build_corrector(estimate_if_for(read_wav(clean_p), cfg)),
        }[representation]
        # The WAV stores float32: half a unit in the last place of |x| < 2.
        np.testing.assert_allclose(read_wav(workdir / "rk.wav").samples,
                                   two_sided_rank_k(noisy, cfg, e, 2), rtol=0, atol=2e-7)

    def test_reconstruction_takes_no_two_sided_fft(self, workdir, monkeypatch):
        synth_pair(workdir)

        def two_sided_fft(*args, **kwargs):
            raise AssertionError("lowrank -o called a two-sided FFT")

        monkeypatch.setattr(np.fft, "fft", two_sided_fft)
        monkeypatch.setattr(np.fft, "ifft", two_sided_fft)
        for representation in REPRESENTATIONS:
            assert main(["lowrank", "noisy.wav", "--window-len", "512", "--k", "2",
                         "--representation", representation, "--clean", "clean.wav",
                         "-o", "rk.wav"]) == 0

    def test_clean_reference_takes_three_transforms(self, workdir, rfft_calls):
        synth_pair(workdir)
        rfft_calls.clear()
        assert main(["lowrank", "noisy.wav", "--window-len", "512",
                     "--clean", "clean.wav"]) == 0
        # Hann of the clean and noisy input, derivative window of the clean one.
        assert len(rfft_calls) == len(set(rfft_calls)) == 3

    def test_k_too_large(self, workdir):
        synth_pair(workdir)
        assert main(["lowrank", "clean.wav", "--window-len", "512",
                     "--k", "100000"]) == 1


class TestTable1AndFig3:
    def test_table1_small_run(self, workdir):
        rc = main(["table1", "--seeds", "1", "--duration", "0.5",
                   "--window-len", "512", "-o", "t1"])
        assert rc == 0
        text = (workdir / "t1" / "table1.csv").read_text().splitlines()
        assert text[0] == "representation,shift,0,10,20,clean"
        assert len(text) == 10
        cells = (workdir / "t1" / "table1_cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 3 * 3 * 4

    def test_table1_reproducible_bytes(self, workdir):
        for out in ("ta", "tb"):
            assert main(["table1", "--seeds", "2", "--duration", "0.5",
                         "--window-len", "512", "-o", out]) == 0
        assert (workdir / "ta" / "table1_cells.csv").read_bytes() == \
            (workdir / "tb" / "table1_cells.csv").read_bytes()

    def test_fig3_rows(self, workdir):
        rc = main(["fig3", "--k-min", "1", "--k-max", "1", "--duration", "0.5",
                   "--window-len", "512", "-o", "f3.csv"])
        assert rc == 0
        lines = (workdir / "f3.csv").read_text().splitlines()
        assert lines[0] == "representation,k,snr_db"
        assert len(lines) == 4

    def test_fig3_k_beyond_rank(self, workdir, capsys):
        # 0.5 s under the 4096-sample window at hop 1024 has 4 valid frames,
        # so every factorization has rank at most 4.
        assert main(["fig3", "--duration", "0.5", "--k-max", "6", "-o", "f3.csv"]) == 1
        assert "[1, 4]" in capsys.readouterr().err
        assert not (workdir / "f3.csv").exists()

    @pytest.mark.parametrize("args", [["lowrank", "noisy.wav", "--k", "0"],
                                      ["table1", "--seeds", "0"]])
    def test_counts_below_one_rejected(self, workdir, capsys, args):
        synth_pair(workdir)
        assert main(args) == 1
        assert f"Invalid value for '{args[-2]}'" in capsys.readouterr().err

    def test_fig3_bad_k_range(self, workdir):
        assert main(["fig3", "--k-min", "5", "--k-max", "2"]) == 1

    def test_fig3_input_snr_alone_adds_noise(self, workdir):
        args = ["fig3", "--k-max", "2", "--duration", "0.5", "--window-len", "512"]
        assert main(args + ["-o", "clean.csv"]) == 0
        assert main(args + ["--input-snr", "0", "-o", "noisy.csv"]) == 0
        clean, noisy = ((workdir / f).read_text().splitlines() for f in ("clean.csv", "noisy.csv"))
        assert len(clean) == len(noisy) == 7
        assert all(a != b for a, b in zip(clean[1:], noisy[1:]))

    def test_fig3_has_no_noise_switch(self, workdir):
        assert main(["fig3", "--noise", "-o", "f3.csv"]) == 1
        (workdir / "conf.txt").write_text("noise = true\n")
        assert main(["--config", "conf.txt", "fig3", "-o", "f3.csv"]) == 1
        assert not (workdir / "f3.csv").exists()


class TestDenoiseCommands:
    def test_denoise_tiny_lambda_returns_input(self, workdir, capsys):
        clean_p, noisy_p = synth_pair(workdir)
        capsys.readouterr()
        rc = main(["denoise", "noisy.wav", "--window-len", "512", "--lam", "1e-12",
                   "--iters", "5", "-o", "dn.wav", "--convergence-csv", "conv.csv"])
        assert rc == 0
        noisy, out = read_wav(noisy_p), read_wav(workdir / "dn.wav")
        dev = np.linalg.norm(out.samples - noisy.samples) / np.linalg.norm(noisy.samples)
        assert dev < 1e-6
        conv = (workdir / "conv.csv").read_text().splitlines()
        assert conv[0] == "iteration,objective,primal_residual,bound,kept_rank"
        rows = [line.split(",") for line in conv[1:]]
        # One row per iteration run: the stop certifies x_2, as x_1 is never checked.
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        assert 2 <= len(rows) < 5
        assert f"{len(rows)} iterations, certified" in capsys.readouterr().out
        assert float(rows[-1][3]) <= 1e-4 * np.linalg.norm(out.samples) * (1 + 1e-6)

    def test_denoise_oracle_flag(self, workdir):
        synth_pair(workdir)
        rc = main(["denoise", "noisy.wav", "--window-len", "512", "--lam", "0.5",
                   "--iters", "5", "--if-oracle", "clean.wav", "--clean", "clean.wav",
                   "-o", "dn2.wav"])
        assert rc == 0

    def test_denoise_sweep(self, workdir):
        synth_pair(workdir)
        rc = main(["denoise-sweep", "noisy.wav", "clean.wav", "--window-len", "512",
                   "--lam-min", "0.01", "--lam-max", "1", "--lam-count", "3",
                   "--iters", "5", "-o", "sw.csv"])
        assert rc == 0
        lines = (workdir / "sw.csv").read_text().splitlines()
        assert lines[0] == "lam,snr_db,objective"
        assert len(lines) == 4
        for line in lines[1:]:
            assert all(np.isfinite(float(field)) for field in line.split(","))

    def test_best_wav_is_the_sweep_output(self, workdir, monkeypatch):
        synth_pair(workdir)
        solve = denoise_module.denoise
        lams = []

        def counting(d, params, config, if_map=None):
            lams.append(params.lam)
            return solve(d, params, config, if_map=if_map)

        monkeypatch.setattr(denoise_module, "denoise", counting)
        monkeypatch.setattr(ipclr.cli, "denoise", counting)
        assert main(["denoise-sweep", "noisy.wav", "clean.wav", "--window-len", "512",
                     "--lam-min", "0.01", "--lam-max", "1", "--lam-count", "3",
                     "--iters", "5", "-o", "sw.csv", "--best-wav", "best.wav"]) == 0
        assert len(lams) == 3
        rows = [line.split(",") for line in (workdir / "sw.csv").read_text().splitlines()[1:]]
        best_lam = float(max(rows, key=lambda row: float(row[1]))[0])
        config = analysis_config(512, 4, "hann_tight")
        noisy = read_wav("noisy.wav")
        x, _ = solve(noisy, AdmmParams(lam=best_lam, max_iter=5), config,
                     if_map=estimate_if_for(noisy, config))
        write_wav(x, "separate.wav", format="float32")
        assert (workdir / "best.wav").read_bytes() == (workdir / "separate.wav").read_bytes()

    def test_denoise_validates_before_filesystem(self, workdir):
        synth_pair(workdir)
        assert main(["denoise", "noisy.wav", "--lam", "-3"]) == 1
        assert not (workdir / "denoised.wav").exists()

    def test_mismatched_oracle_length(self, workdir):
        synth_pair(workdir)
        assert main(["synth", "--duration", "0.25", "-o", "short.wav"]) == 0
        assert main(["denoise", "noisy.wav", "--window-len", "512",
                     "--if-oracle", "short.wav"]) == 1

    @pytest.mark.parametrize("args,outputs", [
        (["denoise", "noisy.wav", "--lam", "inf"], ["denoised.wav"]),
        (["denoise", "noisy.wav", "--lam", "nan"], ["denoised.wav"]),
        (["denoise", "noisy.wav", "--rho", "inf"], ["denoised.wav"]),
        (["denoise-sweep", "noisy.wav", "clean.wav", "--lam-max", "inf", "--best-wav",
          "best.wav"], ["sweep.csv", "best.wav"]),
        (["denoise-sweep", "noisy.wav", "clean.wav", "--rho", "nan"], ["sweep.csv"]),
    ])
    def test_non_finite_solver_inputs_rejected(self, workdir, args, outputs):
        synth_pair(workdir)
        assert main(args + ["--window-len", "512", "--iters", "2"]) == 1
        assert not any((workdir / name).exists() for name in outputs)


# Each command reads a second WAV beside its input; (command, option named in
# the error, files the run would write).
COMPANION_SITES = {
    "lowrank --clean": (["lowrank", "noisy.wav", "--clean", "{bad}", "-o", "out.wav"],
                        "--clean", ["out.wav"]),
    "denoise --if-oracle": (["denoise", "noisy.wav", "--if-oracle", "{bad}", "-o", "out.wav",
                             "--convergence-csv", "conv.csv"], "--if-oracle",
                            ["out.wav", "conv.csv"]),
    "denoise --clean": (["denoise", "noisy.wav", "--clean", "{bad}"], "--clean",
                        ["denoised.wav"]),
    "denoise-sweep CLEAN_WAV": (["denoise-sweep", "noisy.wav", "{bad}", "--lam-count", "2",
                                 "--best-wav", "best.wav"], "CLEAN_WAV",
                                ["sweep.csv", "best.wav"]),
    "denoise-sweep --if-oracle": (["denoise-sweep", "noisy.wav", "clean.wav", "--lam-count",
                                   "2", "--if-oracle", "{bad}", "--best-wav", "best.wav"],
                                  "--if-oracle", ["sweep.csv", "best.wav"]),
}


@pytest.mark.parametrize("site", COMPANION_SITES)
@pytest.mark.parametrize("bad,synth_args", [
    ("short.wav", ["--duration", "0.25"]),
    # 8000 samples, as many as the 0.5 s input at 16 kHz, at half its rate.
    ("slow.wav", ["--duration", "1.0", "--rate", "8000"]),
])
def test_companion_wav_must_match_input(workdir, capsys, site, bad, synth_args):
    synth_pair(workdir)
    assert main(["synth", *synth_args, "-o", bad]) == 0
    capsys.readouterr()
    args, option, outputs = COMPANION_SITES[site]
    args = [a.format(bad=bad) for a in args] + ["--window-len", "512"]
    if args[0] != "lowrank":
        args += ["--iters", "2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{option} {bad}:" in err and "but the input has 8000 samples at 16000 Hz" in err
    assert not any((workdir / name).exists() for name in outputs)


def write_non_finite_wav(workdir, name, like):
    """A float32 copy of the WAV ``like`` with NaN at sample 100 and Inf at 3000."""
    write_wav(read_wav(workdir / like), workdir / name, format="float32")
    raw = bytearray((workdir / name).read_bytes())
    start = raw.index(b"data") + 8
    for i, value in ((100, np.nan), (3000, np.inf)):
        raw[start + 4 * i : start + 4 * i + 4] = np.float32(value).tobytes()
    (workdir / name).write_bytes(bytes(raw))


@pytest.mark.parametrize("args", [
    ["lowrank", "bad.wav", "-o", "out.wav"],
    ["lowrank", "noisy.wav", "--clean", "bad.wav", "-o", "out.wav"],
])
def test_non_finite_wav_named_in_error(workdir, capsys, args):
    synth_pair(workdir)
    write_non_finite_wav(workdir, "bad.wav", like="clean.wav")
    capsys.readouterr()
    assert main(args + ["--window-len", "512"]) == 1
    err = capsys.readouterr().err
    assert "bad.wav: 2 non-finite samples (first at sample 100)" in err
    assert not (workdir / "out.wav").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, workdir):
        (workdir / "conf.txt").write_text("duration = 0.25\nseed = 9\n")
        assert main(["--config", "conf.txt", "synth", "-o", "c1.wav"]) == 0
        assert len(read_wav(workdir / "c1.wav")) == 4000
        # Explicit flag beats the config file.
        assert main(["--config", "conf.txt", "synth", "--duration", "0.5",
                     "-o", "c2.wav"]) == 0
        assert len(read_wav(workdir / "c2.wav")) == 8000

    def test_malformed_config_rejected(self, workdir):
        (workdir / "bad.txt").write_text("just nonsense\n")
        assert main(["--config", "bad.txt", "synth"]) == 1

    def test_missing_config_rejected(self, workdir):
        assert main(["--config", "absent.txt", "synth"]) == 1

    def test_config_sets_any_option(self, workdir):
        (workdir / "conf.txt").write_text("output = c.wav\nduration = 0.25\n")
        assert main(["--config", "conf.txt", "synth"]) == 0
        assert len(read_wav(workdir / "c.wav")) == 4000

    def test_config_choice_validated(self, workdir):
        synth_pair(workdir)
        (workdir / "conf.txt").write_text("if_source = bogus\n")
        assert main(["--config", "conf.txt", "lowrank", "noisy.wav",
                     "--window-len", "512", "--clean", "clean.wav"]) == 1

    def test_config_boolean_validated(self, workdir):
        synth_pair(workdir)
        (workdir / "conf.txt").write_text("ipc = maybe\n")
        assert main(["--config", "conf.txt", "spectrogram", "clean.wav",
                     "--window-len", "512", "-o", "spec"]) == 1
        assert not (workdir / "spec").exists()

    def test_repeatable_option_from_flags_only(self, workdir, capsys):
        (workdir / "conf.txt").write_text("freq = 440\n")
        assert main(["--config", "conf.txt", "synth", "-o", "f.wav"]) == 1
        assert not (workdir / "f.wav").exists()
        err = capsys.readouterr().err
        assert "key 'freq'" in err and "repeatable options come from flags only" in err

    def test_key_of_no_command_rejected(self, workdir, capsys):
        (workdir / "conf.txt").write_text("window_len = 1024\n")  # an option of other commands
        assert main(["--config", "conf.txt", "synth", "--duration", "0.1", "-o", "k.wav"]) == 0
        (workdir / "conf.txt").write_text("windw_len = 1024\n")
        assert main(["--config", "conf.txt", "synth", "-o", "u.wav"]) == 1
        assert not (workdir / "u.wav").exists()
        err = capsys.readouterr().err
        assert "conf.txt: key 'windw_len' names no option of any command" in err

    def test_arguments_not_read_from_config(self, workdir, capsys):
        synth_pair(workdir)
        (workdir / "conf.txt").write_text("input_wav = clean.wav\n")
        assert main(["--config", "conf.txt", "spectrogram", "-o", "spec"]) == 1
        assert "key 'input_wav' names no option of any command" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_option_is_validation_error(self, workdir):
        assert main(["synth", "--bogus-flag"]) == 1

    @pytest.mark.parametrize("command", [["lowrank", "clean.wav"],
                                         ["fig3", "--duration", "0.5"]])
    def test_zero_shift_divisor_rejected(self, workdir, capsys, command):
        synth_pair(workdir)
        assert main(command + ["--shift-div", "0"]) == 1
        assert "shift divisor must be at least 1, got 0" in capsys.readouterr().err

    def test_success_is_zero(self, workdir):
        assert main(["synth", "--duration", "0.1", "-o", "ok.wav"]) == 0


def test_cli_import_loads_no_process_pool():
    """Forked CSV workers need no pool module, so importing the CLI stays lean."""
    code = ("import sys, ipclr.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    src = str(Path(ipclr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
