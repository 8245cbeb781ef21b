import numpy as np
import pytest

from ipclr.cli import main
from ipclr.io import read_matrix_csv, read_wav
from ipclr.signals import snr_db


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


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
            np.testing.assert_array_equal(half, full[:257])

    def test_no_ipc_skips_extra_files(self, workdir):
        synth_pair(workdir)
        assert main(["spectrogram", "clean.wav", "--window-len", "512",
                     "-o", "spec2"]) == 0
        assert (workdir / "spec2" / "clean_complex.csv").exists()
        assert not (workdir / "spec2" / "clean_ipc.csv").exists()

    def test_missing_input(self, workdir):
        assert main(["spectrogram", "absent.wav"]) == 1


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

    def test_fig3_bad_k_range(self, workdir):
        assert main(["fig3", "--k-min", "5", "--k-max", "2"]) == 1


class TestDenoiseCommands:
    def test_denoise_tiny_lambda_returns_input(self, workdir):
        clean_p, noisy_p = synth_pair(workdir)
        rc = main(["denoise", "noisy.wav", "--window-len", "512", "--lam", "1e-12",
                   "--iters", "5", "-o", "dn.wav", "--convergence-csv", "conv.csv"])
        assert rc == 0
        noisy, out = read_wav(noisy_p), read_wav(workdir / "dn.wav")
        dev = np.linalg.norm(out.samples - noisy.samples) / np.linalg.norm(noisy.samples)
        assert dev < 1e-6
        conv = (workdir / "conv.csv").read_text().splitlines()
        assert conv[0] == "iteration,objective,primal_residual"
        assert len(conv) == 6

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

    def test_denoise_validates_before_filesystem(self, workdir):
        synth_pair(workdir)
        assert main(["denoise", "noisy.wav", "--lam", "-3"]) == 1
        assert not (workdir / "denoised.wav").exists()

    def test_mismatched_oracle_length(self, workdir):
        synth_pair(workdir)
        assert main(["synth", "--duration", "0.25", "-o", "short.wav"]) == 0
        assert main(["denoise", "noisy.wav", "--window-len", "512",
                     "--if-oracle", "short.wav"]) == 1


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

    def test_arguments_not_read_from_config(self, workdir):
        synth_pair(workdir)
        (workdir / "conf.txt").write_text("input_wav = clean.wav\n")
        assert main(["--config", "conf.txt", "spectrogram", "-o", "spec"]) == 1


class TestExitCodes:
    def test_unknown_option_is_validation_error(self, workdir):
        assert main(["synth", "--bogus-flag"]) == 1

    def test_success_is_zero(self, workdir):
        assert main(["synth", "--duration", "0.1", "-o", "ok.wav"]) == 0
