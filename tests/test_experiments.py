import numpy as np
import pytest

from ipclr.experiments import (
    REPRESENTATIONS,
    ExperimentSpec,
    analysis_config,
    default_signal,
    harmonic_specs,
    rank_cell_snr,
    represent,
    run_fig3,
    run_table1,
    table1_layout,
)
from ipclr.frames import StftConfig, analysis_window, hann_window, one_sided, stft

# Small geometry keeps these fast; the published-scale runs live in the
# acceptance suite.  Window 1024 keeps the 100 Hz partials 6.4 bins apart,
# clear of the 3-bin Hann kernel, so the phase-corrected collapse stays sharp.
FAST = dict(window_len=1024, duration_s=0.5)


def fast_signal():
    return default_signal(3, FAST["duration_s"])


class TestRecipes:
    def test_harmonic_specs_values(self):
        specs = harmonic_specs(3)
        assert [s.amplitude for s in specs] == [10.0, 9.0, 8.0]
        assert [s.frequency_hz for s in specs] == [100.0, 200.0, 300.0]

    def test_default_signal_shape(self):
        sig = default_signal(3, 1.0)
        assert len(sig) == 16000
        assert sig.sample_rate_hz == 16000.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="bogus")
        with pytest.raises(ValueError):
            ExperimentSpec(kind="lowrank")
        with pytest.raises(ValueError):
            ExperimentSpec(kind="table1", noise_domain="fourier")
        with pytest.raises(ValueError):
            ExperimentSpec(kind="table1", if_source="psychic")


class TestRankCell:
    def test_clean_cell_deterministic(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        a = rank_cell_snr(sig, cfg, "ipc", k=1)
        b = rank_cell_snr(sig, cfg, "ipc", k=1)
        assert a == b

    def test_noisy_cell_seed_deterministic(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        a = rank_cell_snr(sig, cfg, "stft", k=1, input_snr_db=10.0, seed=3)
        b = rank_cell_snr(sig, cfg, "stft", k=1, input_snr_db=10.0, seed=3)
        c = rank_cell_snr(sig, cfg, "stft", k=1, input_snr_db=10.0, seed=4)
        assert a == b and a != c

    def test_ipc_beats_stft_at_rank_one(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        ipc = rank_cell_snr(sig, cfg, "ipc", k=1)
        plain = rank_cell_snr(sig, cfg, "stft", k=1)
        assert ipc > plain + 15.0

    def test_unknown_representation(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        with pytest.raises(ValueError):
            rank_cell_snr(sig, cfg, "cepstrum", k=1)

    def test_time_noise_domain_runs(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        value = rank_cell_snr(
            sig, cfg, "ipc", k=1, input_snr_db=10.0, seed=0,
            noise_domain="time", if_source="noisy",
        )
        assert np.isfinite(value)


class TestRepresent:
    @pytest.mark.parametrize("framing", ["valid", "cover"])
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_back_inverts_without_truncation(self, representation, framing):
        sig = fast_signal()
        if framing == "valid":
            cfg = analysis_config(FAST["window_len"], 4)
            x = one_sided(stft(sig, cfg, hann_window(cfg.window_len), framing="valid").data)
        else:
            cfg = StftConfig(window_len=FAST["window_len"], hop=256, window_kind="hann_tight")
            x = stft(sig, cfg, analysis_window(cfg)).data
        m, back = represent(x, representation, sig, cfg, framing)
        assert m.shape == x.shape
        np.testing.assert_allclose(back(m), x, rtol=0, atol=1e-12 * np.abs(x).max())


class TestSweeps:
    def test_table1_cell_grid_complete(self):
        spec = ExperimentSpec(
            kind="table1", duration_s=0.5, window_len=512,
            seeds=(0, 1), input_snrs_db=(10.0,),
        )
        cells = run_table1(spec)
        # 3 representations x 3 shifts x (2 noisy seeds + 1 clean)
        assert len(cells) == 3 * 3 * 3
        layout = table1_layout(cells, spec.shift_divisors, spec.input_snrs_db)
        assert len(layout) == 9
        for row in layout:
            assert set(row) == {"representation", "shift", "snr_in_10", "clean"}

    def test_fig3_rows_per_k_and_representation(self):
        spec = ExperimentSpec(
            kind="fig3", duration_s=0.5, window_len=512,
            shift_divisors=(4,), k_values=(1, 2, 3),
        )
        cells = run_fig3(spec, None)
        assert len(cells) == 9
        stft_curve = {c.k: c.snr_db for c in cells if c.representation == "stft"}
        # Clean curves are non-decreasing in k.
        assert stft_curve[1] <= stft_curve[2] <= stft_curve[3]

    def test_fig3_single_k(self):
        spec = ExperimentSpec(
            kind="fig3", duration_s=0.5, window_len=512,
            shift_divisors=(4,), k_values=(1,),
        )
        cells = run_fig3(spec, 10.0)
        assert len(cells) == 3
