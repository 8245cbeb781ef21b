import sys
import threading

import numpy as np
import pytest

from ipclr import blas, experiments
from ipclr.experiments import (
    REPRESENTATIONS,
    ExperimentSpec,
    RankCell,
    analysis_config,
    default_signal,
    estimate_if_valid,
    harmonic_specs,
    observe,
    rank_cell_snr,
    represent,
    run_fig3,
    run_table1,
    table1_layout,
    valid_spectrogram,
)
from ipclr.frames import (
    StftConfig,
    analysis_window,
    derivative_window,
    hann_window,
    stft,
)
from ipclr.ifreq import estimate_if
from ipclr.ipc import build_corrector
from ipclr.lowrank import svd
from ipclr.signals import snr_db

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

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_rejects_rank_other_than_one(self, k):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        with pytest.raises(ValueError, match="rank-1.*run_fig3"):
            rank_cell_snr(sig, cfg, "ipc", k=k)

    def test_time_noise_domain_runs(self):
        sig = fast_signal()
        cfg = analysis_config(FAST["window_len"], 4)
        value = rank_cell_snr(
            sig, cfg, "ipc", k=1, input_snr_db=10.0, seed=0,
            noise_domain="time", if_source="noisy",
        )
        assert np.isfinite(value)

    def test_noisy_if_source_needs_waveform_noise(self):
        # Bin-wise noise has no waveform, so a "noisy" IF would be the clean one.
        with pytest.raises(ValueError, match="noise_domain='time'"):
            ExperimentSpec(kind="table1", if_source="noisy")
        cfg = analysis_config(FAST["window_len"], 4)
        with pytest.raises(ValueError, match="noise_domain='time'"):
            rank_cell_snr(fast_signal(), cfg, "ipc", k=1, input_snr_db=10.0,
                          if_source="noisy")


class TestRepresent:
    @pytest.mark.parametrize("framing", ["valid", "cover"])
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_back_inverts_without_truncation(self, representation, framing):
        sig = fast_signal()
        if framing == "valid":
            cfg = analysis_config(FAST["window_len"], 4)
            x = stft(sig, cfg, hann_window(cfg.window_len), "valid", one_sided=True).data
            e = build_corrector(estimate_if_valid(sig, cfg))
        else:
            # The two-sided pipeline of ``ipclr lowrank -o``.
            cfg = StftConfig(window_len=FAST["window_len"], hop=256, window_kind="hann_tight")
            x = stft(sig, cfg, analysis_window(cfg)).data
            L = cfg.window_len
            e = build_corrector(estimate_if(stft(sig, cfg, hann_window(L)),
                                            stft(sig, cfg, derivative_window(L))))
        m, back = represent(x, representation, e)
        assert m.shape == x.shape
        np.testing.assert_allclose(back(m), x, rtol=0, atol=1e-12 * np.abs(x).max())


    def test_valid_spectrogram_is_c_contiguous(self):
        x = valid_spectrogram(fast_signal(), analysis_config(FAST["window_len"], 4)).data
        assert x.flags.c_contiguous

    def test_amplitude_round_trips_exact_zero_bins(self):
        x = np.array([[0.0, 3 - 4j, -0.0], [0j, -2.0, 1j]])
        m, back = represent(x, "amplitude", None)
        restored = back(m)
        assert np.all(np.isfinite(restored))
        np.testing.assert_allclose(restored, x, rtol=1e-15, atol=0)
        phase = back(np.ones(x.shape))
        np.testing.assert_array_equal(phase[x == 0], 1.0)
        np.testing.assert_allclose(phase, np.exp(1j * np.angle(np.where(x == 0, 0, x))),
                                   rtol=0, atol=1e-15)


def svd_reference_cell(clean, config, cell, noise_domain, if_source):
    """One Table 1 cell recomputed from scratch with the LAPACK SVD."""
    s_clean = valid_spectrogram(clean, config)
    x_obs, observed, _ = observe(clean, s_clean, cell.input_snr_db, cell.seed, noise_domain)
    e = build_corrector(estimate_if_valid(clean if if_source == "clean" else observed, config))
    m, back = represent(x_obs, cell.representation, e)
    return snr_db(s_clean.data, back(svd(m).reconstruct(1)))


@pytest.mark.parametrize("noise_domain,if_source", [
    ("tf", "clean"), ("time", "clean"), ("time", "noisy"),
])
class TestTable1SharedWork:
    """run_table1 shares each hop's clean spectrogram, corrector and observations."""

    SPEC = dict(kind="table1", duration_s=0.5, window_len=512, seeds=(0, 1))

    def cells(self, noise_domain, if_source):
        spec = ExperimentSpec(**self.SPEC, noise_domain=noise_domain, if_source=if_source)
        return default_signal(3, 0.5), run_table1(spec)

    def test_cells_equal_rank_cell_snr(self, noise_domain, if_source):
        clean, cells = self.cells(noise_domain, if_source)
        assert len(cells) == 3 * 3 * (3 * 2 + 1)
        for c in cells:
            config = analysis_config(512, c.shift_divisor)
            assert c.snr_db == rank_cell_snr(
                clean, config, c.representation, k=1, input_snr_db=c.input_snr_db,
                seed=c.seed, noise_domain=noise_domain, if_source=if_source,
            ), c

    def test_cells_match_svd_reference(self, noise_domain, if_source):
        clean, cells = self.cells(noise_domain, if_source)
        for c in cells:
            config = analysis_config(512, c.shift_divisor)
            ref = svd_reference_cell(clean, config, c, noise_domain, if_source)
            assert abs(c.snr_db - ref) <= 1e-9, c


class TestTransformCounts:
    """Each Hann or derivative-window spectrogram is taken once (window 512, 0.5 s)."""

    SPEC = dict(kind="table1", duration_s=0.5, window_len=512, seeds=(0, 1))

    def test_table1_clean_if(self, rfft_calls):
        run_table1(ExperimentSpec(**self.SPEC))
        # Per hop: the clean signal's Hann and derivative-window spectrograms.
        assert len(rfft_calls) == 3 * 2
        assert len(set(rfft_calls)) == len(rfft_calls)

    def test_table1_noisy_if(self, rfft_calls):
        run_table1(ExperimentSpec(**self.SPEC, noise_domain="time", if_source="noisy"))
        # Per hop: the clean pair, and a pair per noisy waveform (3 levels x 2 seeds).
        assert len(rfft_calls) == 3 * (2 + 2 * 3 * 2) == 42
        assert len(set(rfft_calls)) == len(rfft_calls)

    def test_cell_and_fig3(self, rfft_calls):
        config = analysis_config(512, 4)
        rank_cell_snr(default_signal(3, 0.5), config, "ipc", k=1, input_snr_db=10.0,
                      noise_domain="time", if_source="noisy")
        assert len(rfft_calls) == 3  # clean Hann, noisy Hann, noisy derivative
        rfft_calls.clear()
        run_fig3(ExperimentSpec(kind="fig3", duration_s=0.5, window_len=512,
                                shift_divisors=(4,), k_values=(1, 2)), 10.0)
        assert len(rfft_calls) == 2


class TestSweeps:
    def test_table1_cell_grid_complete(self):
        spec = ExperimentSpec(
            kind="table1", duration_s=0.5, window_len=512,
            seeds=(0, 1), input_snrs_db=(10.0,),
        )
        cells = run_table1(spec)
        # 3 representations x 3 shifts x (2 noisy seeds + 1 clean)
        assert len(cells) == 3 * 3 * 3
        layout = table1_layout(cells)
        assert len(layout) == 9
        for row in layout:
            assert set(row) == {"representation", "shift", "snr_in_10", "clean"}

    def test_table1_layout_averages_each_group(self):
        # Hop 1/4 has no 10 dB cells; each clean group holds two cells.
        divs, levels = (2, 4), (0.0, 10.0)
        cells = [
            RankCell(r, div, level, 1, seed, 0.37 * len(str((r, div, level))) + seed)
            for r in REPRESENTATIONS for div in divs for level in levels + (None,)
            for seed in (0, 1, 2) if (div, level) != (4, 10.0)
        ]
        expected = []
        for r in REPRESENTATIONS:
            for div in divs:
                row = {"representation": r, "shift": f"1/{div}"}
                for level in levels:
                    group = [c.snr_db for c in cells
                             if (c.representation, c.shift_divisor, c.input_snr_db)
                             == (r, div, level)]
                    if group:
                        row[f"snr_in_{level:g}"] = float(np.mean(group))
                row["clean"] = next(c.snr_db for c in cells if c.input_snr_db is None
                                    and (c.representation, c.shift_divisor) == (r, div))
                expected.append(row)
        layout = table1_layout(cells)
        assert layout == expected
        assert [list(row) for row in layout] == [list(row) for row in expected]
        assert "snr_in_10" not in layout[1] and "snr_in_10" in layout[0]

    def test_table1_layout_takes_hops_and_levels_from_cells(self):
        cells = [RankCell(r, 4, level, 1, 0, 1.5) for r in REPRESENTATIONS for level in (5.0, None)]
        assert table1_layout(cells) == [
            {"representation": r, "shift": "1/4", "snr_in_5": 1.5, "clean": 1.5}
            for r in REPRESENTATIONS
        ]

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


class TestTable1Split:
    """run_table1 splits each hop's observations over threads at one BLAS thread."""

    SPEC = ExperimentSpec(kind="table1", duration_s=0.5, window_len=512, seeds=(0, 1, 2))

    @staticmethod
    def threads_per_cell(monkeypatch):
        """Run the table, recording the thread each cell ran on; return (cells, threads)."""
        threads = []
        rank_one_snr = experiments._rank_one_snr

        def recording(*args):
            threads.append(threading.get_ident())
            return rank_one_snr(*args)

        monkeypatch.setattr(experiments, "_rank_one_snr", recording)
        return run_table1(TestTable1Split.SPEC), threads

    def test_one_and_two_workers_give_identical_cells(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        serial, threads = self.threads_per_cell(monkeypatch)
        assert set(threads) == {threading.get_ident()}
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        assert run_table1(self.SPEC) == serial

    def test_absent_library_runs_serially(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas", dict)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cells, threads = self.threads_per_cell(monkeypatch)
        assert set(threads) == {threading.get_ident()}
        assert len(cells) == 3 * 3 * (3 * 3 + 1)


class TestInThreads:
    def test_each_task_runs_once_in_order(self):
        calls = []

        def task(i):
            calls.append(i)
            return i * i

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = experiments._in_threads(task, 2000, workers=8)
        finally:
            sys.setswitchinterval(switch)
        assert results == [i * i for i in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_first_exception_raised_after_threads_finish(self):
        before = threading.active_count()

        def task(i):
            if i == 3:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            experiments._in_threads(task, 50, workers=4)
        assert threading.active_count() == before
