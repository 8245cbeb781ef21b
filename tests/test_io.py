import logging
import os
import struct

import numpy as np
import pytest

from ipclr import io as ipclr_io
from ipclr.io import read_matrix_csv, read_wav, write_matrix_csv, write_wav
from ipclr.signals import SignalBuffer


def build_wav_bytes(audio_format, channels, rate, bits, payload, with_header=True):
    """Hand-assembled RIFF container, independent of write_wav."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if not with_header:
        return body
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestReadWav:
    def test_pcm16_values(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        p = tmp_path / "a.wav"
        p.write_bytes(build_wav_bytes(1, 1, 8000, 16, payload))
        sig = read_wav(p)
        np.testing.assert_allclose(sig.samples, [0.0, 0.5, -0.5], atol=1e-15)
        assert sig.sample_rate_hz == 8000.0

    def test_pcm24_values(self, tmp_path):
        ints = [0, 1 << 22, -(1 << 22), 1, -1, (1 << 23) - 1, -(1 << 23)]
        payload = b"".join(struct.pack("<i", v)[:3] for v in ints)
        p = tmp_path / "b.wav"
        p.write_bytes(build_wav_bytes(1, 1, 16000, 24, payload))
        sig = read_wav(p)
        np.testing.assert_array_equal(sig.samples, np.array(ints) / 8388608.0)

    def test_stereo_downmix_average(self, tmp_path):
        payload = struct.pack("<4h", 16384, -16384, 8192, 8192)
        p = tmp_path / "c.wav"
        p.write_bytes(build_wav_bytes(1, 2, 8000, 16, payload))
        sig = read_wav(p)
        np.testing.assert_allclose(sig.samples, [0.0, 0.25], atol=1e-15)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_rejected(self, tmp_path, channels):
        values = [0.5, 0.25, np.nan, -0.5, np.inf, -np.inf, 0.0, 1.0]
        p = tmp_path / "nan.wav"
        p.write_bytes(build_wav_bytes(3, channels, 8000, 32, struct.pack("<8f", *values)))
        first = 2 // channels
        with pytest.raises(ValueError) as err:
            read_wav(p)
        assert str(err.value) == f"{p}: 3 non-finite samples (first at sample {first})"

    def test_empty_data_chunk_rejected(self, tmp_path):
        p = tmp_path / "d.wav"
        p.write_bytes(build_wav_bytes(1, 1, 8000, 16, b""))
        with pytest.raises(ValueError, match="empty data"):
            read_wav(p)

    def test_not_riff_rejected(self, tmp_path):
        p = tmp_path / "e.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(ValueError, match="RIFF"):
            read_wav(p)

    def test_unsupported_codec_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(build_wav_bytes(7, 1, 8000, 8, b"\x00\x00"))  # mu-law
        with pytest.raises(ValueError, match="unsupported codec"):
            read_wav(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "missing.wav")

    def test_truncated_chunk_rejected(self, tmp_path):
        payload = np.zeros(1000, dtype="<i2").tobytes()
        p = tmp_path / "cut.wav"
        p.write_bytes(build_wav_bytes(1, 1, 8000, 16, payload)[:-1000])
        with pytest.raises(ValueError, match=r"cut\.wav: 'data' chunk declares 2000 bytes "
                                             r"but only 1000 are present"):
            read_wav(p)

    @pytest.mark.parametrize("channels,bits,size", [(1, 16, 2001), (1, 24, 3001), (2, 16, 6)])
    def test_partial_sample_frame_rejected(self, tmp_path, channels, bits, size):
        p = tmp_path / "partial.wav"
        p.write_bytes(build_wav_bytes(1, channels, 8000, bits, b"\x01" * size))
        with pytest.raises(ValueError, match=r"partial\.wav: data chunk of .* whole number"):
            read_wav(p)


class TestWriteWav:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = SignalBuffer(rng.standard_normal(333).astype(np.float32).astype(np.float64), 44100.0)
        p = tmp_path / "f32.wav"
        write_wav(x, p, format="float32")
        back = read_wav(p)
        assert np.array_equal(back.samples, x.samples)
        assert back.sample_rate_hz == 44100.0

    @pytest.mark.parametrize("fmt,step", [("pcm16", 1 / 32768), ("pcm24", 1 / 8388608)])
    def test_pcm_round_trip_within_quantization(self, tmp_path, fmt, step):
        rng = np.random.default_rng(1)
        x = SignalBuffer(rng.uniform(-0.99, 0.99, 500), 16000.0)
        p = tmp_path / "q.wav"
        write_wav(x, p, format=fmt)
        back = read_wav(p)
        assert np.abs(back.samples - x.samples).max() <= step

    def test_full_scale_clamps_to_int_max(self, tmp_path):
        p = tmp_path / "fs.wav"
        write_wav(SignalBuffer(np.array([1.0]), 8000.0), p, format="pcm16")
        raw = p.read_bytes()
        pos = raw.index(b"data") + 8
        (value,) = struct.unpack_from("<h", raw, pos)
        assert value == 32767

    def test_clamped_count_logged(self, tmp_path, caplog):
        x = SignalBuffer(np.array([0.0, 1.5, -2.0, 0.25]), 8000.0)
        with caplog.at_level(logging.WARNING, logger="ipclr.io"):
            write_wav(x, tmp_path / "cl.wav", format="pcm16")
        assert "clamped 2 samples" in caplog.text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported format"):
            write_wav(SignalBuffer(np.zeros(4), 8000.0), tmp_path / "x.wav", format="mp3")

    def test_deterministic_bytes(self, tmp_path):
        x = SignalBuffer(np.sin(np.arange(100) * 0.1), 16000.0)
        p1, p2 = tmp_path / "1.wav", tmp_path / "2.wav"
        write_wav(x, p1)
        write_wav(x, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fmt,rate", [
        ("pcm16", 16000.5), ("pcm16", 0.5), ("pcm16", 5e9), ("pcm16", np.inf),
        ("pcm16", 2.0**31), ("float32", 2.0**30),
    ])
    def test_rejects_rate_the_header_cannot_hold(self, tmp_path, fmt, rate):
        p = tmp_path / "r.wav"
        with pytest.raises(ValueError, match="is not an integer in"):
            write_wav(SignalBuffer(np.zeros(4), rate), p, format=fmt)
        assert not p.exists()

    @pytest.mark.parametrize("fmt,rate", [
        ("pcm16", 2**31 - 1), ("pcm24", 1431655765), ("float32", 2**30 - 1), ("pcm16", 1),
    ])
    def test_largest_and_smallest_rates_round_trip(self, tmp_path, fmt, rate):
        p = tmp_path / "r.wav"
        write_wav(SignalBuffer(np.zeros(4), float(rate)), p, format=fmt)
        assert read_wav(p).sample_rate_hz == rate


def elementwise_csv(m):
    """CSV text of write_matrix_csv, formed entry by entry from numpy scalars."""
    kind = "complex" if np.iscomplexobj(m) else "real"
    lines = [f"# {m.shape[0]},{m.shape[1]},{kind}"]
    for row in m:
        if kind == "complex":
            cells = []
            for v in row:
                cells.append(repr(float(v.real)))
                cells.append(repr(float(v.imag)))
        else:
            cells = [repr(float(v)) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_cases():
    rng = np.random.default_rng(21)
    two_sided = np.fft.fft(rng.standard_normal((16, 5)), axis=0)
    special = np.array([[-0.0, 5e-324, 1e16], [1e-5, -1e-5, 0.1]])
    return {
        "real": rng.standard_normal((4, 6)),
        "complex": rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
        "one-sided-view": two_sided[:9],
        "transpose": (rng.standard_normal((5, 3)) - 1j * rng.standard_normal((5, 3))).T,
        "special-real": special,
        "special-complex": special + 1j * special[::-1],
        "int": np.arange(6).reshape(2, 3),
        "float32": rng.standard_normal((2, 3)).astype(np.float32),
        "complex64": (1e-3 + 3j) * np.ones((2, 2), dtype=np.complex64),
    }


CSV_CASES = _csv_cases()


def _block_cases():
    """Real and complex matrices whose row counts are below, at and far above the CPU counts."""
    rng = np.random.default_rng(22)
    cases = {}
    for rows in (1, 2, 3, 2049):
        real = rng.standard_normal((rows, 3))
        cases[f"real-{rows}"] = real
        cases[f"complex-{rows}"] = real + 1j * rng.standard_normal((rows, 3))
    return cases


BLOCK_CASES = {**CSV_CASES, **_block_cases()}


@pytest.fixture()
def forks(monkeypatch):
    """Pids of the processes forked during the test, in fork order."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """No pid is a live or unreaped child of this process."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestMatrixCsv:
    def test_identity_three_lines(self, tmp_path):
        p = tmp_path / "i.csv"
        write_matrix_csv(np.eye(2), p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "# 2,2,real"

    def test_complex_adjacent_columns(self, tmp_path):
        p = tmp_path / "c.csv"
        write_matrix_csv(np.array([[1 - 2j]]), p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "# 1,1,complex"
        re_part, im_part = lines[1].split(",")
        assert float(re_part) == 1.0 and float(im_part) == -2.0

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        p = tmp_path / "r.csv"
        write_matrix_csv(m, p)
        np.testing.assert_array_equal(read_matrix_csv(p), m)

    def test_real_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 7))
        p = tmp_path / "rr.csv"
        write_matrix_csv(m, p)
        np.testing.assert_array_equal(read_matrix_csv(p), m)

    def test_deterministic_bytes(self, tmp_path):
        m = np.linspace(0, 1, 12).reshape(3, 4)
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_matrix_csv(m, p1)
        write_matrix_csv(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_csv(np.array([[np.inf]]), tmp_path / "bad.csv")

    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_bytes_match_elementwise_writer(self, tmp_path, name):
        m = CSV_CASES[name]
        p = tmp_path / "m.csv"
        write_matrix_csv(m, p)
        assert p.read_text() == elementwise_csv(m)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_bytes_identical_across_block_counts(self, tmp_path, monkeypatch, forks,
                                                 name, cpus):
        m = BLOCK_CASES[name]
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: cpus)
        p = tmp_path / "m.csv"
        write_matrix_csv(m, p)
        assert p.read_text() == elementwise_csv(m)
        # One block per CPU, but never an empty one; the caller formats the first.
        assert len(forks) == min(cpus, m.shape[0]) - 1
        assert_reaped(forks)

    def test_empty_matrix_is_header_only(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: 3)
        p = tmp_path / "e.csv"
        write_matrix_csv(np.zeros((0, 4)), p)
        assert p.read_text() == "# 0,4,real\n" == elementwise_csv(np.zeros((0, 4)))
        assert forks == []

    def test_checks_run_before_any_fork(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: 3)
        m = np.ones((9, 2))
        m[8, 1] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            write_matrix_csv(m, tmp_path / "bad.csv")
        with pytest.raises(ValueError, match="2-D"):
            write_matrix_csv(np.ones((3, 3, 3)), tmp_path / "bad.csv")
        assert forks == []

    def test_worker_failure_names_path_and_reaps(self, tmp_path, monkeypatch, forks):
        caller = os.getpid()
        real_format = ipclr_io._format_rows

        def format_rows(rows):
            if os.getpid() != caller:
                raise ValueError("formatter broke")
            return real_format(rows)

        monkeypatch.setattr(ipclr_io, "_format_rows", format_rows)
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: 3)
        p = tmp_path / "w.csv"
        with pytest.raises(OSError, match=r"w\.csv: CSV worker for rows 3-5 failed: "
                                          r"ValueError: formatter broke"):
            write_matrix_csv(np.ones((9, 2)), p)
        assert len(forks) == 2
        assert_reaped(forks)

    def test_caller_block_failure_reaps_workers(self, tmp_path, monkeypatch, forks):
        caller = os.getpid()
        real_format = ipclr_io._format_rows

        def format_rows(rows):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real_format(rows)

        monkeypatch.setattr(ipclr_io, "_format_rows", format_rows)
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: 3)
        with pytest.raises(KeyboardInterrupt):
            write_matrix_csv(np.ones((9, 2)), tmp_path / "k.csv")
        assert len(forks) == 2
        assert_reaped(forks)

    def test_unwritable_path_reaps_workers(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(ipclr_io, "_usable_cpus", lambda: 2)
        with pytest.raises(OSError):
            write_matrix_csv(np.ones((4, 2)), tmp_path / "missing" / "m.csv")
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("text", [
        "# 2,2\n1.0,2.0\n3.0,4.0\n",                # header without a kind
        "# 2,two,real\n1.0,2.0\n3.0,4.0\n",         # non-integer dimension
        "# 2,2,real\n1.0,2.0\n3.0,four\n",          # non-numeric entry
        "# 2,2,real\n1.0,2.0\n3.0\n",               # ragged data row
    ], ids=["header_fields", "dimensions", "entry", "ragged_row"])
    def test_malformed_input_names_file(self, tmp_path, text):
        p = tmp_path / "broken.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="broken.csv"):
            read_matrix_csv(p)

    def test_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "bogus.csv"
        p.write_text("# 2,2,bogus\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="bogus.csv.*unknown matrix kind 'bogus'"):
            read_matrix_csv(p)
