"""WAV ingestion/emission and matrix serialization.

WAV support covers RIFF/WAVE containers with PCM 16/24-bit and IEEE
float32 encodings, mono only (multi-channel input is downmixed by channel
average).  Matrix export is CSV with a declared header, complex entries as
adjacent real/imaginary columns.  The CSV text is formatted on every CPU
the process may use, in forked workers, and is byte-identical whatever the
CPU count.
"""

from __future__ import annotations

import logging
import os
import struct
from pathlib import Path

import numpy as np

from .signals import SignalBuffer

log = logging.getLogger(__name__)

FORMATS = ("pcm16", "pcm24", "float32")

_PCM_SCALE = {"pcm16": 32768, "pcm24": 8388608}


def read_wav(path: str | Path) -> SignalBuffer:
    """Read a RIFF/WAVE file into a mono SignalBuffer.

    PCM samples are normalized to [-1, 1]; multi-channel data is averaged
    down to mono with a logged notice.  A chunk that runs past the end of
    the file, a data chunk that is not a whole number of sample frames, or
    a float32 NaN/Inf raises ValueError naming the file; for NaN/Inf it
    gives their count and the first sample frame holding one.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: {chunk_id.decode('latin-1')!r} chunk declares "
                             f"{size} bytes but only {len(body)} are present")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise ValueError(f"{path}: malformed fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == 0xFFFE and len(fmt) >= 26:
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if channels < 1 or rate < 1:
        raise ValueError(f"{path}: malformed fmt chunk")
    if len(data) == 0:
        raise ValueError(f"{path}: empty data chunk")
    if (audio_format, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise ValueError(f"{path}: unsupported codec (format={audio_format}, bits={bits})")
    frame_bytes = channels * bits // 8
    if len(data) % frame_bytes:
        raise ValueError(f"{path}: data chunk of {len(data)} bytes is not a whole "
                         f"number of {frame_bytes}-byte sample frames")

    if bits == 16:
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 24:
        # Each sample's 3 bytes fill the top of a little-endian int32, and
        # the arithmetic shift back down extends the sign.
        padded = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        padded[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        x = (padded.view("<i4")[:, 0] >> 8).astype(np.float64) / 8388608.0
    else:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(x))
            raise ValueError(f"{path}: {bad.size} non-finite samples "
                             f"(first at sample {bad[0] // channels})")

    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
        log.info("%s: downmixed %d channels to mono", path, channels)
    return SignalBuffer(x, float(rate))


def write_wav(x: SignalBuffer, path: str | Path, format: str = "pcm16") -> None:
    """Write a mono WAV file.

    ``float32`` stores every sample rounded to float32, with no clamping:
    values outside [-1, 1] are written as they are.  ``pcm16`` and ``pcm24``
    clamp to their integer range and report the number of samples outside
    [-1, 1] through the module logger.

    The sample rate must be a whole number of Hz whose rate and byte rate
    fit the header's 32-bit fields; any other rate raises ValueError.
    """
    if format not in FORMATS:
        raise ValueError(f"unsupported format {format!r}; expected one of {FORMATS}")
    samples = x.samples
    clamped = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    if clamped and format != "float32":
        log.warning("%s: clamped %d samples outside [-1, 1]", path, clamped)

    if format == "float32":
        payload = samples.astype("<f4").tobytes()
        bits, audio_format = 32, 3
    else:
        scale = _PCM_SCALE[format]
        ints = np.clip(np.rint(samples * scale), -scale, scale - 1).astype(np.int64)
        if format == "pcm16":
            payload = ints.astype("<i2").tobytes()
            bits, audio_format = 16, 1
        else:
            # The left shift leaves the 3 sample bytes on top of a zero low byte.
            shifted = (ints << 8).astype("<i4").view(np.uint8).reshape(-1, 4)
            payload = shifted[:, 1:].tobytes()
            bits, audio_format = 24, 1

    block_align = bits // 8
    rate = x.sample_rate_hz
    if not (float(rate).is_integer() and rate * block_align <= 0xFFFFFFFF):
        raise ValueError(f"{path}: sample rate {rate:g} Hz is not an integer in "
                         f"[1, {0xFFFFFFFF // block_align}] for {format}")
    rate = int(rate)
    fmt_chunk = struct.pack(
        "<HHIIHH", audio_format, 1, rate, rate * block_align, block_align, bits
    )
    chunks = [b"fmt ", struct.pack("<I", len(fmt_chunk)), fmt_chunk]
    if audio_format == 3:
        chunks += [b"fact", struct.pack("<I", 4), struct.pack("<I", len(x))]
    chunks += [b"data", struct.pack("<I", len(payload)), payload]
    if len(payload) & 1:
        chunks.append(b"\x00")
    body = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _format_rows(rows: np.ndarray) -> str:
    """CSV text of float64 rows, one newline-terminated line per row.

    Rows become Python floats one at a time, so the floats alive at once
    fit in memory pages already in use.
    """
    return "".join([",".join(map(repr, row.tolist())) + "\n" for row in rows])


class _Worker:
    """A forked child that formats a block of rows and sends the text over a pipe.

    The child only turns floats into text, writes it and leaves through
    ``os._exit``: it takes no lock that another thread of the caller (a
    BLAS thread, say) may hold at the fork, and runs none of the caller's
    exit handlers or buffer flushes.
    """

    def __init__(self, rows: np.ndarray, first: int):
        self.label = f"rows {first}-{first + len(rows) - 1}"
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _worker_main(rows, write_fd)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def text(self, path: str | Path) -> str:
        """The block's CSV text; a failed worker raises OSError naming ``path``."""
        data = self.pipe.read()
        code = self._reap()
        if code == 1:
            raise OSError(f"{path}: CSV worker for {self.label} failed: {data.decode()}")
        if code:
            raise OSError(f"{path}: CSV worker for {self.label} exited with status {code}")
        return data.decode()

    def close(self) -> None:
        """Kill the child unless it has been reaped, then reap it."""
        if self.pid:
            import signal  # only on this path, so importing the CLI loads nothing new

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self.pipe.close()

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        return os.waitstatus_to_exitcode(status)


def _worker_main(rows: np.ndarray, write_fd: int):
    """Body of a forked worker: exit 0 after sending the text, 1 after an error message."""
    code = 2
    try:
        try:
            data, failed = _format_rows(rows).encode(), False
        except Exception as exc:
            data, failed = f"{type(exc).__name__}: {exc}".encode(), True
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = int(failed)
    finally:
        os._exit(code)


def write_matrix_csv(m: np.ndarray, path: str | Path) -> None:
    """Write a real or complex matrix as CSV, row-major.

    The first line declares "# rows,cols,kind"; complex entries occupy two
    adjacent columns (real part, imaginary part), each float written as its
    ``repr``.  The rows are split into contiguous blocks, one per CPU the
    process may use: the caller formats and writes the first block while
    forked workers format the others, and their text is appended in row
    order, so the output is byte-identical whatever the CPU count (one
    block where there is no ``fork``).  Every worker is reaped before this
    returns or raises; a worker that fails raises OSError naming ``path``.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    kind = "complex" if np.iscomplexobj(m) else "real"
    if kind == "complex":
        # Viewed as float64, each complex entry is its real/imaginary pair.
        values = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    else:
        values = np.asarray(m, dtype=np.float64)
    rows = values.shape[0]
    blocks = max(1, min(rows, _usable_cpus() if hasattr(os, "fork") else 1))
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    workers = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            workers.append(_Worker(values[start:stop], start))
        with open(path, "w") as fh:
            fh.write(f"# {m.shape[0]},{m.shape[1]},{kind}\n")
            fh.write(_format_rows(values[: bounds[1]]))
            for worker in workers:
                fh.write(worker.text(path))
    finally:
        for worker in workers:
            worker.close()


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read back a matrix written by :func:`write_matrix_csv`.

    Malformed input raises ValueError with a message that names the file.
    """
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("#"):
        raise ValueError(f"{path}: missing matrix header")
    try:
        rows, cols, kind = text[0].lstrip("# ").split(",")
        rows, cols = int(rows), int(cols)
        values = [[float(v) for v in line.split(",")] for line in text[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed matrix CSV: {exc}") from None
    if kind not in ("real", "complex"):
        raise ValueError(f"{path}: unknown matrix kind {kind!r}")
    width = 2 * cols if kind == "complex" else cols
    if len(values) != rows or any(len(row) != width for row in values):
        raise ValueError(f"{path}: shape mismatch against header")
    arr = np.asarray(values).reshape(rows, width)
    if kind == "complex":
        arr = arr[:, 0::2] + 1j * arr[:, 1::2]
    return arr
