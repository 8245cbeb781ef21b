"""WAV ingestion/emission and matrix serialization.

WAV support covers RIFF/WAVE containers with PCM 16/24-bit and IEEE
float32 encodings, mono only (multi-channel input is downmixed by channel
average).  Matrix export is CSV with a declared header, complex entries as
adjacent real/imaginary columns.
"""

from __future__ import annotations

import logging
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
    the file, or a data chunk that is not a whole number of sample frames,
    raises ValueError.
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
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        ints = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        x = ints.astype(np.float64) / 8388608.0
    else:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)

    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
        log.info("%s: downmixed %d channels to mono", path, channels)
    return SignalBuffer(x, float(rate))


def write_wav(x: SignalBuffer, path: str | Path, format: str = "pcm16") -> None:
    """Write a mono WAV file; samples outside [-1, 1] are clamped.

    The number of clamped samples is reported through the module logger.
    """
    if format not in FORMATS:
        raise ValueError(f"unsupported format {format!r}; expected one of {FORMATS}")
    samples = x.samples
    clamped = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    if clamped and format != "float32":
        log.warning("%s: clamped %d samples outside [-1, 1]", path, clamped)
    rate = int(round(x.sample_rate_hz))

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
            u = (ints & 0xFFFFFF).astype(np.uint32)
            b = np.empty((ints.shape[0], 3), dtype=np.uint8)
            b[:, 0] = u & 0xFF
            b[:, 1] = (u >> 8) & 0xFF
            b[:, 2] = (u >> 16) & 0xFF
            payload = b.tobytes()
            bits, audio_format = 24, 1

    block_align = bits // 8
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


def write_matrix_csv(m: np.ndarray, path: str | Path) -> None:
    """Write a real or complex matrix as CSV, row-major.

    The first line declares "# rows,cols,kind"; complex entries occupy two
    adjacent columns (real part, imaginary part).  Output is deterministic
    byte-for-byte for identical inputs.
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
    lines = [f"# {m.shape[0]},{m.shape[1]},{kind}"]
    lines += [",".join(map(repr, row)) for row in values.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


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
