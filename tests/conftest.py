import hashlib

import numpy as np
import pytest


@pytest.fixture()
def rfft_calls(monkeypatch):
    """One ``(shape, sha1 of the input)`` entry per ``np.fft.rfft`` call from now on."""
    calls = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        a = np.ascontiguousarray(a)
        calls.append((a.shape, hashlib.sha1(a.tobytes()).hexdigest()))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls
