"""numpy's bundled OpenBLAS through ctypes: its thread count and ``zherk``.

numpy's wheels link ``libscipy_openblas64_``, whose exports carry a
``scipy_`` prefix and a ``64_`` suffix.  The library is reached on first use
through numpy's own extension module, whose symbol lookup also searches the
libraries it links, so importing this module loads nothing.  When a symbol
is missing (another BLAS, another wheel or platform), ``one_thread`` yields
False and ``conj_gram`` returns None, and callers take their numpy route.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"
_ZHERK = "scipy_cblas_zherk64_"
_I32, _I64, _F64, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {  # name: (restype, argtypes); OpenBLAS's integers are 64-bit here
    _GET_THREADS: (_I32, []),
    _SET_THREADS: (None, [_I32]),
    # order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc
    _ZHERK: (None, [_I32, _I32, _I32, _I64, _I64, _F64, _PTR, _I64, _F64, _PTR, _I64]),
}
_ROW_MAJOR, _UPPER, _CONJ_TRANS = 101, 121, 113  # CBLAS enum values


@functools.cache
def _openblas() -> dict:
    """The typed functions of ``_SIGNATURES`` that numpy's OpenBLAS exports, by name."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return {}
    found = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            found[name] = fn
    return found


@contextmanager
def one_thread() -> Iterator[bool]:
    """Run the body at one OpenBLAS thread; yields whether the count could be set.

    The old count is restored on exit, also when the body raises.  The count
    is the process's, so BLAS calls made meanwhile by other threads run at
    one thread too.
    """
    functions = _openblas()
    if _GET_THREADS not in functions or _SET_THREADS not in functions:
        yield False
        return
    old = functions[_GET_THREADS]()
    functions[_SET_THREADS](1)
    try:
        yield True
    finally:
        functions[_SET_THREADS](old)


def conj_gram(m: np.ndarray) -> np.ndarray | None:
    """M^H M of a C-contiguous complex128 matrix by ``zherk``, or None.

    ``zherk`` computes the upper triangle only, from M itself, with no
    conjugated copy and half the flops of the full product; the lower
    triangle is mirrored from it, so the result is exactly Hermitian with a
    real diagonal.  None when M is of another dtype or layout, is empty, or
    the library lacks ``zherk``.
    """
    herk = _openblas().get(_ZHERK)
    if (herk is None or m.ndim != 2 or m.dtype != np.complex128
            or not m.flags.c_contiguous or m.size == 0):
        return None
    k, n = m.shape
    g = np.zeros((n, n), dtype=np.complex128)
    herk(_ROW_MAJOR, _UPPER, _CONJ_TRANS, n, k, 1.0, m.ctypes.data, n, 0.0, g.ctypes.data, n)
    g += np.triu(g, 1).conj().T
    return g
