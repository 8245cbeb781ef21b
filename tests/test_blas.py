import numpy as np
import pytest

from ipclr import blas, lowrank


@pytest.fixture()
def two_threads():
    """OpenBLAS at 2 threads for the test, so that a restored count differs from 1."""
    functions = blas._openblas()
    get, set_ = functions.get(blas._GET_THREADS), functions.get(blas._SET_THREADS)
    if get is None or set_ is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread calls")
    old = get()
    set_(2)
    try:
        yield get
    finally:
        set_(old)


@pytest.fixture()
def no_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", dict)


class TestOneThread:
    def test_restores_count_after_normal_exit(self, two_threads):
        with blas.one_thread() as pinned:
            assert pinned
            assert two_threads() == 1
        assert two_threads() == 2

    def test_restores_count_after_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with blas.one_thread():
                assert two_threads() == 1
                raise RuntimeError("inside")
        assert two_threads() == 2

    def test_absent_library_yields_false(self, no_openblas):
        with blas.one_thread() as pinned:
            assert not pinned

    def test_missing_setter_yields_false(self, monkeypatch):
        getter_only = {blas._GET_THREADS: blas._openblas().get(blas._GET_THREADS)}
        monkeypatch.setattr(blas, "_openblas", lambda: getter_only)
        with blas.one_thread() as pinned:
            assert not pinned


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestConjGram:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (40, 40), (300, 17), (2049, 79)])
    def test_matches_product_and_is_hermitian(self, shape):
        m = random_complex(np.random.default_rng(shape[1]), shape)
        g = blas.conj_gram(m)
        if g is None:
            pytest.skip("numpy's BLAS exports no zherk")
        ref = m.conj().T @ m
        bound = shape[0] * np.finfo(np.float64).eps * np.linalg.norm(m, 2) ** 2
        assert np.abs(g - ref).max() <= bound
        np.testing.assert_array_equal(g, g.conj().T)
        np.testing.assert_array_equal(g.diagonal().imag, 0.0)

    @pytest.mark.parametrize("make", [
        lambda m: m[:, ::2],          # strided columns
        np.asfortranarray,            # column-major
        lambda m: m.real.copy(),      # real: numpy's syrk route
        lambda m: m.astype(np.complex64),
        lambda m: m[:0, :0],          # empty
    ])
    def test_other_layouts_return_none(self, make):
        assert blas.conj_gram(make(random_complex(np.random.default_rng(1), (30, 8)))) is None

    def test_absent_library_returns_none(self, no_openblas):
        assert blas.conj_gram(random_complex(np.random.default_rng(2), (30, 8))) is None


class TestGramRoutes:
    """``lowrank._gram`` falls back to numpy's product wherever ``zherk`` does not apply."""

    @pytest.mark.parametrize("make", [
        lambda m: m[:, ::2],
        np.asfortranarray,
        lambda m: m.real.copy(),
        lambda m: m.T.copy(),  # wide: M M^H
    ])
    def test_fallback_is_the_numpy_product(self, make):
        m = make(random_complex(np.random.default_rng(3), (60, 10)))
        gram, tall = lowrank._gram(m)
        ref = m.conj().T @ m if tall else m @ m.conj().T
        np.testing.assert_array_equal(gram, ref)

    def test_absent_library_takes_numpy_route(self, no_openblas):
        m = random_complex(np.random.default_rng(4), (60, 10))
        gram, tall = lowrank._gram(m)
        assert tall
        np.testing.assert_array_equal(gram, m.conj().T @ m)
