import numpy as np
import pytest

from permqmc import KernelSpec, PermStructure, SpectralWeight


@pytest.fixture
def sobolev() -> SpectralWeight:
    """Well-scaled space, smoothness 1, Korobov generator."""
    return SpectralWeight()


@pytest.fixture
def sobolev2() -> SpectralWeight:
    return SpectralWeight(alpha=2.0)


@pytest.fixture
def spec_d2_full(sobolev) -> KernelSpec:
    return KernelSpec(sobolev, PermStructure.full(2))


@pytest.fixture
def spec_d3_full(sobolev) -> KernelSpec:
    return KernelSpec(sobolev, PermStructure.full(3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240611)


@pytest.fixture
def fft_lengths(monkeypatch) -> list:
    """Every length that numpy's real FFTs are called with, in call order."""
    lengths = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)

        def wrapped(a, n=None, *args, _fn=fn, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return _fn(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapped)
    return lengths
