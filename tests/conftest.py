import pytest

from casimir_slabs import IsotropicSlab, NanotubeArraySlab, QuadratureSpec
from casimir_slabs import anisotropic, lifshitz, response
from casimir_slabs.quadrature import _VISITED_LEVELS

OMEGA_P = 2.0e16  # free-electron-gas bulk plasma frequency, 1/s


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def fast_spec():
    # Loose tolerance for the heavier double integrals in unit tests;
    # still far below any assertion tolerance used with it.
    return QuadratureSpec(rel_tol=1.0e-6, abs_tol=1.0e-10)


@pytest.fixture
def film_slab():
    return IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=10.0, eps_b=9.0)


@pytest.fixture
def tube_array():
    return NanotubeArraySlab(
        omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=20.0, eps_b=10.0
    )


def empty_node_block_caches():
    """Empty every lru_cache of lifshitz and anisotropic sized to the levels
    an integral visits, the node-block caches, found by enumeration so that
    a cache added later is emptied too."""
    caches = {
        value
        for module in (lifshitz, anisotropic)
        for value in vars(module).values()
        if hasattr(value, "cache_parameters")
        and value.cache_parameters()["maxsize"] == len(_VISITED_LEVELS)
    }
    assert caches, "no node-block cache found"
    for cache in caches:
        cache.cache_clear()


class BesselCalls(list):
    """The (shape, bytes) of the z of each Bessel call made through
    response since the last cold()."""

    def cold(self):
        """Forget the calls counted so far and empty the node-block caches."""
        self.clear()
        empty_node_block_caches()


@pytest.fixture
def bessel_calls(monkeypatch):
    """Bessel calls through response, counted from an empty cache."""
    calls, bessel = BesselCalls(), response.bessel_i0k0_product

    def counting(z):
        calls.append((z.shape, z.tobytes()))
        return bessel(z)

    monkeypatch.setattr(response, "bessel_i0k0_product", counting)
    calls.cold()
    return calls
