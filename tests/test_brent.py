"""Brent's method in the package against scipy.optimize.brentq, the
routine it reproduces: the same probes in the same order and the same
root, bit for bit, on smooth functions and on the crossover search, which
runs in u = d^(-1/2)."""

import math

import pytest
from scipy.optimize import brentq

import casimir_slabs as cs
from casimir_slabs import anisotropic
from casimir_slabs.anisotropic import CROSSOVER_XTOL_NM, _brentq


def recorded(f):
    """f, and the list of the points it is called at, in call order."""
    probes = []

    def g(x):
        probes.append(x)
        return f(x)

    return g, probes


SMOOTH = {
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "exp": (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    "steep": (lambda x: math.tanh(20.0 * (x - 0.3)), -1.0, 2.0),
    "quintic": (lambda x: x ** 5 - x - 1.0, 1.0, 2.0),
    "flat": (lambda x: math.atan(x) - 1.0e-3, -10.0, 50.0),
    "zero_at_a": (lambda x: x * x - 4.0, 2.0, 5.0),  # the root is the low end
}


@pytest.mark.parametrize("xtol", [2.0e-12, 1.0e-6, 1.0e-3])
@pytest.mark.parametrize("name", SMOOTH)
def test_port_takes_brentqs_probes(name, xtol):
    f, a, b = SMOOTH[name]
    g, theirs = recorded(f)
    root = brentq(g, a, b, xtol=xtol)
    h, ours = recorded(f)
    mine, converged = _brentq(h, a, b, f(a), f(b), xtol)
    assert converged
    assert [a, b] + ours == theirs
    assert mine == root and type(mine) is float


def test_port_stops_where_brentq_stops():
    # a triple root keeps both short of 1e-12 after four probes
    f, a, b = (lambda x: (x - 1.0) ** 3, 0.0, 3.5)
    g, theirs = recorded(f)
    root, info = brentq(g, a, b, xtol=1.0e-12, maxiter=4, full_output=True, disp=False)
    h, ours = recorded(f)
    mine, converged = _brentq(h, a, b, f(a), f(b), 1.0e-12, maxiter=4)
    assert not info.converged and not converged
    assert [a, b] + ours == theirs
    assert mine == root


# (eps_b, l, R, d_max): the README problem, then one change each
PROBLEMS = [
    (10.0, 1000.0, 2.0, 100.0),
    (5.0, 1000.0, 2.0, 100.0),
    (20.0, 1000.0, 2.0, 1000.0),  # its crossover lies near 157 nm
    (10.0, 500.0, 2.0, 100.0),
    (10.0, 3000.0, 2.0, 100.0),
    (10.0, 1000.0, 1.5, 100.0),
    (10.0, 1000.0, 3.0, 100.0),
]


@pytest.mark.parametrize("eps_b, l, radius, d_max", PROBLEMS)
def test_crossover_search_takes_brentqs_probes(eps_b, l, radius, d_max, monkeypatch):
    def array(d):
        return cs.NanotubeArraySlab(
            omega_p3d=2.0e16, radius_R=radius, thickness_d=d, eps_b=eps_b
        )

    forces = anisotropic.orientation_forces
    ours = []

    def probe(slab, l, spec=None):
        ours.append(slab.thickness_d)
        return forces(slab, l, spec)

    monkeypatch.setattr(anisotropic, "orientation_forces", probe)
    result = cs.crossover_thickness(array(d_max), l, (2.0 * radius, d_max))
    monkeypatch.undo()
    # g(u) = anisotropy(u^-2), from the low end's u down to the high end's,
    # probed at exactly 2R and d_max there; |dd/du| <= 2 d_max^1.5 maps
    # xtol in d to xtol in u.
    ends = {(2.0 * radius) ** -0.5: 2.0 * radius, d_max ** -0.5: d_max}
    thickness = lambda u: ends.get(u, u ** -2.0)
    aniso, theirs = recorded(lambda u: forces(array(thickness(u)), l).anisotropy)
    xtol_u = CROSSOVER_XTOL_NM / (2.0 * d_max ** 1.5)
    root = brentq(aniso, *ends, xtol=xtol_u)
    assert ours == [thickness(u) for u in theirs]
    assert ours[:2] == [2.0 * radius, d_max]
    assert result.crossover_d == thickness(root) and type(result.crossover_d) is float
    assert result.iterations == len(theirs) - 2
