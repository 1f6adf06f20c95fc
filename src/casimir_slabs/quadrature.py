"""Tensor-product tanh-sinh quadrature for the (x, p) force integrals.

One engine serves the p axis alone and the (x, p) double integral, with
the tanh-sinh rule of Takahasi & Mori, Publ. RIMS 9 (1974) 721 on each
axis: x on (0, x_max], p on a window of its substitution, p = cosh u
(default) or p = 1 + t^2, which make any (p^2-1)^-s endpoint factor with
s < 1 integrable.  Kernels get whole arrays, f(x[:, None], p[None, :],
q[None, :]), with q = sqrt(p^2-1) computed exactly (sinh u, or
t sqrt(2+t^2)), so they never form p*p - 1 near p = 1.

Only levels 3 to 5 are built, each at its own step, half the one before
on both axes; at the default spec no force integral of the presets would
stop sooner.  The kernel is called once per level on its whole grid,
nodes in increasing tau.  The error estimate is |I_h - I_h/2| (Bailey,
Jeyabalan & Li, Exp. Math. 14 (2005) 317) plus bounds on the x tail
beyond x_max, the p tail beyond the window and below its first node, and
a roundoff floor of a few eps sum |w f|.  A tolerance below that floor
is reported as not converged, never clamped.  Each level's nodes and
weights are built once per (x_max, p substitution) and kept read-only:
kernels get views of them, so the engine is safe in threads, and a
kernel writing into its arguments raises ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "IntegralResult",
    "integrate_p_axis",
    "integrate_xp",
]

PTransform = Literal["hyperbolic", "shifted-square"]

# Truncation of the step variable tau: the first node lies within e^-52 of
# the lower end (x = 0, p = 1), the last within e^-11 of the window end.
_TAU_LO, _TAU_HI = 3.5, 2.0
_X_STEP = 0.5  # level-0 step on the x axis
# Window end and level-0 step of each p substitution: a p^-2 integrand
# decays like e^-u in u = arccosh p, but like t^-3 in t = sqrt(p-1), whose
# long window needs a finer step for its O(1) region.
_P_RULES = {"hyperbolic": (40.0, 0.5), "shifted-square": (1.0e5, 0.125)}
_VISITED_LEVELS = range(3, 6)  # levels an integral runs; the last x step is 1/64
_ROUNDOFF = 8.0 * sys.float_info.epsilon
_TIGHTEN = 10.0  # tightened() divides both tolerances by this


class QuadratureError(RuntimeError):
    """A quadrature result that must be certified failed to converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, x truncation and p substitution of the engine.

    ``x_max`` is derived, never set: max(40, 10 - ln abs_tol), so the x
    tail stays below abs_tol.  No tolerance stops an integral before level 4.
    """

    rel_tol: float = 1.0e-8
    abs_tol: float = 1.0e-12
    x_max: float = field(init=False)
    p_transform: PTransform = "hyperbolic"

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        tail = -math.log(self.abs_tol) + 10.0 if self.abs_tol > 0.0 else 0.0
        object.__setattr__(self, "x_max", max(40.0, tail))
        if self.p_transform not in _P_RULES:
            raise ValueError(f"unknown p_transform {self.p_transform!r}")

    def tightened(self) -> "QuadratureSpec":
        """Same spec with both tolerances divided by _TIGHTEN."""
        return replace(
            self, rel_tol=self.rel_tol / _TIGHTEN, abs_tol=self.abs_tol / _TIGHTEN
        )


@dataclass(frozen=True)
class IntegralResult:
    """One quadrature outcome: value, certified error, convergence flag
    and the number of kernel evaluations, the whole grid of each level run."""

    value: float
    error_estimate: float
    converged: bool
    evaluations: int


def _tanh_sinh(end: float, step: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y on (0, end] and dy/dtau at tau = k step/2^level, increasing
    from -_TAU_LO to _TAU_HI: every level holds the previous level's nodes.

    y = end / (1 + e^-2s) with s = (pi/2) sinh(tau), so y and end - y
    are both accurate near their ends.
    """
    h = step / 2 ** level
    tau = np.arange(-round(_TAU_LO / h), round(_TAU_HI / h) + 1) * h
    s = 0.5 * math.pi * np.sinh(tau)
    y = end / (1.0 + np.exp(-2.0 * s))
    dy = 0.25 * math.pi * end * np.cosh(tau) / np.cosh(s) ** 2
    return y, dy


def _p_nodes(transform: str, level: int) -> tuple[np.ndarray, ...]:
    """(p, q, dp/dtau, y, dp/dy) of the p nodes of ``level`` in increasing
    tau, y being u (p = cosh u) or t (p = 1 + t^2)."""
    end, step = _P_RULES[transform]
    y, dy = _tanh_sinh(end, step, level)
    if transform == "hyperbolic":
        p, q = np.cosh(y), np.sinh(y)
        jac = q
    else:
        p, q = 1.0 + y * y, y * np.sqrt(2.0 + y * y)
        jac = 2.0 * y
    return p, q, jac * dy, y, jac


@lru_cache(maxsize=None)
def _p_end_weights(transform: str, order: float) -> tuple[float, float]:
    """Multipliers turning |f| at the last and first p node into bounds on
    the integral beyond the window, twice the tail of the slowest allowed
    decay p^-2 (e^-u: g(u); t^-3: g(t) t/2), and below the first node,
    where a (p^2-1)^-s endpoint leaves g ~ y^(1-2s): y g(y) / (2 - 2s)."""
    _, _, _, y, jac = _p_nodes(transform, 0)
    beyond = 2.0 * (1.0 if transform == "hyperbolic" else 0.5 * y[-1])
    return beyond * jac[-1], y[0] * jac[0] / (2.0 - 2.0 * order)


@lru_cache(maxsize=None)
def _levels(x_max: float, transform: str, with_x: bool) -> tuple:
    """Read-only (x, wx, p, q, wp) of each visited level, its nodes in
    increasing tau with their weights; without x, one x node of unit weight."""
    p_step = _P_RULES[transform][1]
    levels = []
    for level in _VISITED_LEVELS:
        x, wx = np.zeros(1), np.ones(1)
        if with_x:
            x, dx = _tanh_sinh(x_max, _X_STEP, level)
            wx = dx * (_X_STEP / 2 ** level)
        p, q, dp = _p_nodes(transform, level)[:3]
        wp = dp * (p_step / 2 ** level)
        for nodes in (x, wx, p, q, wp):
            nodes.flags.writeable = False
        levels.append((x, wx, p, q, wp))
    return tuple(levels)


def integrate_p_axis(
    f: Callable,
    singularity_order: float = 0.0,
    spec: QuadratureSpec = QuadratureSpec(),
    with_x: bool = False,
) -> IntegralResult:
    """Integrate f(p, q) over p in [1, inf), q = sqrt(p^2-1), allowing a
    (p^2-1)^-s endpoint singularity; with ``with_x``, integrate f(x, p, q)
    over (0, x_max] x [1, inf) by the tensor product with the x rule.

    ``singularity_order`` is the admissible s, in [0, 1); it sizes the
    bound on the sliver below the first p node.  f must decay at least
    like p^-2, and like e^-x with a polynomial prefactor, staying
    bounded at x = 0.  Non-convergence within the level cap, or below
    the roundoff floor, is reported via ``converged=False``, never raised.
    """
    if not 0.0 <= singularity_order < 1.0:
        raise ValueError(f"singularity_order must lie in [0, 1): {singularity_order}")
    kernel = f if with_x else lambda x, p, q: f(p, q)
    beyond, below = _p_end_weights(spec.p_transform, singularity_order)
    previous, evaluations = None, 0
    with np.errstate(all="ignore"):  # a non-finite sum is reported, not warned
        for x, wx, p, q, wp in _levels(spec.x_max, spec.p_transform, with_x):
            grid = kernel(x[:, None], p[None, :], q[None, :])
            # A row constant in x is copied to full shape: a stride-0 grid
            # sums to other bits.
            grid = np.ascontiguousarray(np.broadcast_to(grid, (x.size, p.size)))
            evaluations += grid.size
            value = float(wx @ grid @ wp)
            if not math.isfinite(value):
                return IntegralResult(value, math.inf, False, evaluations)
            if previous is not None:  # the first level's bounds would go unused
                magnitude = np.abs(grid)
                floor = _ROUNDOFF * float(wx @ magnitude @ wp)
                ends = beyond * magnitude[:, -1] + below * magnitude[:, 0]
                tails = float(wx @ ends)
                if with_x:
                    tails += 2.0 * float(magnitude[-1] @ wp)
                tolerance = max(spec.abs_tol, spec.rel_tol * abs(value))
                err = abs(value - previous) + tails + floor
                # Once the floor is all that is left, no finer level can help.
                if err <= max(tolerance, 2.0 * floor):
                    return IntegralResult(value, err, err <= tolerance, evaluations)
            previous = value
    return IntegralResult(value, err, False, evaluations)


def integrate_xp(f: Callable, spec: QuadratureSpec = QuadratureSpec(),
                 p_singularity_order: float = 0.0) -> IntegralResult:
    """Tensor-product integral of f(x, p, q) over (0, x_max] x [1, inf),
    by the p-axis rule joined with the x rule; see integrate_p_axis."""
    return integrate_p_axis(f, p_singularity_order, spec, with_x=True)
