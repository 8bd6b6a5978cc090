"""Quadrature against the weighted measure y^c dy on the half-line.

The weight is integrable but not smooth at y = 0 when c is not a
nonnegative integer, so the first panel uses Gauss-Jacobi nodes (which
absorb the y^c factor exactly) and the rest of the axis is covered by
geometrically growing Gauss-Legendre panels.  Half-space integrals
use the tensor product of a Gauss-Legendre rule in x with such a y-rule;
halfspace_nodes returns the two 1-D rules, so integrands that factor
(the a = 0 kernel, see kernels.tensor_kernel) are evaluated per axis.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special as _sp

from .errors import DomainError, ParameterError

__all__ = [
    "jacobi_panel",
    "legendre_panel",
    "y_weighted_nodes",
    "halfspace_nodes",
]


def jacobi_panel(upper: float, c: float, n: int = 32):
    """Nodes/weights integrating f(y) y^c dy exactly-for-polynomials on [0, upper].

    Gauss-Jacobi with weight (1+x)^c mapped from [-1, 1]; the returned
    weights already contain the y^c factor.
    """
    if not c + 1.0 > 0.0:
        raise ParameterError(f"weight exponent must satisfy c+1 > 0, got c={c}")
    if not 0.0 < upper < np.inf:  # NaN fails both
        raise DomainError(f"panel upper bound must be positive and finite, got {upper}")
    x, w = _sp.roots_jacobi(n, 0.0, c)
    y = 0.5 * upper * (1.0 + x)
    wy = (0.5 * upper) ** (c + 1.0) * w
    return y, wy


@functools.lru_cache(maxsize=None)
def _legendre_reference(n: int):
    """Read-only n-point Gauss-Legendre nodes/weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def legendre_panel(a: float, b: float, n: int = 32):
    """Plain Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _legendre_reference(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def y_weighted_nodes(c: float, upper: float, n_panel: int = 32):
    """Composite rule for integrals of f(y) y^c dy over (0, upper].

    One Jacobi panel handles (0, h], h = min(1, upper/4); Legendre panels
    of widths h, 2h, 4h, ... cover the rest, with the y^c weight folded
    into the weights.
    """
    if not 0.0 < upper < np.inf:  # NaN fails too
        raise DomainError("y-rule upper bound must be positive and finite")
    width = min(1.0, upper / 4.0)
    ys, ws = jacobi_panel(width, c, n_panel)
    nodes = [ys]
    weights = [ws]
    a = width
    while a < upper:
        b = min(a + width, upper)
        y, w = legendre_panel(a, b, n_panel)
        nodes.append(y)
        weights.append(w * y ** c)
        a = b
        width *= 2.0
    return np.concatenate(nodes), np.concatenate(weights)


def halfspace_nodes(c: float, x_extent: float, y_extent: float,
                    n_x: int = 120, n_panel: int = 24, x_center: float = 0.0):
    """Tensor quadrature rule over [x0-Lx, x0+Lx] x (0, Ly] with weight y^c.

    Returns the two 1-D rules `(xs, wx), (ys, wy)`: Gauss-Legendre in x
    and y_weighted_nodes in y, whose wy carry the y^c factor.  Node
    (xs[i], ys[j]) has the weight wx[i] * wy[j] of the full measure
    y^c dx dy; flattened x-major (index i * len(ys) + j) the weights are
    np.outer(wx, wy).ravel() and the nodes np.meshgrid(xs, ys,
    indexing="ij").  Only N = 1 in x is supported here; the callers that
    need other dimensions integrate factorized forms instead.
    """
    return (legendre_panel(x_center - x_extent, x_center + x_extent, n_x),
            y_weighted_nodes(c, y_extent, n_panel=n_panel))
