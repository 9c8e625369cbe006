"""Quadrature utilities: composite Gauss-Legendre grids and tail monitors.

Transforms integrate tabulated integrands.  Grids made by gauss_legendre_grid
carry their own weights and integrate polynomials of degree < 2*order per
panel exactly.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError


@functools.lru_cache(maxsize=16)
def _legendre_rule(order: int):
    """leggauss(order) on [-1, 1], computed once per order; the arrays are read-only."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def gauss_legendre_grid(a: float, b: float, panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes/weights on [a, b] with equal panels.

    Returns (x, w), both shape (panels*order,), x strictly increasing.
    """
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise DomainError(f"need a finite integration interval a < b, got [{a}, {b}]")
    if panels < 1 or order < 1:
        raise DomainError("panels and order must be >= 1")
    xg, wg = _legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def tail_fraction(contrib: np.ndarray, tail_nodes: int):
    """|sum over the trailing nodes| / sum|contrib|, per output value.

    contrib has node contributions along the last axis.  Used as the
    monitored tail estimate for truncated infinite-range integrals.
    """
    total = np.sum(np.abs(contrib), axis=-1)
    tail = np.abs(np.sum(contrib[..., -tail_nodes:], axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(total > 0, tail / np.maximum(total, np.finfo(float).tiny), 0.0)
    return frac
