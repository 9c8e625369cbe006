"""Composite Gauss-Legendre grids.

Transforms integrate tabulated integrands.  Grids made by gauss_legendre_grid
carry their own weights and integrate polynomials of degree < 2*order per
panel exactly.  The transforms' tail rule lives in sft.
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

