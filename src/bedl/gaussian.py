"""Gaussian numpy kernels shared by the tensor ops and the closed-form
moment ops, so that each formula is written once."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array, 0.5 * (1 + erf(x / sqrt 2)), in one
    buffer."""
    out = np.divide(x, SQRT2)
    special.erf(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density of an array, exp(-0.5 * x * x) / sqrt(2 pi),
    in one buffer."""
    out = np.multiply(x, -0.5)
    out *= x
    np.exp(out, out=out)
    out *= INV_SQRT_2PI
    return out


def exp_scaled_cdf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(a) * Phi(-b), computed without overflow.

    For b > 0 uses exp(a)*Phi(-b) = 0.5*erfcx(b/sqrt(2))*exp(a - b^2/2),
    which stays finite whenever a - b^2/2 is bounded, even when exp(a)
    alone would overflow. For b <= 0 erfcx itself overflows, but there
    Phi(-b) is in [0.5, 1] and the naive product is safe.
    """
    bpos = b > 0.0
    scaled = 0.5 * special.erfcx(np.where(bpos, b, 0.0) / SQRT2) * np.exp(
        np.where(bpos, a - 0.5 * b * b, 0.0)
    )
    naive = 0.5 * np.exp(np.where(bpos, 0.0, a)) * special.erfc(np.where(bpos, 0.0, b) / SQRT2)
    return np.where(bpos, scaled, naive)

