"""Confidence intervals for simulated means.

Every interval the tool reports comes from independent replications: a
Student-t interval (:func:`mean_confidence_interval`) over the replication
means, which are i.i.d.  One run's per-message latencies are
autocorrelated, so a single run yields a mean but no interval.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConvergenceError

__all__ = ["ConfidenceInterval", "t_quantile", "mean_confidence_interval"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    mean: float
    half_width: float
    confidence: float
    sample_size: int

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half width divided by the mean (NaN for a zero mean)."""
        if self.mean == 0:
            return math.nan
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence * 100:.0f}% CI, n={self.sample_size})"
        )


#: Newton steps :func:`t_quantile` may take before it gives up.
_NEWTON_STEPS = 32
#: Relative step below which the next Newton step is rounding noise.
_NEWTON_TOL = 1e-9
#: Continued-fraction terms :func:`_beta_fraction` may take (it needs
#: O(sqrt(dof)) of them).
_FRACTION_TERMS = 100_000


def t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value for ``confidence`` and ``dof``.

    Returns the ``t`` with ``P(|T| > t) = 1 - confidence`` for ``T``
    Student-t with ``dof`` degrees of freedom, i.e. the half-width factor of
    a ``confidence`` interval on a mean of ``dof + 1`` observations.

    Algorithm (stdlib :mod:`math` only, one code path on every host):

    * the tail is ``P(|T| > t) = I_x(dof/2, 1/2)`` with
      ``x = dof / (dof + t**2)``, the regularized incomplete beta function,
      evaluated by its modified-Lentz continued fraction; once ``x`` is past
      ``(a + 1) / (a + b + 2)`` the symmetric form gives the central mass
      ``P(|T| <= t) = I_{1-x}(1/2, dof/2)`` instead;
    * the front factor ``x**a (1 - x)**b / B`` equals ``t * pdf(t)`` and is
      taken from ``exp(-dof/2 * log1p(t**2/dof)) * t / sqrt(dof + t**2)``,
      with ``B(dof/2, 1/2)`` from its exact recurrence (:func:`_half_beta`);
    * Newton's method on ``log t`` against the log of the smaller of the
      two masses (the tail for ``confidence >= 0.5``, where
      ``1 - confidence`` is exact, the central mass below) converges in a
      few steps from the Cornish-Fisher expansion (or, below 0.5, from
      ``P(|T| <= t) <= 2 t pdf(0)``).  The iteration is bounded and raises
      :class:`~repro.errors.ConvergenceError` rather than return an
      unconverged value.

    Accuracy, checked against 60-digit references in the test suite: within
    1e-13 relative for ``dof <= 1000`` and 1e-10 up to ``dof = 10**6``.
    A call takes about 60 µs at ``dof = 19`` on a 2-CPU x86_64 VM; the
    ``B(dof/2, 1/2)`` sum makes it ``O(dof)`` (about 70 ms at ``10**6``).

    Raises
    ------
    ValueError
        If ``confidence`` is outside ``(0, 1)`` or ``dof`` is not an
        integer ``>= 1``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if not isinstance(dof, numbers.Integral) or dof < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {dof!r}")
    nu = int(dof)
    beta = _half_beta(nu)
    alpha = 1.0 - confidence  # exact for confidence >= 0.5 (Sterbenz)
    if confidence >= 0.5:
        sign, target = 1.0, alpha  # solve P(|T| > t) = alpha
        z = _normal_upper_quantile(alpha / 2.0)
        t = (
            z
            + (z**3 + z) / (4.0 * nu)
            + (5 * z**5 + 16 * z**3 + 3 * z) / (96.0 * nu**2)
            + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384.0 * nu**3)
        )
    else:
        sign, target = -1.0, confidence  # solve P(|T| <= t) = confidence
        # P(|T| <= t) = 2 t pdf(0) (1 - O(t**2)): a lower bound, and the
        # answer once t**2 is below the double precision
        t = confidence * (math.sqrt(nu) * beta / 2.0)
        if t * t < sys.float_info.epsilon:
            return t
    for _ in range(_NEWTON_STEPS):
        tt = t * t
        front = math.exp(-0.5 * nu * math.log1p(tt / nu)) * t / math.sqrt(nu + tt) / beta
        # excess = P(|T| > t) - alpha = confidence - P(|T| <= t), from the
        # fraction that converges fast at this t
        if tt * (nu + 2) > 3 * nu:  # x < (a + 1) / (a + b + 2)
            excess = 2.0 * front / nu * _beta_fraction(0.5 * nu, 0.5, nu / (nu + tt)) - alpha
        else:
            excess = confidence - 2.0 * front * _beta_fraction(0.5, 0.5 * nu, tt / (nu + tt))
        mass = target + sign * excess
        # d log(mass) / d log(t) = -sign * 2 front / mass
        step = sign * math.log1p(sign * excess / target) * mass / (2.0 * front)
        t += t * math.expm1(step)
        if abs(step) < _NEWTON_TOL:
            return t
    raise ConvergenceError(f"t_quantile({confidence!r}, {dof!r}) did not converge")


def _half_beta(nu: int) -> float:
    """``B(nu/2, 1/2)`` for an integer ``nu >= 1``, within a few ulps.

    Uses the exact recurrence ``B(a + 1, 1/2) = B(a, 1/2) * a / (a + 1/2)``
    from ``B(1/2, 1/2) = pi`` or ``B(1, 1/2) = 2``; the product of the
    factors ``1 - 1/(k - 1)`` is summed in log space with ``math.fsum``.
    An ``lgamma`` difference would lose about ``log10(nu)`` digits.
    """
    start = math.pi if nu % 2 else 2.0
    return start * math.exp(
        math.fsum(math.log1p(-1.0 / (k - 1)) for k in range(4 - nu % 2, nu + 1, 2))
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function.

    ``I_x(a, b) = x**a (1 - x)**b / (a B(a, b)) * _beta_fraction(a, b, x)``,
    evaluated with the modified Lentz method; it converges in
    O(sqrt(max(a, b))) terms for ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _FRACTION_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coefficient in (even, odd):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return h
    raise ConvergenceError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def _normal_upper_quantile(tail: float) -> float:
    """Acklam's approximation of the ``z`` with ``P(Z > z) = tail <= 0.5``."""
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    if tail < 0.02425:
        q = math.sqrt(-2 * math.log(tail))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = 0.5 - tail
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


def mean_confidence_interval(
    sample: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of an i.i.d. sample."""
    # NumPy is imported where it computes: cached results carry
    # ConfidenceInterval, and a cache hit must not load NumPy.
    import numpy as np

    data = np.asarray(list(sample), dtype=float)
    n = data.size
    if n == 0:
        raise ValueError("cannot build a confidence interval from an empty sample")
    mean = float(np.mean(data))
    if n == 1:
        return ConfidenceInterval(mean, math.inf, confidence, 1)
    sem = float(np.std(data, ddof=1)) / math.sqrt(n)
    half = t_quantile(confidence, n - 1) * sem
    return ConfidenceInterval(mean, half, confidence, n)

