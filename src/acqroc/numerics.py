"""Special functions and numerically stable primitives.

Every probability computed by this package bottoms out in numpy's sinc
and three primitives here: the sine integral Si, the first-order Marcum
Q-function, and complement expressions of the form 1 - (1-p)^n.  Their
series, continued fractions and windows are sized so callers can treat the
results as exact at the 1e-12 level.

The Marcum function is evaluated through its Poisson-mixture form
(Shnidman, IEEE Trans. IT 1989): with A ~ Poisson(a^2/2) and
B ~ Poisson(b^2/2) independent,

    Q1(a, b) = P[B <= A] = sum_k P[A = k] P[B <= k].

One evaluator serves scalars and arrays of a and of b: all the Poisson
masses of a call share one window of counts, every threshold's cumulative
masses meet every signal's masses in one matrix product, and every term
stays inside double range.
P[B <= A] is summed directly when b^2 > a^2 + 4, where it is small, and as
1 - P[B > A] otherwise, so that neither branch accumulates 1 - eps
cancellation.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "ProbabilityRangeError",
    "sine_integral",
    "marcum_q1",
    "one_minus_pow_complement",
    "one_minus_pow_ratio",
    "as_probability",
]


class ConvergenceError(ArithmeticError):
    """A series, continued fraction or quadrature missed its tolerance."""


class ProbabilityRangeError(ArithmeticError):
    """A quantity that must be a probability left [0, 1] by more than slack."""


# Probabilities may overshoot [0, 1] by accumulated roundoff; anything past
# this slack is treated as a genuine formula bug, not noise.
_PROB_SLACK = 1e-9


def as_probability(x):
    """Clamp roundoff-sized overshoot into [0, 1]; larger violations raise.

    Scalar in, float out; array in, ndarray out.
    """
    # NaN fails every comparison, and makes an array's min and max NaN
    if np.ndim(x) == 0:
        if not -_PROB_SLACK <= float(x) <= 1.0 + _PROB_SLACK:
            raise ProbabilityRangeError(f"value {x!r} is not a probability")
        return min(1.0, max(0.0, float(x)))
    x = np.asarray(x, dtype=np.float64)
    if x.size and not (x.min() >= -_PROB_SLACK and x.max() <= 1.0 + _PROB_SLACK):
        raise ProbabilityRangeError(f"values in [{x.min()}, {x.max()}] are not all probabilities")
    return np.minimum(np.maximum(x, 0.0), 1.0)


# --- sine integral -----------------------------------------------------------

# Below the cutoff the alternating Taylor series converges in ~20 terms; above
# it the continued fraction for E1(ix) converges faster the larger x is.
_SI_SERIES_CUTOFF = 4.0
# the Taylor series stops below a quarter of _SI_ABS_TOL; both iterations
# give up after _SI_MAX_TERMS terms
_SI_ABS_TOL = 1e-12
_SI_MAX_TERMS = 10_000


def _si_taylor(x: float) -> float:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    term = x
    total = x
    for k in range(_SI_MAX_TERMS):
        term *= -x * x * (2 * k + 1) / ((2 * k + 2) * (2 * k + 3) ** 2)
        total += term
        if abs(term) <= 0.25 * _SI_ABS_TOL:
            return total
    raise ConvergenceError(f"sine_integral series stalled at x={x!r}")


def _si_continued_fraction(x: float) -> float:
    # For x > 0:  E1(ix) = -Ci(x) + i (Si(x) - pi/2), so Si(x) = pi/2 + Im E1(ix).
    # E1 via the even-contracted continued fraction evaluated with modified
    # Lentz iteration: E1(z) = e^{-z} / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))).
    z = complex(0.0, x)
    tiny = 1e-290
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _SI_MAX_TERMS):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            e1 = h * cmath.exp(-z)
            return 0.5 * math.pi + e1.imag
    raise ConvergenceError(f"sine_integral continued fraction stalled at x={x!r}")


def sine_integral(x: float) -> float:
    """Si(x) = integral of sin(t)/t from 0 to x; odd in x by construction."""
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError("sine_integral requires finite x")
    ax = abs(xf)
    if ax <= _SI_SERIES_CUTOFF:
        val = _si_taylor(ax)
    else:
        val = _si_continued_fraction(ax)
    return -val if xf < 0.0 else val


# --- Marcum Q ---------------------------------------------------------------

def _stirling_remainder(ks: np.ndarray) -> np.ndarray:
    """s(k) = lgamma(k + 1) - k log k + k, the slowly varying part of log k!
    (about log(2 pi k)/2): its Stirling series, exact to double precision
    from k = 16, and a table below."""
    k = np.maximum(ks, 16.0)
    r = 1.0 / (k * k)
    series = 0.5 * np.log(2.0 * math.pi * k) + (
        1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / k
    return np.where(ks < 16.0, _STIRLING_SMALL[np.minimum(ks, 15.0).astype(np.intp)], series)


_STIRLING_SMALL = np.array([0.0] + [math.lgamma(k + 1.0) - k * math.log(k) + k
                                    for k in range(1, 16)])
# s over the counts of every window that ends below 1024, evaluated once
_STIRLING = _stirling_remainder(np.arange(1024.0))


def _poisson_pmf(lams: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Poisson(lams[j]) mass at count lo + i, for rates lams >= 1e-280.

    The log mass is taken in the saddle-point form
    (k - lam) - k log1p((k - lam)/lam) - s(k), whose terms stay small near
    the mode for any lam, so no large logs cancel.
    """
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    k = ks[:, None]
    d = k - lams
    t = d / lams
    # at k = 0, t = -1 and the k log1p term is 0
    rest = t[1:] if lo == 0 else t
    np.log1p(rest, out=rest)
    t *= k
    d -= t
    d -= (_STIRLING[lo:hi + 1] if hi < _STIRLING.size else _stirling_remainder(ks))[:, None]
    return np.exp(d, out=d)


# counts x rates one shared window may hold; a call whose rates lie further
# apart is split, by rate, into calls with narrower windows
_MAX_CELLS = 1 << 21


def marcum_q1(a, b):
    """First-order Marcum Q-function Q1(a, b), broadcasting b against a.

    Q1(a, b) = P[2|X|^2 > b^2] where 2|X|^2 is non-central chi-squared with
    2 degrees of freedom and non-centrality a^2.  a and b are scalars or
    arrays; a float comes back for two scalars, else an ndarray of the
    broadcast shape.  Every element of b meets every element of a in one
    count window and one matrix product, so shape an array of thresholds to
    broadcast against a (b of shape (n, 1) against a 1-d a gives n rows)
    rather than pairing two long arrays elementwise.  Stable for a, b well
    past 50 thanks to the windowed Poisson-mixture evaluation (module
    docstring); a = 0 gives exp(-b^2/2) to the bit.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    (a_lo, a_hi), (b_lo, b_hi) = bounds = [
        (float(v), float(v)) if v.ndim == 0 else
        (float(v.min()), float(v.max())) if v.size else (0.0, 0.0) for v in (av, bv)]
    # NaN fails both comparisons
    if not all(lo >= 0.0 and hi < math.inf for lo, hi in bounds):
        raise ValueError("marcum_q1 requires finite non-negative a and b")
    fa, fb = av.ravel(), bv.ravel()
    n_a, n_b = fa.size, fb.size
    # every mass lives on lam +/- (12 sqrt(lam) + 30), dropping tails below
    # ~1e-26 relative; the lower edge is negative up to lam ~ 200 and rises
    # beyond, so the extreme rates' windows span all the others
    lam_lo = min(0.5 * a_lo * a_lo, 0.5 * b_lo * b_lo)
    lam_hi = max(0.5 * a_hi * a_hi, 0.5 * b_hi * b_hi)
    lo = max(0, math.floor(lam_lo - 12.0 * math.sqrt(lam_lo) - 30.0))
    hi = math.ceil(lam_hi + 12.0 * math.sqrt(lam_hi) + 30.0)
    if n_a == 0 or n_b == 0:
        table = np.ones((n_b, n_a))
    elif (hi - lo) * max(n_a, n_b) > _MAX_CELLS and max(n_a, n_b) > 1:
        # split the longer array by rate into calls with narrower windows
        table = np.empty((n_b, n_a))
        for part in np.array_split(np.argsort(fa if n_a >= n_b else fb), 2):
            if n_a >= n_b:
                table[:, part] = marcum_q1(fa[part], fb[:, None])
            else:
                table[part] = marcum_q1(fa, fb[part, None])
    else:
        lam_sig, lam_thr = 0.5 * fa * fa, 0.5 * fb * fb
        # a floor of 1e-280 keeps (k - lam)/lam finite; a = 0 is set below
        pm = _poisson_pmf(np.maximum(np.concatenate((lam_sig, lam_thr)), 1e-280), lo, hi)
        pm_thr = pm[:, n_a:].T
        # per threshold, rows P[B <= k] and P[B > k]
        cdf = np.empty((2, n_b, hi - lo + 1))
        np.cumsum(pm_thr, axis=1, out=cdf[0])
        np.cumsum(pm_thr[:, :0:-1], axis=1, out=cdf[1, :, -2::-1])
        cdf[1, :, -1] = 0.0
        le, gt = (cdf.reshape(2 * n_b, -1) @ pm[:, :n_a]).reshape(2, n_b, n_a)
        # P[B <= A] directly where it is small, else 1 - P[B > A]
        table = as_probability(np.where(lam_thr[:, None] > lam_sig + 2.0, le, 1.0 - gt))
        if a_lo == 0.0:
            table[:, lam_sig == 0.0] = [[math.exp(-t)] for t in lam_thr.tolist()]
    if bv.ndim == 0:
        return float(table[0, 0]) if av.ndim == 0 else table[0].reshape(av.shape)
    # the index arrays broadcast, picking the (b, a) pairs of the result
    return table[np.arange(n_b).reshape(bv.shape), np.arange(n_a).reshape(av.shape)]


# --- complement powers --------------------------------------------------------

def _check_prob_count(p: float, n: int) -> int:
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise ValueError(f"p={p!r} outside [0, 1]")
    ni = int(n)
    if ni != n or ni < 0:
        raise ValueError(f"n={n!r} is not a non-negative integer")
    return ni


def one_minus_pow_complement(p: float, n: int) -> float:
    """1 - (1-p)^n without cancellation for small p."""
    ni = _check_prob_count(p, n)
    if ni == 0 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(ni * math.log1p(-p))


def one_minus_pow_ratio(p: float, n: int) -> float:
    """(1 - (1-p)^n) / p, with the limit n substituted when p underflows."""
    ni = _check_prob_count(p, n)
    if p < 1e-300:
        return float(ni)
    return one_minus_pow_complement(p, ni) / p
