"""Closed-form acquisition performance: cell and global probabilities.

Conventions
-----------
Decision metrics are in normalized units where a cell's noise has unit
total variance (per-component variance 1/2).  A noise-only metric is then
Exp(1), so the cell false-alarm probability at threshold beta is
exp(-beta); a signal cell with non-centrality L satisfies 2|X|^2 ~
chi^2_2(L), so its detection probability is Q1(sqrt(L), sqrt(2 beta)).

The search region is K Doppler bins by N code phases.  A serial search
visits cells in a fixed order and stops at the first metric above beta.
Global probabilities describe where that first crossing lands: a detection
is a stop at the correct code phase within M bins of the correct Doppler
bin; any other stop is a false stop, and at signal-free thresholds the
probability that the search stops at all is the global false alarm.

A bin at offset l from the correct one sees a residual Doppler uniform on
[(2l-1) W/2, (2l+1) W/2] and a per-realization non-centrality
L_max sinc^2(df T_per).  Global detection formulas take either the
per-offset expected L (fast, slightly biased where sinc^2 curves strongly
across a bin) or the exact marginalization over the residual Doppler by
quadrature.  One engine gives every expected-L global column over a whole
threshold grid; the per-threshold functions run it on a grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .numerics import (
    ConvergenceError,
    as_probability,
    marcum_q1,
    one_minus_pow_complement,
    one_minus_pow_ratio,
    sine_integral,
)

__all__ = [
    "SearchOrder",
    "SignalParams",
    "DopplerGrid",
    "NonCentralityProfile",
    "SearchPolicy",
    "RocPoint",
    "l_max_param",
    "expected_noncentrality",
    "cell_pfa",
    "cell_pdet",
    "cell_pdet_exact",
    "global_pfa",
    "global_pdet_code_first",
    "global_pdet_doppler_first",
    "global_pdet_approx",
    "global_pdet_code_first_exact",
    "default_beta_grid",
    "roc_curve",
]


class SearchOrder(Enum):
    """Serial-search visiting order over the K x N cell grid."""

    CODE_PHASE_FIRST = "code-first"    # all code phases of a bin, then next bin
    DOPPLER_FIRST = "doppler-first"    # all bins at a code phase, then next phase


@dataclass(frozen=True)
class SignalParams:
    """Carrier-to-noise density (dB-Hz) and coherent integration period (s)."""

    cn0_dbhz: float
    t_per: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.cn0_dbhz):
            raise ValueError("cn0_dbhz must be finite")
        if not (math.isfinite(self.t_per) and self.t_per > 0.0):
            raise ValueError("t_per must be positive")


def l_max_param(params: SignalParams) -> float:
    """Peak non-centrality 2 T_per (C/N0 linear): metric SNR of a perfectly
    aligned cell."""
    return 2.0 * params.t_per * 10.0 ** (params.cn0_dbhz / 10.0)


@dataclass(frozen=True)
class DopplerGrid:
    """K Doppler bins of width W covering +/- f_dmax; W T_per takes SignalParams.t_per."""

    bin_width_hz: float
    f_dmax_hz: float

    def __post_init__(self) -> None:
        for name in ("bin_width_hz", "f_dmax_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive")

    @property
    def num_bins(self) -> int:
        q = 2.0 * self.f_dmax_hz / self.bin_width_hz
        # the 1e-9 guard keeps an exactly-integer quotient from ceiling up
        return max(int(math.ceil(q - 1e-9)), 1)


@dataclass(frozen=True)
class NonCentralityProfile:
    """Expected non-centrality per Doppler-bin offset, symmetric in +/-l.

    values[l] is E[L] for bins at offset l from the correct one; offsets
    beyond the truncation carry no signal energy (L = 0).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("profile needs at least the offset-0 value")
        if any(not (math.isfinite(v) and v >= 0.0) for v in self.values):
            raise ValueError("non-centralities must be finite and >= 0")

    def at_offset(self, offset: int) -> float:
        s = abs(int(offset))
        return self.values[s] if s < len(self.values) else 0.0

    @classmethod
    def expected(cls, params: SignalParams, grid: DopplerGrid,
                 l_max: int = 2) -> "NonCentralityProfile":
        return cls(tuple(expected_noncentrality(params, grid, l)
                         for l in range(l_max + 1)))


@dataclass(frozen=True)
class SearchPolicy:
    """Search order, acceptance half-width M, and optional threshold beta."""

    order: SearchOrder
    accept_half_width: int = 0
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.accept_half_width, (int, np.integer)) or self.accept_half_width < 0:
            raise ValueError("accept_half_width must be a non-negative integer")
        if self.threshold is not None:
            if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
                raise ValueError("threshold must be finite and >= 0")

    def require_threshold(self) -> float:
        if self.threshold is None:
            raise ValueError("this operation needs policy.threshold set")
        return float(self.threshold)


# --- expected non-centrality ---------------------------------------------------

def _sinc_sq_integral(x: float) -> float:
    """Antiderivative of sinc^2 vanishing at 0:
    (1/pi) (Si(2 pi x) - sin^2(pi x)/(pi x)); odd in x."""
    if x == 0.0:
        return 0.0
    s = math.sin(math.pi * x)
    return (sine_integral(2.0 * math.pi * x) - s * s / (math.pi * x)) / math.pi


def expected_noncentrality(params: SignalParams, grid: DopplerGrid, l: int) -> float:
    """Mean non-centrality of a bin at offset l >= 0 from the correct bin.

    Averages L_max sinc^2(df T_per) over the residual Doppler, uniform on
    [(2l-1) W/2, (2l+1) W/2]; for l = 0 the interval is symmetric about 0.
    """
    if int(l) != l or l < 0:
        raise ValueError("offset l must be a non-negative integer")
    wt = grid.bin_width_hz * params.t_per
    x_lo = (2 * l - 1) * wt / 2.0
    x_hi = (2 * l + 1) * wt / 2.0
    lm = l_max_param(params)
    return lm * (_sinc_sq_integral(x_hi) - _sinc_sq_integral(x_lo)) / wt


# --- cell probabilities --------------------------------------------------------

def cell_pfa(beta: float) -> float:
    """Noise-only cell crossing probability exp(-beta)."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError("beta must be finite and >= 0")
    return math.exp(-beta)


def cell_pdet(l_param, beta):
    """Signal cell crossing probability Q1(sqrt(L), sqrt(2 beta)), with an
    array of beta broadcast against L as in marcum_q1 (float for scalars)."""
    ls = np.asarray(l_param, dtype=np.float64)
    if ls.size and not (ls.min() >= 0.0 and ls.max() < math.inf):
        raise ValueError("l_param must be finite and >= 0")
    bs = np.asarray(beta, dtype=np.float64)
    pfa = (cell_pfa(float(bs)) if bs.ndim == 0 else
           np.array([cell_pfa(b) for b in bs.ravel().tolist()]).reshape(bs.shape))
    # keep the L = 0 reduction exact to the bit, not just to an ulp
    out = np.where(ls == 0.0, pfa, marcum_q1(np.sqrt(ls), np.sqrt(2.0 * bs)))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


# Gauss-Legendre starts at _QUAD_POINTS nodes and doubles them until two
# orders agree to within the larger of the absolute and relative tolerance
_QUAD_POINTS = 128
_QUAD_ABS_TOL = 1e-12
_QUAD_REL_TOL = 1e-10


def _integrate_mean(f, half: float):
    """Mean of f over [-half, half] by Gauss-Legendre with order doubling.

    f maps an ndarray of abscissas to an array whose last axis runs over
    them, which are exactly antisymmetric (x[i] == -x[-1 - i], none at 0).
    Each element of the mean is taken at the first order that agrees with
    the order before it.
    """
    prev, out, done = None, 0.0, np.False_
    order = _QUAD_POINTS
    for _ in range(5):
        x, w = _leggauss(order)
        val = (f(half * x) @ w) * 0.5
        if prev is not None:
            settle = ~done & (np.abs(val - prev)
                              <= np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(val)))
            out, done = np.where(settle, val, out), done | settle
            if done.all():
                return out
        prev = val
        order *= 2
    raise ConvergenceError(f"quadrature did not settle on [-{half}, {half}]")


def _residual_doppler_mean(params: SignalParams, grid: DopplerGrid, beta,
                           offsets: np.ndarray, reduce=None):
    """The exact marginalization over the residual Doppler behind every
    exact form.  Given the residual Doppler df0 of the correct bin, uniform
    on [-W/2, W/2], the bin at signed offset s carries the non-centrality
    L_max sinc^2((df0 - s W) T_per).  Per quadrature order, one evaluator
    call gives P_det with axes (beta..., node, offset) for the thresholds
    beta and the signed `offsets`; the mean over df0 of that array (axes
    beta..., offset) or of `reduce` of it (axes beta..., node) comes back.
    sinc^2 is even, so P_det at node -x and offset s is bitwise that at x
    and -s: the call covers only the positive nodes, at +/-`offsets`.
    """
    wt = grid.bin_width_hz * params.t_per
    lm = l_max_param(params)
    betas = np.asarray(beta, dtype=np.float64)
    if betas.ndim:
        betas = betas[..., None, None]
    # a sorted set, not np.union1d, which would load numpy's set routines
    signed = np.array(sorted({s for o in offsets.tolist() for s in (o, -o)}))
    at = np.searchsorted(signed, offsets)

    def f(xs: np.ndarray) -> np.ndarray:
        pos = cell_pdet(lm * np.sinc(xs[xs.size // 2:, None] - signed * wt) ** 2, betas)
        # nodes -x are nodes x at -s; take lays pdet out C-ordered like a full-node call
        pdet = np.take(np.concatenate((pos[..., ::-1, ::-1], pos), axis=-2), at, axis=-1)
        return np.moveaxis(pdet, -2, -1) if reduce is None else reduce(pdet)

    return _integrate_mean(f, wt / 2.0)


def cell_pdet_exact(params: SignalParams, grid: DopplerGrid, l: int, beta):
    """Detection probability of an offset-l bin with the residual Doppler
    marginalized exactly by quadrature (reference for the expected-L form).

    beta is a scalar (float out) or an array (ndarray of its shape out).
    """
    if int(l) != l or l < 0:
        raise ValueError("offset l must be a non-negative integer")
    return as_probability(_residual_doppler_mean(params, grid, beta, np.array([l]))[..., 0])


# --- global probabilities ------------------------------------------------------

def global_pfa(pfa_cell: float, n: int, k: int) -> float:
    """Probability that a signal-free search of N*K cells stops anywhere."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return one_minus_pow_complement(pfa_cell, n * k)


def _signed_pdet(pdet: np.ndarray, pfa, k: int) -> np.ndarray:
    """P_det of the bins at signed offsets -(k-1)..k-1 (index s + k - 1)
    from the correct one, given P_det at -near..near (near < k) in the last
    axis of pdet; bins further out see noise only, at pfa."""
    near = pdet.shape[-1] // 2
    out = np.full(pdet.shape[:-1] + (2 * k - 1,), pfa)
    out[..., k - 1 - near:k + near] = pdet
    return out


def _accept_sum(pdet: np.ndarray, bin_noise_factor, k: int, m: int):
    """Sum over accepted stop offsets q of P_det(L_q) times the probability
    that no earlier-searched bin fired.

    pdet holds P_det over the signed offsets -(K-1)..K-1 in its last axis
    (index s + K - 1); leading axes are batch axes.  A stop in the bin at
    offset q with n whole bins searched before it contributes the product
    over those bins of (miss at their signal cell) times bin_noise_factor
    (their noise cells staying quiet; 1 when the visiting order has no
    noise cells before the signal column).  n runs over the positions the
    correct bin can take: max(0, q) .. min(K, K+q) - 1.
    """
    # miss[..., j] belongs to the bin at offset K - 1 - j, so the bins
    # searched before a stop at offset q, nearest first, start at j = K - q
    miss = bin_noise_factor * (1.0 - pdet[..., ::-1])
    total = 0.0
    for q in range(-m, m + 1):
        n_lo, n_hi = max(0, q), min(k, k + q) - 1
        run = np.cumprod(miss[..., k - q:k - q + n_hi], axis=-1)
        # run[..., n - 1] is the product over n bins; n = 0 is the empty one
        inner = run[..., max(n_lo - 1, 0):].sum(axis=-1) + (n_lo == 0)
        total = total + pdet[..., q + k - 1] * inner
    return total


def _beta_array(betas) -> np.ndarray:
    """A threshold grid as a float array: non-empty and strictly increasing."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.size == 0:
        raise ValueError("beta grid must be non-empty")
    if betas.size > 1 and not np.all(np.diff(betas) > 0.0):
        raise ValueError("beta grid must be strictly increasing")
    return betas


def _check_global_args(k: int, m: int, n: int | None = None, l_max: int = 0) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")
    if m >= k:
        raise ValueError("accept_half_width must be smaller than the bin count")
    if not isinstance(l_max, (int, np.integer)) or l_max < 0:
        raise ValueError("l_max must be a non-negative integer")


# Per-threshold factors are math arithmetic on Python floats: numpy's
# log1p, expm1 and power can differ from math's by an ulp.
def _code_first_value(pdet: np.ndarray, pfa, n: int, k: int, m: int):
    """Code-first global P_det from pdet as _accept_sum takes it; pfa is the
    cell P_fa, a float or one per row of a 2-D pdet."""
    # stop-bin factor: reach the signal cell through its bin's earlier noise
    # cells, averaged over the N positions of the correct phase
    reach, quiet_noise = np.array([(one_minus_pow_ratio(p, n) / n, (1.0 - p) ** (n - 1))
                                   for p in np.atleast_1d(pfa).tolist()]).T
    return reach / k * _accept_sum(pdet, quiet_noise[:, None], k, m)


def _global_columns(pd: np.ndarray, pfa: np.ndarray, n: int, k: int, m: int):
    """Every closed-form global column over a threshold grid: from pd[j, l],
    the cell P_det at offset l = 0, 1, ... for threshold j (noise only
    further out), and pfa[j], its cell P_fa, the arrays over j of
    p_fa_global, p_det_naive, p_det_code_first, p_det_doppler_first and
    p_det_approx."""
    near = min(pd.shape[-1] - 1, k - 1)
    signed = _signed_pdet(pd[:, np.abs(np.arange(-near, near + 1))], pfa[:, None], k)
    accept = _accept_sum(signed, 1.0, k, m)
    nk = n * k

    def factors(p: float) -> tuple[float, float, float]:
        # doppler-first reach: whole noise columns before the correct phase
        num, den = global_pfa(p, n, k), global_pfa(p, 1, k)
        return num, one_minus_pow_ratio(p, nk) / nk, (float(n) if den == 0.0 else num / den) / nk

    pfa_global, naive, doppler = np.array([factors(p) for p in pfa.tolist()]).T
    return (pfa_global, *as_probability(np.stack((
        naive * pd[:, 0], _code_first_value(signed, pfa, n, k, m), doppler * accept, accept / k))))


def _global_at(profile: NonCentralityProfile, policy: SearchPolicy,
               n: int, k: int) -> tuple[float, ...]:
    """_global_columns at the one threshold of policy."""
    beta = policy.require_threshold()
    _check_global_args(k, policy.accept_half_width, n)
    pd = cell_pdet(np.array(profile.values), beta)
    columns = _global_columns(pd[None], np.array([cell_pfa(beta)]), n, k, policy.accept_half_width)
    return tuple(float(c[0]) for c in columns)


def global_pdet_code_first(profile: NonCentralityProfile, policy: SearchPolicy,
                           n: int, k: int) -> float:
    """Global detection probability when each Doppler bin is searched over
    all code phases before moving to the next bin."""
    return _global_at(profile, policy, n, k)[2]


def global_pdet_doppler_first(profile: NonCentralityProfile, policy: SearchPolicy,
                              n: int, k: int) -> float:
    """Global detection probability when all Doppler bins are searched at
    each code phase before moving to the next phase.

    Code phases before the correct one contribute whole columns of K noise
    cells; within the correct column only signal-cell misses separate the
    start of the column from the stop bin.
    """
    return _global_at(profile, policy, n, k)[3]


def global_pdet_approx(profile: NonCentralityProfile, policy: SearchPolicy,
                       k: int) -> float:
    """Search-order-free approximation: valid when K N P_fa << 1, i.e. false
    alarms are rare enough that only signal-cell misses matter."""
    return _global_at(profile, policy, 1, k)[4]


def global_pdet_code_first_exact(params: SignalParams, grid: DopplerGrid,
                                 policy: SearchPolicy, n: int, l_max: int = 2) -> float:
    """Code-phase-first global detection probability with the residual
    Doppler marginalized exactly.

    Conditioned on the residual Doppler of the correct bin, the bins at
    signed offsets up to l_max carry their realized non-centralities (zero
    beyond); the conditional stop probability follows the same accept-sum
    as the expected-L form and is then averaged over the residual Doppler
    (_residual_doppler_mean).
    """
    beta = policy.require_threshold()
    m = policy.accept_half_width
    k = grid.num_bins
    _check_global_args(k, m, n, l_max)
    pfa = cell_pfa(beta)
    near = min(l_max, k - 1)
    return as_probability(_residual_doppler_mean(
        params, grid, beta, np.arange(-near, near + 1),
        lambda pdet: _code_first_value(_signed_pdet(pdet, pfa, k), pfa, n, k, m)))


# --- ROC assembly ---------------------------------------------------------------

def default_beta_grid(min_pfa: float = 1e-9, max_pfa: float = 0.5,
                      points: int = 60) -> np.ndarray:
    """Strictly ascending thresholds whose cell P_fa values are log-spaced on
    [min_pfa, max_pfa]."""
    if not (0.0 < min_pfa <= max_pfa <= 1.0):
        raise ValueError("need 0 < min_pfa <= max_pfa <= 1")
    if int(points) != points or points < 2:
        raise ValueError("points must be an integer >= 2")
    return _beta_array(-np.log(np.geomspace(max_pfa, min_pfa, int(points))))


@dataclass(frozen=True)
class RocPoint:
    """One threshold's analytic results at one bin width and acceptance
    half-width M; the field order is the column order of the roc table."""

    width_hz: float
    m: int
    beta: float
    p_fa_cell: float
    p_det_cell_l0: float
    p_det_cell_l1: float
    p_det_cell_l2: float
    p_det_cell_l0_exact: float
    p_det_cell_l1_exact: float
    p_det_cell_l2_exact: float
    p_fa_global: float
    p_det_naive: float
    p_det_code_first: float
    p_det_doppler_first: float
    p_det_approx: float


def roc_curve(params: SignalParams, grid: DopplerGrid, policy: SearchPolicy,
              betas, n_phases: int = 1023, l_max: int = 2) -> tuple[RocPoint, ...]:
    """Analytic ROC points over an ascending threshold grid.

    Cell detection columns always cover offsets 0..2 (expected-L and exact
    quadrature variants); global columns use the profile truncated at l_max.
    The threshold of `policy` is ignored; each point gets its own.  One
    evaluator call gives the expected-L cell P_det at every threshold, which
    serves the cell columns and one engine call for every global column; one
    residual-Doppler quadrature gives every exact column.
    """
    betas = _beta_array(betas)
    k = grid.num_bins
    m = policy.accept_half_width
    _check_global_args(k, m, n_phases, l_max)
    ls = np.array([expected_noncentrality(params, grid, l) for l in range(max(3, l_max + 1))])
    pds = cell_pdet(ls, betas[:, None])
    exacts = as_probability(_residual_doppler_mean(params, grid, betas, np.arange(3)))
    pfas = np.array([cell_pfa(b) for b in betas.tolist()])
    # positional, in the column order of RocPoint
    return tuple(RocPoint(grid.bin_width_hz, m, *row) for row in zip(
        betas.tolist(), pfas.tolist(), *pds[:, :3].T.tolist(), *exacts.T.tolist(),
        *(c.tolist() for c in _global_columns(pds[:, :l_max + 1], pfas, n_phases, k, m))))
