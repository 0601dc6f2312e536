"""Closed-form global probabilities one threshold at a time: the scalar
per-order helpers and the per-beta ROC loop that acqroc.analytic's array
engine (_global_columns) replaced, kept as the reference it must equal bit
for bit.  Cell probabilities and the residual-Doppler quadrature come from
acqroc.analytic itself (the quadrature through the module attribute, so a
test can swap it for both sides at once); everything downstream of them is
copied here.
"""

import numpy as np

import acqroc.analytic as analytic
from acqroc.analytic import (
    RocPoint,
    SearchOrder,
    _beta_array,
    cell_pdet,
    cell_pfa,
    expected_noncentrality,
    global_pfa,
)
from acqroc.numerics import as_probability, one_minus_pow_complement, one_minus_pow_ratio


def naive_value(pdet: float, pfa: float, n: int, k: int) -> float:
    nk = n * k
    return as_probability(one_minus_pow_ratio(pfa, nk) / nk * pdet)


def signed_pdet(pdet: np.ndarray, pfa: float, k: int) -> np.ndarray:
    near = pdet.shape[-1] // 2
    out = np.full(pdet.shape[:-1] + (2 * k - 1,), pfa)
    out[..., k - 1 - near:k + near] = pdet
    return out


def accept_sum(pdet: np.ndarray, bin_noise_factor: float, k: int, m: int):
    miss = bin_noise_factor * (1.0 - pdet[..., ::-1])
    total = 0.0
    for q in range(-m, m + 1):
        n_lo, n_hi = max(0, q), min(k, k + q) - 1
        run = np.cumprod(miss[..., k - q:k - q + n_hi], axis=-1)
        inner = run[..., max(n_lo - 1, 0):].sum(axis=-1) + (n_lo == 0)
        total = total + pdet[..., q + k - 1] * inner
    return total


def code_first_value(pdet: np.ndarray, pfa: float, n: int, k: int, m: int):
    reach = one_minus_pow_ratio(pfa, n) / n
    quiet_noise = (1.0 - pfa) ** (n - 1)
    return reach / k * accept_sum(pdet, quiet_noise, k, m)


def doppler_first_value(accept, pfa: float, n: int, k: int):
    num = one_minus_pow_complement(pfa, k * n)
    den = one_minus_pow_complement(pfa, k)
    reach = float(n) if den == 0.0 else num / den
    return reach / (n * k) * accept


def profile_pdet(pdet: np.ndarray, pfa: float, k: int) -> np.ndarray:
    near = min(pdet.size - 1, k - 1)
    return signed_pdet(pdet[np.abs(np.arange(-near, near + 1))], pfa, k)


def global_pdet(order: SearchOrder, pd: np.ndarray, pfa: float, n: int, k: int, m: int) -> float:
    signed = profile_pdet(pd, pfa, k)
    if order is SearchOrder.CODE_PHASE_FIRST:
        return as_probability(code_first_value(signed, pfa, n, k, m))
    return as_probability(doppler_first_value(accept_sum(signed, 1.0, k, m), pfa, n, k))


def closed_forms(profile, beta: float, n: int, k: int, m: int) -> tuple[float, ...]:
    """global_pdet_code_first, _doppler_first and _approx at one threshold."""
    pd = cell_pdet(np.array(profile.values), beta)
    pfa = cell_pfa(beta)
    return (global_pdet(SearchOrder.CODE_PHASE_FIRST, pd, pfa, n, k, m),
            global_pdet(SearchOrder.DOPPLER_FIRST, pd, pfa, n, k, m),
            as_probability(accept_sum(profile_pdet(pd, pfa, k), 1.0, k, m) / k))


def code_first_exact(params, grid, beta: float, n: int, m: int, l_max: int) -> float:
    k = grid.num_bins
    pfa = cell_pfa(beta)
    near = min(l_max, k - 1)
    return as_probability(analytic._residual_doppler_mean(
        params, grid, beta, np.arange(-near, near + 1),
        lambda pdet: code_first_value(signed_pdet(pdet, pfa, k), pfa, n, k, m)))


def roc_curve(params, grid, m: int, betas, n: int, l_max: int) -> tuple[RocPoint, ...]:
    betas = _beta_array(betas)
    k = grid.num_bins
    ls = np.array([expected_noncentrality(params, grid, l) for l in range(max(3, l_max + 1))])
    pds = cell_pdet(ls, betas[:, None])
    exacts = as_probability(analytic._residual_doppler_mean(params, grid, betas, np.arange(3)))
    points = []
    for b, pd, exact in zip(betas.tolist(), pds, exacts.tolist()):
        pfa = cell_pfa(b)
        signed = profile_pdet(pd[:l_max + 1], pfa, k)
        accept = accept_sum(signed, 1.0, k, m)
        points.append(RocPoint(
            grid.bin_width_hz, m, b, pfa, *pd[:3].tolist(), *exact,
            global_pfa(pfa, n, k), naive_value(float(pd[0]), pfa, n, k),
            as_probability(code_first_value(signed, pfa, n, k, m)),
            as_probability(doppler_first_value(accept, pfa, n, k)),
            as_probability(accept / k)))
    return tuple(points)
