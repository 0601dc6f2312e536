"""Self-contained cross-check suite: analytic vs oracle vs sampling.

Four families of checks, all deterministic given the config seed:
(a) randomized small-instance equivalence of the closed forms against the
    enumeration oracle, (b) empirical exceedance of the metric draw against
    the cell probabilities, (c) conservation and monotonicity invariants,
    (d) the quadrature-vs-expected-L diagnostic per (width, offset).

A check can come back KNOWN_GAP instead of FAIL when it trips a bound whose
violation is an understood property of the approximations themselves, not a
defect: the expected-L shortcut for the first adjacent bin at relative
widths 0.5 and 0.7, and the 50-term energy sum at relative width 0.2, whose
sinc^2 tail mass is just over one percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (
    NonCentralityProfile,
    SearchOrder,
    SearchPolicy,
    _global_columns,
    cell_pdet,
    cell_pfa,
    expected_noncentrality,
    global_pdet_code_first,
    global_pfa,
    l_max_param,
    roc_curve,
)
from .config import ExperimentConfig
from .oracle import _averaged_detection, _offset_pdet
from .prncode import CODE_LENGTH
from .simulator import draw_metric

__all__ = ["CheckStatus", "CheckResult", "run_validation", "GAP_BOUND", "KNOWN_GAP_OFFSETS"]

# documented expected-L mismatch cases: (relative width, offset)
KNOWN_GAP_OFFSETS = {(0.5, 1), (0.7, 1)}
# maximum |exact - expected-L| cell deviation tolerated before a (width,
# offset) pair must either be documented or flagged
GAP_BOUND = 0.06
# energy capture required of the 101-bin truncated sum
ENERGY_BOUND = 0.99
ENERGY_TERMS = 50


class CheckStatus(Enum):
    PASS = "PASS"
    KNOWN_GAP = "KNOWN_GAP"
    FAIL = "FAIL"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: CheckStatus
    detail: str

    def line(self) -> str:
        return f"[{self.status.value:9s}] {self.name}: {self.detail}"


def _check_oracle_equivalence(rng: np.random.Generator, instances: int) -> CheckResult:
    worst = 0.0
    worst_case = ""
    for _ in range(instances):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, min(k, 3)))
        depth = int(rng.integers(1, 4))
        profile = NonCentralityProfile(tuple(rng.uniform(0.0, 30.0, depth)))
        beta = -math.log(10.0 ** rng.uniform(-6.0, math.log10(0.9)))
        pfa, pdet = cell_pfa(beta), _offset_pdet(profile, beta, k)
        _, _, code_first, doppler_first, _ = _global_columns(pdet[None], np.array([pfa]), n, k, m)
        for order, a in ((SearchOrder.CODE_PHASE_FIRST, float(code_first[0])),
                         (SearchOrder.DOPPLER_FIRST, float(doppler_first[0]))):
            o = _averaged_detection(pdet, pfa, n, m, order)
            if abs(a - o) > worst:
                worst = abs(a - o)
                worst_case = f"K={k} N={n} M={m} {order.value}"
    status = CheckStatus.PASS if worst < 1e-12 else CheckStatus.FAIL
    return CheckResult(
        "analytic-vs-oracle", status,
        f"{instances} random instances, worst |diff| = {worst:.2e} ({worst_case})")


def _check_metric_draws(rng: np.random.Generator) -> CheckResult:
    draws = 20000
    worst_z = 0.0
    worst_case = ""
    for l in (0.0, 2.0, 8.0, 20.0):
        x = draw_metric(l, rng, draws)
        for beta in (2.0, 6.0, 10.0):
            want = cell_pdet(l, beta)
            got = float(np.mean(x > beta))
            se = math.sqrt(max(want * (1.0 - want), 1e-12) / draws)
            z = abs(got - want) / se
            if z > worst_z:
                worst_z = z
                worst_case = f"L={l} beta={beta}"
    status = CheckStatus.PASS if worst_z < 4.0 else CheckStatus.FAIL
    return CheckResult(
        "metric-draw-exceedance", status,
        f"{draws} draws per point, worst z = {worst_z:.2f} ({worst_case})")


def _check_invariants(config: ExperimentConfig) -> CheckResult:
    params = config.params()
    problems = []
    betas = config.beta_grid.thresholds()
    for width in config.bin_widths_hz:
        grid = config.grid(width)
        k = grid.num_bins
        pfas = [global_pfa(cell_pfa(float(b)), CODE_LENGTH, k) for b in betas]
        if any(a < b for a, b in zip(pfas, pfas[1:])):
            problems.append(f"global P_fa not monotone at W={width}")
        prof = NonCentralityProfile.expected(params, grid, config.lmax)
        mid = float(betas[betas.size // 2])
        vals = [global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, mid),
                                       CODE_LENGTH, k) for m in range(min(k, 3))]
        if any(a > b + 1e-15 for a, b in zip(vals, vals[1:])):
            problems.append(f"P_det not monotone in M at W={width}")
    pdets = cell_pdet(np.linspace(0.0, 25.0, 26), 8.0)
    if any(a > b + 1e-15 for a, b in zip(pdets, pdets[1:])):
        problems.append("cell P_det not monotone in L")
    if problems:
        return CheckResult("invariants", CheckStatus.FAIL, "; ".join(problems))
    return CheckResult("invariants", CheckStatus.PASS,
                       f"monotonicity holds across {len(config.bin_widths_hz)} widths")


def _check_energy(config: ExperimentConfig) -> list[CheckResult]:
    params = config.params()
    lm = l_max_param(params)
    out = []
    for width in config.bin_widths_hz:
        grid = config.grid(width)
        wt = grid.bin_width_hz * params.t_per
        total = expected_noncentrality(params, grid, 0)
        total += 2.0 * sum(expected_noncentrality(params, grid, l)
                           for l in range(1, ENERGY_TERMS + 1))
        capture = wt * total / lm
        name = f"energy W={width:g}"
        if ENERGY_BOUND <= capture <= 1.0:
            out.append(CheckResult(name, CheckStatus.PASS, f"capture = {capture:.6f}"))
            continue
        # the sum is truncated at |x| = (2*ENERGY_TERMS + 1) wt / 2; compare
        # the shortfall against the analytic sinc^2 tail mass to decide
        # whether the bound, not the implementation, is what gave way
        tail = 1.0 / (math.pi ** 2 * (2 * ENERGY_TERMS + 1) * wt / 2.0)
        if capture <= 1.0 and abs((1.0 - capture) - tail) < 0.2 * tail:
            out.append(CheckResult(
                name, CheckStatus.KNOWN_GAP,
                f"capture = {capture:.6f} < {ENERGY_BOUND}; shortfall matches the "
                f"sinc^2 tail beyond the {ENERGY_TERMS}-bin truncation ({tail:.6f})"))
        else:
            out.append(CheckResult(name, CheckStatus.FAIL, f"capture = {capture:.6f}"))
    return out


def _check_gap_diagnostic(config: ExperimentConfig) -> list[CheckResult]:
    params = config.params()
    betas = config.beta_grid.thresholds()[::3]
    out = []
    for width in config.bin_widths_hz:
        grid = config.grid(width)
        wt = grid.bin_width_hz * params.t_per
        points = roc_curve(params, grid, config.policy(width), betas)
        for l in range(3):
            gap = max(abs(getattr(p, f"p_det_cell_l{l}_exact") - getattr(p, f"p_det_cell_l{l}"))
                      for p in points)
            name = f"expected-L-gap W={width:g} l={l}"
            if gap <= GAP_BOUND:
                out.append(CheckResult(name, CheckStatus.PASS, f"max dev = {gap:.4f}"))
            elif (round(wt, 6), l) in KNOWN_GAP_OFFSETS:
                out.append(CheckResult(
                    name, CheckStatus.KNOWN_GAP,
                    f"max dev = {gap:.4f} (documented adjacent-bin mismatch)"))
            else:
                out.append(CheckResult(name, CheckStatus.FAIL, f"max dev = {gap:.4f}"))
    return out


def run_validation(config: ExperimentConfig) -> list[CheckResult]:
    """All checks, in a deterministic order with a config-seeded stream."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(config.seed), 2))))
    results = [
        _check_oracle_equivalence(rng, instances=300),
        _check_metric_draws(rng),
        _check_invariants(config),
    ]
    results.extend(_check_energy(config))
    results.extend(_check_gap_diagnostic(config))
    return results
