"""Per-layer probes at fixed sizes, independent of the workload seed.

Each probe times one public function of one layer over a fixed input set,
repeats it, and reports the median.  Sizes follow the standard config so a
probe's number maps onto the work the end-to-end workloads do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
from time import perf_counter

import numpy as np

import acqroc.analytic as analytic
import acqroc.cli as cli
import acqroc.numerics as numerics
import acqroc.oracle as oracle
import acqroc.prncode as prncode
import acqroc.simulator as simulator
import acqroc.validate as validate

PROBE_SEED = 2011
METRIC_PROBE = (200.0, 16384)     # width (Hz), trials: 4 batches per run
WAVEFORM_PROBE = (1000.0, 256)    # width (Hz), trials: one batch per run
EXACT_PROBE = (500.0, 6)          # width (Hz), every 6th beta: 10 thresholds
ORACLE_INSTANCES = 50
DETERMINISM = {"trials": 12288, "seed": 12345, "workers": (1, 2)}


def median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def marcum_q1_us(config, reps: int = 7) -> float:
    """marcum_q1 over the standard (L, beta) grid: the expected L of offsets
    0..2 at every width against every beta."""
    params = config.params()
    ls = [analytic.expected_noncentrality(params, config.grid(w), l)
          for w in config.bin_widths_hz for l in range(3)]
    args = [(math.sqrt(l), math.sqrt(2.0 * float(b)))
            for l in ls for b in config.beta_grid.thresholds()]

    def run():
        for a, b in args:
            numerics.marcum_q1(a, b)

    return median_s(run, reps) / len(args) * 1e6


def cell_pdet_exact_ms(config, reps: int = 3) -> float:
    params = config.params()
    betas = [float(b) for b in config.beta_grid.thresholds()[::4]]
    calls = [(config.grid(w), l, b) for w in config.bin_widths_hz
             for l in range(3) for b in betas]

    def run():
        for grid, l, b in calls:
            analytic.cell_pdet_exact(params, grid, l, b)

    return median_s(run, reps) / len(calls) * 1e3


def roc_curve_s(config, reps: int = 3) -> dict[float, float]:
    params = config.params()
    betas = config.beta_grid.thresholds()
    out = {}
    for w in config.bin_widths_hz:
        policy = analytic.SearchPolicy(config.order, config.m_for(w))
        out[w] = median_s(lambda: analytic.roc_curve(
            params, config.grid(w), policy, betas,
            n_phases=prncode.CODE_LENGTH, l_max=config.lmax), reps)
    return out


def global_pdet_code_first_exact_ms(config, reps: int = 3) -> float:
    width, stride = EXACT_PROBE
    params = config.params()
    grid = config.grid(width)
    betas = [float(b) for b in config.beta_grid.thresholds()[::stride]]

    def run():
        for b in betas:
            analytic.global_pdet_code_first_exact(
                params, grid, analytic.SearchPolicy(config.order, config.m_for(width), b),
                prncode.CODE_LENGTH, config.lmax)

    return median_s(run, reps) / len(betas) * 1e3


def global_pdet_closed_us(config, reps: int = 5) -> float:
    """Code-first, doppler-first and approx closed forms at every width and
    beta of the standard config, per call."""
    params = config.params()
    calls = []
    for w in config.bin_widths_hz:
        grid = config.grid(w)
        k = grid.num_bins
        profile = analytic.NonCentralityProfile.expected(params, grid, config.lmax)
        for b in config.beta_grid.thresholds():
            calls.append((profile, k, analytic.SearchPolicy(config.order, config.m_for(w), float(b))))

    def run():
        n = prncode.CODE_LENGTH
        for profile, k, pol in calls:
            analytic.global_pdet_code_first(profile, pol, n, k)
            analytic.global_pdet_doppler_first(profile, pol, n, k)
            analytic.global_pdet_approx(profile, pol, k)

    return median_s(run, reps) / (3 * len(calls)) * 1e6


def averaged_detection_ms(reps: int = 3) -> float:
    """The enumeration oracle on fixed random small instances (the shape
    validate draws: K <= 5, N <= 6, M <= 2, profile depth <= 3), both orders."""
    rng = np.random.Generator(np.random.Philox(PROBE_SEED))
    calls = []
    for _ in range(ORACLE_INSTANCES):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, min(k, 3)))
        profile = analytic.NonCentralityProfile(tuple(rng.uniform(0.0, 30.0, int(rng.integers(1, 4)))))
        beta = -math.log(10.0 ** rng.uniform(-6.0, math.log10(0.9)))
        for order in analytic.SearchOrder:
            calls.append((profile, beta, k, n, m, order))

    def run():
        for args in calls:
            oracle.averaged_detection(*args)

    return median_s(run, reps) / len(calls) * 1e3


def run_validation_s(config, reps: int = 3) -> float:
    return median_s(lambda: validate.run_validation(config), reps)


def _sim_config(config, width: float, trials: int, fid, order):
    return simulator.SimConfig(
        trials=trials, seed=PROBE_SEED, fidelity=fid, params=config.params(),
        grid=config.grid(width),
        policy=analytic.SearchPolicy(order, config.m_for(width)), l_max=config.lmax)


def metric_trials_per_s(config, order, reps: int = 3) -> float:
    """Trials per second of one metric-level sweep (detection and
    false-alarm runs) over the 60-point grid."""
    width, trials = METRIC_PROBE
    sim = _sim_config(config, width, trials, simulator.Fidelity.METRIC_LEVEL, order)
    betas = config.beta_grid.thresholds()
    return trials / median_s(lambda: simulator.monte_carlo_sweep(sim, betas, workers=1), reps)


def waveform_trials_per_s(config, reps: int = 3) -> float:
    width, trials = WAVEFORM_PROBE
    sim = _sim_config(config, width, trials, simulator.Fidelity.WAVEFORM, config.order)
    betas = config.beta_grid.thresholds()
    return trials / median_s(lambda: simulator.monte_carlo_sweep(sim, betas, workers=1), reps)


def generate_ca_code_us(reps: int = 3) -> float:
    """Generation of all 32 C/A codes, emptying the module's code cache (when
    it has one) before each call so every call generates."""
    cache = getattr(prncode, "_CODE_CACHE", None)

    def run():
        for prn in range(1, 33):
            if isinstance(cache, dict):
                cache.clear()
            prncode.generate_ca_code(prn)

    us = median_s(run, reps) / 32 * 1e6
    if isinstance(cache, dict):
        cache.clear()
    return us


def determinism(config_path: str, workdir: str) -> dict:
    """Fixed-seed metric `simulate` at 1 and 2 workers: byte-identical?"""
    digests = {}
    sizes = {}
    for workers in DETERMINISM["workers"]:
        out = os.path.join(workdir, f"determinism-w{workers}.csv")
        argv = ["simulate", "--config", config_path, "--out", out,
                "--seed", str(DETERMINISM["seed"]), "--trials", str(DETERMINISM["trials"]),
                "--fidelity", "metric", "--workers", str(workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        blob = b""
        if rc == 0:
            with open(out, "rb") as fh:
                blob = fh.read()
        digests[workers] = hashlib.sha256(blob).hexdigest() if rc == 0 else f"exit {rc}"
        sizes[workers] = len(blob)
    one, two = (digests[w] for w in DETERMINISM["workers"])
    return {"identical": one == two and not one.startswith("exit"),
            "sha256": digests, "bytes": sizes,
            "seed": DETERMINISM["seed"], "trials": DETERMINISM["trials"]}
