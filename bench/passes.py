"""The three workloads: what one pass runs, on which config.

Every workload uses the README standard config (C/N0 40 dB-Hz, T_per 1 ms,
widths 200/500/700/1000 Hz, M = 2/1/0/0, 60-point beta grid, code-first)
with the workload seed as the config seed.  A pass is a list of steps; a
step is either one `acqroc.cli.main` call or the exact-quadrature column.
Library calls go through module attributes so that a tracer which patches
the module namespaces sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import acqroc.analytic as analytic
import acqroc.cli as cli
import acqroc.prncode as prncode

STANDARD_CONFIG = {"cn0_dbhz": 40, "tper_ms": 1, "m_by_width": {"200": 2, "500": 1}}
MC_TRIALS = {"metric": 49152, "waveform": 256}
# the exact column takes every EXACT_STRIDE-th beta of the 60-point grid
EXACT_STRIDE = 4

WORKLOADS = ("analytic", "mc-metric", "mc-waveform")


@dataclass(frozen=True)
class Step:
    kind: str                 # "cli" or "exact"
    command: str = ""         # cli sub-command for kind == "cli"
    argv: tuple[str, ...] = ()


@dataclass
class PassOutput:
    """What one pass produced, for the untimed checks."""

    step_s: dict[str, float] = field(default_factory=dict)
    returncodes: dict[str, int] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    csv_paths: dict[str, str] = field(default_factory=dict)
    exact: dict[float, list[float]] | None = None
    errors: list[str] = field(default_factory=list)


def fidelity(workload: str) -> str | None:
    return {"mc-metric": "metric", "mc-waveform": "waveform"}.get(workload)


def write_config(workload: str, seed: int, workdir: str) -> str:
    """The standard config with the workload seed; returns its path."""
    cfg = dict(STANDARD_CONFIG, seed=int(seed))
    fid = fidelity(workload)
    if fid is not None:
        cfg["trials"] = MC_TRIALS[fid]
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def cli_step(command: str, config_path: str, workdir: str,
             fid: str | None = None, trials: int | None = None,
             workers: int = 1) -> Step:
    argv = [command, "--config", config_path]
    if command != "validate":
        argv += ["--out", os.path.join(workdir, f"{command}.csv")]
    if command == "simulate":
        argv += ["--fidelity", fid, "--trials", str(trials),
                 "--workers", str(workers)]
    return Step("cli", command, tuple(argv))


def steps_for(workload: str, config_path: str, workdir: str) -> list[Step]:
    if workload == "analytic":
        return [cli_step(c, config_path, workdir)
                for c in ("cell-probs", "roc", "validate")] + [Step("exact")]
    fid = fidelity(workload)
    return [cli_step("simulate", config_path, workdir, fid, MC_TRIALS[fid])]


def exact_column(config) -> dict[float, list[float]]:
    """global_pdet_code_first_exact at every width and every
    EXACT_STRIDE-th beta of the configured grid."""
    params = config.params()
    betas = config.beta_grid.thresholds()[::EXACT_STRIDE]
    out = {}
    for width in config.bin_widths_hz:
        grid = config.grid(width)
        m = config.m_for(width)
        out[width] = [
            analytic.global_pdet_code_first_exact(
                params, grid,
                analytic.SearchPolicy(config.order, m, float(b)),
                prncode.CODE_LENGTH, config.lmax)
            for b in betas]
    return out


def run_step(step: Step, config, out: PassOutput) -> None:
    """Run one step; an exception from the program is recorded for the
    checks to count rather than ending the benchmark."""
    if step.kind == "exact":
        out.exact = {}
        t0 = perf_counter()
        try:
            out.exact = exact_column(config)
        except Exception:  # noqa: BLE001 - reported as failed operations
            out.errors.append("exact: " + traceback.format_exc(limit=3))
        out.step_s["exact"] = perf_counter() - t0
        return
    if "--out" in step.argv:
        path = step.argv[step.argv.index("--out") + 1]
        out.csv_paths[step.command] = path
        # a stale table from an earlier pass must not pass for this one
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(step.argv))
    except Exception:  # noqa: BLE001 - reported as failed operations
        out.errors.append(f"{step.command}: " + traceback.format_exc(limit=3))
        rc = -1
    out.step_s[step.command] = perf_counter() - t0
    out.returncodes[step.command] = rc
    out.stdout[step.command] = buf.getvalue()


def run_pass(steps: list[Step], config) -> PassOutput:
    out = PassOutput()
    for step in steps:
        run_step(step, config, out)
    return out
