"""Command-line front end: figure-grade tables from a config file.

Commands:
  cell-probs  per-offset cell detection probabilities over the beta grid
  roc         analytic global ROC columns per configured width
  simulate    roc plus Monte Carlo estimates and Wilson intervals
  validate    the self-contained cross-check suite

Flag values override the config file; whatever neither sets falls back to
the documented defaults.  Exit codes: 0 success, 1 validation failure,
2 config error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from dataclasses import fields
from operator import attrgetter

from .analytic import RocPoint, SearchOrder, cell_pdet, l_max_param, roc_curve
from .config import ConfigError, ExperimentConfig, load_config, override
from .prncode import CODE_LENGTH
from .simulator import Fidelity, monte_carlo_sweep
from .validate import CheckStatus, run_validation

_ROC_HEADER = [f.name for f in fields(RocPoint)]
_roc_row = attrgetter(*_ROC_HEADER)  # shallow, where dataclasses.astuple deep-copies
_MC_HEADER = ["p_det_mc", "p_fa_mc", "ci_low", "ci_high", "trials"]
_CELL_HEADER = [
    "width_hz", "wt", "offset_l", "beta",
    "p_fa_cell", "p_det_expected", "p_det_exact", "p_det_reference",
]


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.10g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write through a sibling temp file and rename, so readers never see a
    half-written table."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _roc_tables(config: ExperimentConfig):
    """Per configured width: its grid and the roc_curve points over the
    config's beta grid, from which every table is made."""
    params = config.params()
    betas = config.beta_grid.thresholds()
    for width in config.bin_widths_hz:
        grid = config.grid(width)
        yield grid, roc_curve(params, grid, config.policy(width), betas,
                              n_phases=CODE_LENGTH, l_max=config.lmax)


def _cmd_cell_probs(config: ExperimentConfig, out: str) -> int:
    # the reference column carries the loss-free bound: the perfectly
    # centered cell for l = 0, plain noise beyond
    params = config.params()
    centered = cell_pdet(l_max_param(params), config.beta_grid.thresholds())
    rows = []
    for grid, points in _roc_tables(config):
        for l in range(3):
            rows.extend([p.width_hz, grid.bin_width_hz * params.t_per, l, p.beta, p.p_fa_cell,
                         getattr(p, f"p_det_cell_l{l}"), getattr(p, f"p_det_cell_l{l}_exact"),
                         ref if l == 0 else p.p_fa_cell]
                        for p, ref in zip(points, centered))
    _write_csv(out, _CELL_HEADER, rows)
    print(f"cell-probs: {len(rows)} rows -> {out}")
    return 0


def _cmd_roc(config: ExperimentConfig, out: str) -> int:
    rows = [_roc_row(p) for _, points in _roc_tables(config) for p in points]
    _write_csv(out, _ROC_HEADER, rows)
    print(f"roc: {len(rows)} rows -> {out}")
    return 0


def _cmd_simulate(config: ExperimentConfig, out: str, workers: int) -> int:
    betas = config.beta_grid.thresholds()
    rows = []
    for grid, points in _roc_tables(config):
        estimates = monte_carlo_sweep(config.sim_config(grid.bin_width_hz), betas,
                                      workers=workers)
        rows.extend([*_roc_row(p), e.p_det, e.p_fa, *e.p_det_ci, e.trials]
                    for p, e in zip(points, estimates))
    _write_csv(out, _ROC_HEADER + _MC_HEADER, rows)
    print(f"simulate: {len(rows)} rows ({config.fidelity.value}, "
          f"{config.trials} trials/width) -> {out}")
    return 0


def _cmd_validate(config: ExperimentConfig) -> int:
    results = run_validation(config)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or res.status is CheckStatus.FAIL
    print("validate:", "FAIL" if failed else "OK",
          f"({len(results)} checks)")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acqroc",
        description="Doppler bin width vs acquisition performance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("cell-probs", "emit per-offset cell detection probability tables"),
            ("roc", "emit analytic global ROC tables"),
            ("simulate", "emit ROC tables with Monte Carlo estimates"),
            ("validate", "run the cross-check suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trials", type=int, default=None, help="override config trials")
        p.add_argument("--fidelity", choices=[f.value for f in Fidelity], default=None,
                       help="override config fidelity")
        p.add_argument("--order", choices=[o.value for o in SearchOrder], default=None,
                       help="override config search order")
        if name != "validate":
            p.add_argument("--out", default=f"{name}.csv", help="output CSV path")
        if name == "simulate":
            p.add_argument("--workers", type=int, default=1,
                           help="worker threads (results are identical for any count)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key in ("seed", "trials", "fidelity", "order")
                 if (value := getattr(args, key)) is not None}
    try:
        config = override(load_config(args.config), overrides)
        if "out" in args and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ConfigError(f"--out directory of {args.out!r} does not exist")
        if "out" in args and os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out!r} is a directory, not a file")
        if "workers" in args and args.workers < 1:
            raise ConfigError("--workers must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "cell-probs":
        return _cmd_cell_probs(config, args.out)
    if args.command == "roc":
        return _cmd_roc(config, args.out)
    if args.command == "simulate":
        return _cmd_simulate(config, args.out, args.workers)
    return _cmd_validate(config)


if __name__ == "__main__":
    sys.exit(main())
