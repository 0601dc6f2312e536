"""Regenerate bench/reference/ from the acqroc code in ./src.

Run from the root of a checkout:  python3 bench/make_reference.py

The reference pins the outputs of the commit it was made at: the
cell-probs and roc tables of the standard config as the CLI writes them,
the exact-quadrature code-first P_det at every width and beta (the target
of the Monte Carlo checks and of the analytic workload's exact column), and
the validate statuses.  Regenerate it only when a change to these outputs
is intended and announced.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import passes  # noqa: E402

import acqroc.analytic as analytic  # noqa: E402
import acqroc.cli as cli  # noqa: E402
from acqroc.config import load_config  # noqa: E402
from acqroc.prncode import CODE_LENGTH  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# validate statuses must not depend on the seed; these are compared
VALIDATE_SEEDS = (0, 1, 2, 3, 4)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = passes.write_config("analytic", VALIDATE_SEEDS[0], tmp)
        for command in ("cell-probs", "roc"):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", config_path,
                               "--out", os.path.join(OUT, f"{command}.csv")])
            if rc != 0:
                raise SystemExit(f"{command} exited {rc}")
        statuses = set()
        for seed in VALIDATE_SEEDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["validate", "--config", config_path, "--seed", str(seed)])
            lines = buf.getvalue().splitlines()
            checks = tuple(
                (ln[1:].partition("]")[2].strip().split(": ", 1)[0],
                 ln[1:].partition("]")[0].strip())
                for ln in lines if ln.startswith("["))
            summary = [ln for ln in lines if ln.startswith("validate:")]
            statuses.add((checks, tuple(summary), rc))
        if len(statuses) != 1:
            raise SystemExit(f"validate statuses depend on the seed: {statuses}")
        checks, summary, rc = statuses.pop()
        if rc != 0 or len(summary) != 1:
            raise SystemExit(f"validate exited {rc}: {summary}")
        with open(os.path.join(OUT, "validate.json"), "w", encoding="utf-8") as fh:
            json.dump({"checks": [list(c) for c in checks], "summary": summary[0],
                       "seeds_compared": list(VALIDATE_SEEDS)}, fh, indent=1)

        config = load_config(config_path)
        betas = config.beta_grid.thresholds()
        params = config.params()
        exact = {}
        for width in config.bin_widths_hz:
            policy = analytic.SearchPolicy(config.order, config.m_for(width))
            exact[repr(width)] = [
                analytic.global_pdet_code_first_exact(
                    params, config.grid(width),
                    analytic.SearchPolicy(policy.order, policy.accept_half_width, float(b)),
                    CODE_LENGTH, config.lmax)
                for b in betas]
        with open(os.path.join(OUT, "exact_code_first.json"), "w", encoding="utf-8") as fh:
            json.dump({"config": passes.STANDARD_CONFIG,
                       "betas": [float(b) for b in betas],
                       "p_det_code_first_exact": exact}, fh, indent=1)
    print(f"reference written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
