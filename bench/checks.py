"""Untimed correctness gate: every output row of every pass against the
reference pinned in bench/reference/.

One operation is one reference row (or validate line, or exact-column
value).  A missing, extra or out-of-band row is a failed operation.

- Analytic columns must agree with the pinned value to within one unit in
  the tenth significant digit, the resolution of the CLI's %.10g output.
- p_det_mc: the count must be plausible under Binomial(trials, target),
  where the target is the exact-quadrature code-first P_det (not the
  expected-L column, which sits several sigma off): a row fails when the
  exact binomial tail beyond the count is below ALPHA, about 6 sigma.  The
  Wilson score band this replaces rejects far too often at small expected
  counts (one detection in 256 trials where 0.03 are expected lies
  outside the 5-sigma Wilson band).
- p_fa_mc: the same test against p_fa_global, both tails at metric level;
  at waveform level only the lower tail, because the false-alarm run
  correlates against PRN 5 and Gold-code cross-correlation raises the
  rate above the noise-only closed form.
- ci_low/ci_high must be the 95% Wilson interval of p_det_mc; trials must
  be the configured count.
- validate: the sequence of (check, status) pairs, including the KNOWN_GAP
  lines, the summary line and exit code 0.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# per-tail false-failure probability of one MC row, about 6 sigma
ALPHA = 1e-9
Z_CI = 1.96
ROC_COLUMNS = 15
MAX_NOTES = 20


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binomial_tail(count: int, trials: int, p: float, upper: bool) -> float:
    """P(X >= count) when upper, else P(X <= count), for X ~ Binomial(trials, p).
    Returns 1 when count lies on the near side of the mean, where the tail
    holds at least about half the mass; otherwise sums the pmf outward from
    count until the geometric decay makes further terms negligible."""
    mean = trials * p
    if (upper and count <= mean) or (not upper and count >= mean):
        return 1.0
    if p <= 0.0 or p >= 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    term = math.exp(math.lgamma(trials + 1) - math.lgamma(count + 1)
                    - math.lgamma(trials - count + 1)
                    + count * log_p + (trials - count) * log_q)
    total, k = 0.0, count
    while term > 0.0 and term >= total * 1e-17:
        total += term
        if upper:
            if k == trials:
                break
            term *= (trials - k) / (k + 1) * p / (1.0 - p)
            k += 1
        else:
            if k == 0:
                break
            term *= k / (trials - k + 1) * (1.0 - p) / p
            k -= 1
    return total


def close10(got: float, want: float) -> bool:
    """True when got equals want to one unit in want's tenth significant digit."""
    if got == want:
        return True
    if want == 0.0 or not (math.isfinite(got) and math.isfinite(want)):
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - 9)
    return abs(got - want) <= unit * (1.0 + 1e-9)


def _fields_match(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if w == "" or g == "":
            if g != w:
                return False
            continue
        try:
            if not close10(float(g), float(w)):
                return False
        except ValueError:
            return False
    return True


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


@dataclass(frozen=True)
class Reference:
    cell_header: list[str]
    cell_rows: list[list[str]]
    roc_header: list[str]
    roc_rows: list[list[str]]
    betas: list[float]
    exact: dict[float, list[float]]
    validate_checks: list[tuple[str, str]]
    validate_summary: str

    @classmethod
    def load(cls, directory: str = REFERENCE_DIR) -> "Reference":
        cell_header, cell_rows = read_csv(os.path.join(directory, "cell-probs.csv"))
        roc_header, roc_rows = read_csv(os.path.join(directory, "roc.csv"))
        with open(os.path.join(directory, "exact_code_first.json"), encoding="utf-8") as fh:
            exact = json.load(fh)
        with open(os.path.join(directory, "validate.json"), encoding="utf-8") as fh:
            val = json.load(fh)
        return cls(
            cell_header=cell_header, cell_rows=cell_rows,
            roc_header=roc_header, roc_rows=roc_rows,
            betas=[float(b) for b in exact["betas"]],
            exact={float(w): [float(v) for v in vals]
                   for w, vals in exact["p_det_code_first_exact"].items()},
            validate_checks=[(n, s) for n, s in val["checks"]],
            validate_summary=val["summary"],
        )


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure notes and
    the worst MC z-scores seen (z against the binomial sigma at the target)."""

    attempted: int = 0
    failed: int = 0
    rows_checked: int = 0
    notes: list[str] = field(default_factory=list)
    min_tail: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)

    def tail(self, key: str, value: float) -> None:
        self.min_tail[key] = min(self.min_tail.get(key, 1.0), value)


def _check_table(path: str | None, header: list[str], ref_rows: list[list[str]],
                 label: str, tally: Tally, row_ok) -> None:
    """Header, then one operation per reference row, one failed operation
    per extra row; row_ok(index, got_row) decides each present row."""
    if path is None or not os.path.exists(path):
        for _ in ref_rows:
            tally.op(False, f"{label}: output missing")
        return
    got_header, rows = read_csv(path)
    tally.op(got_header == header, f"{label}: header {got_header[:4]}...")
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            tally.op(False, f"{label}: row {i} missing")
            continue
        ok, why = row_ok(i, rows[i])
        tally.op(ok, f"{label}: row {i} {why}")
    for i in range(len(ref_rows), len(rows)):
        tally.op(False, f"{label}: extra row {i}")
    tally.rows_checked += max(len(rows), len(ref_rows))


def check_analytic_table(path: str | None, header: list[str], ref_rows: list[list[str]],
                         label: str, tally: Tally) -> None:
    _check_table(path, header, ref_rows, label, tally,
                 lambda i, row: (_fields_match(row, ref_rows[i]), "out of band"))


def check_simulate(path: str | None, fid: str, trials: int, ref: Reference,
                   tally: Tally) -> None:
    header = ref.roc_header + ["p_det_mc", "p_fa_mc", "ci_low", "ci_high", "trials"]
    nbeta = len(ref.betas)

    def row_ok(i: int, row: list[str]) -> tuple[bool, str]:
        want = ref.roc_rows[i]
        if len(row) != len(header):
            return False, f"has {len(row)} fields"
        if not _fields_match(row[:ROC_COLUMNS], want):
            return False, "analytic columns out of band"
        try:
            p_det, p_fa, ci_lo, ci_hi = (float(v) for v in row[ROC_COLUMNS:ROC_COLUMNS + 4])
            n_trials = int(row[-1])
        except ValueError:
            return False, "unparseable MC columns"
        if n_trials != trials:
            return False, f"trials {n_trials} != {trials}"
        n_det = round(p_det * trials)
        n_fa = round(p_fa * trials)
        target = ref.exact[float(want[0])][i % nbeta]
        tail = min(binomial_tail(n_det, trials, target, True),
                   binomial_tail(n_det, trials, target, False))
        tally.tail(f"p_det_{fid}", tail)
        if tail < ALPHA:
            return False, f"p_det_mc {p_det}: tail {tail:.3g} against exact {target:.6g}"
        pfa_target = float(want[10])
        tail = binomial_tail(n_fa, trials, pfa_target, False)
        if fid == "metric":
            tail = min(tail, binomial_tail(n_fa, trials, pfa_target, True))
        tally.tail(f"p_fa_{fid}", tail)
        if tail < ALPHA:
            return False, f"p_fa_mc {p_fa}: tail {tail:.3g} against p_fa_global {pfa_target:.6g}"
        w_lo, w_hi = wilson(n_det, trials, Z_CI)
        if not (close10(ci_lo, w_lo) and close10(ci_hi, w_hi)):
            return False, f"Wilson interval [{ci_lo}, {ci_hi}] != [{w_lo}, {w_hi}]"
        return True, ""

    _check_table(path, header, ref.roc_rows, f"simulate-{fid}", tally, row_ok)


def check_validate(stdout: str, returncode: int, ref: Reference, tally: Tally) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    got = []
    for ln in lines:
        status, _, rest = ln[1:].partition("]")
        got.append((rest.strip().split(": ", 1)[0], status.strip()))
    for i, want in enumerate(ref.validate_checks):
        ok = i < len(got) and got[i] == want
        tally.op(ok, f"validate: line {i} {got[i] if i < len(got) else 'missing'} != {want}")
    for extra in got[len(ref.validate_checks):]:
        tally.op(False, f"validate: extra line {extra}")
    summary = [ln for ln in stdout.splitlines() if ln.startswith("validate:")]
    tally.op(summary == [ref.validate_summary] and returncode == 0,
             f"validate: summary {summary} exit {returncode}")
    tally.rows_checked += max(len(got), len(ref.validate_checks)) + 1


def check_exact(exact: dict[float, list[float]], stride: int, ref: Reference,
                tally: Tally) -> None:
    for width, want_all in ref.exact.items():
        want = want_all[::stride]
        got = exact.get(width, [])
        for j, w in enumerate(want):
            ok = j < len(got) and close10(got[j], w)
            tally.op(ok, f"exact W={width:g} beta#{j * stride}: "
                         f"{got[j] if j < len(got) else 'missing'} != {w}")
        for j in range(len(want), len(got)):
            tally.op(False, f"exact W={width:g}: extra value {j}")
        tally.rows_checked += max(len(got), len(want))
    for width in set(exact) - set(ref.exact):
        tally.op(False, f"exact: unexpected width {width}")


def check_pass(out, stride: int, trials: int | None, fid: str | None,
               ref: Reference, tally: Tally) -> None:
    """Check every output of one pass; a non-zero exit code is one more
    failed operation for the command that returned it."""
    for error in out.errors:
        tally.op(False, error.strip().splitlines()[-1])
    for command, rc in out.returncodes.items():
        if command != "validate" and rc != 0:
            tally.op(False, f"{command}: exit code {rc}")
    for command, header, rows in (("cell-probs", ref.cell_header, ref.cell_rows),
                                  ("roc", ref.roc_header, ref.roc_rows)):
        if command in out.returncodes:
            check_analytic_table(out.csv_paths.get(command), header, rows, command, tally)
    if "validate" in out.returncodes:
        check_validate(out.stdout["validate"], out.returncodes["validate"], ref, tally)
    if "simulate" in out.returncodes:
        check_simulate(out.csv_paths.get("simulate"), fid, trials, ref, tally)
    if out.exact is not None:
        check_exact(out.exact, stride, ref, tally)
