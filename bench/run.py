"""acqroc benchmark: three workloads on the README standard config.

Run from the root of an acqroc checkout:

    python3 bench/run.py --workload analytic --seed 1 --seconds 34 --trace 0

Workloads (passes.py, README.md): `analytic`, `mc-metric`, `mc-waveform`.
One process drives everything: it measures set-up in fresh child
interpreters, runs one untimed warm-up pass, then times whole passes in its
own warm interpreter until --seconds of pass time are used, checking every
output row of every pass (untimed) against bench/reference/.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 prints the per-layer metrics: spans around every call into the
eight acqroc modules, per-layer probes at fixed sizes and the determinism
probe.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A report with the facts of the run (and
the spans, when traced) is written under .bench_work/.
"""

from __future__ import annotations

import os
import sys

# One thread for every BLAS/OpenMP pool, set before numpy loads; the child
# interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
# the package under test is the checkout's source tree, never an installed copy
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "acqroc", "__init__.py")):
    sys.exit("bench: no src/acqroc here; run from the root of an acqroc checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import facts  # noqa: E402
import passes  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402

import acqroc.cli as cli  # noqa: E402
from acqroc.config import load_config  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: imported {cli.__file__}, not the checkout's src/")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# Set-up interpreters: a few before the warm-up pass, then one per
# SETUP_EVERY_S of timed pass time, launched between passes, so that the
# median samples the whole run rather than one stretch of host load.
SETUP_BEFORE = 3
SETUP_EVERY_S = 4.0
MIN_PASSES = 2
# no new pass starts after this many seconds, so a run ends well inside 180 s
WALL_CAP_S = 120.0
REPLAYS = 5
PROBE_REPS = 3
# batch sizes the README documents as frozen parts of the algorithm
BATCH = {"metric": 4096, "waveform": 256}
COMMANDS = ("cell-probs", "roc", "validate", "simulate")
PROBE_SIMULATE_TRIALS = 4096


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=passes.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(config_path: str, n: int, warm: bool = False) -> list[dict]:
    """Fresh interpreters: CLOCK_MONOTONIC from launch until `import
    acqroc.cli` and `load_config` are done (perf_counter reads the same
    clock in every process).  With warm, one more interpreter runs first,
    untimed, to fill the file cache and the bytecode cache."""
    script = os.path.join(BENCH_DIR, "setup_child.py")
    out = []
    for i in range(n + int(warm)):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, script, config_path], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec.pop("done") - t0
        if i or not warm:
            out.append(rec)
    return out


def keep_going(times: list[float], budget_s: float, started: float,
               minimum: int = MIN_PASSES) -> bool:
    """Start another pass while the predicted pass time fits the budget."""
    if len(times) < minimum:
        return True
    if perf_counter() - started > WALL_CAP_S:
        return False
    return sum(times) + statistics.median(times) <= budget_s


def unit_of(name: str) -> str:
    """A per-layer metric's unit follows the suffix of its second name part
    (cli.self_s, analytic.roc_curve_s.200, simulator.waveform_trials_per_s)."""
    if name.startswith("count."):
        return "B" if name.endswith("_bytes") else "count"
    part = name.split(".")[1]
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if part.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


class Bench:
    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        self.args = args
        self.workdir = workdir
        self.started = perf_counter()
        self.config_path = passes.write_config(args.workload, args.seed, workdir)
        self.config = load_config(self.config_path)
        self.fid = passes.fidelity(args.workload)
        self.trials = passes.MC_TRIALS.get(self.fid)
        self.steps = passes.steps_for(args.workload, self.config_path, workdir)
        self.cli_steps = [s for s in self.steps if s.kind == "cli"]
        self.ref = checks.Reference.load()
        self.tally = checks.Tally()
        self.report: dict = {}
        self.tracer = spans.Tracer()
        self.recording: list = []        # library calls cli made, first traced pass
        self.cmd_s: dict[str, list[float]] = {}
        self.setup = measure_setup(self.config_path, SETUP_BEFORE, warm=True)

    def one_pass(self, traced: bool = False):
        """One pass, timed; then its untimed check.  Returns (seconds, output)."""
        gc.collect()
        if traced:
            with self.tracer.span("bench.pass") as sid:
                out = passes.run_pass(self.steps, self.config)
            _, _, t0, t1 = self.tracer.spans[sid]
        else:
            t0 = perf_counter()
            out = passes.run_pass(self.steps, self.config)
            t1 = perf_counter()
        checks.check_pass(out, passes.EXACT_STRIDE, self.trials, self.fid, self.ref, self.tally)
        return t1 - t0, out

    def more_setup(self, timed_s: float) -> None:
        self.setup += measure_setup(self.config_path, max(1, round(timed_s / SETUP_EVERY_S)))

    def end_to_end(self) -> dict:
        times = []
        while keep_going(times, self.args.seconds, self.started):
            dt, _ = self.one_pass()
            times.append(dt)
            self.more_setup(dt)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.report["pass_s"] = times
        return {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in self.setup), "unit": "s"},
            "wall_s": {"value": statistics.fmean(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        modules = spans.layer_modules()
        layer = self._traced_passes(modules)
        layer["cli.self_s"] = self._cli_self_s()
        layer.update(self._command_probes(modules))
        layer["cli.import_s"] = statistics.median(r["import_s"] for r in self.setup)
        layer["config.load_config_ms"] = statistics.median(
            r["load_config_ms"] for r in self.setup)
        layer.update(self._layer_probes())
        with self.tracer.span("probe.determinism"):
            det = probes.determinism(self.config_path, self.workdir)
        self.tally.op(det["identical"], f"determinism: CSVs differ {det['sha256']}")
        self.report["determinism"] = det
        return {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(layer.items())}

    def _traced_passes(self, modules) -> dict:
        """Alternate untraced and traced passes; per-command times and layer
        self times from the traced ones, counts from the first of them."""
        tracer = self.tracer
        untraced, traced, ranges = [], [], []
        while keep_going([u + t for u, t in zip(untraced, traced)],
                         self.args.seconds, self.started, minimum=1):
            du, _ = self.one_pass()
            first = not ranges
            tracer.record_cli = [] if first else None
            rows_before = self.tally.rows_checked
            lo = len(tracer.spans)
            tracer.install(modules)
            try:
                dt, out = self.one_pass(traced=True)
            finally:
                tracer.uninstall()
            ranges.append((lo, len(tracer.spans)))
            if first:
                self.recording, tracer.record_cli = tracer.record_cli, None
                counts = {
                    "count.rows_checked": self.tally.rows_checked - rows_before,
                    "count.csv_bytes": sum(os.path.getsize(p) for p in out.csv_paths.values()
                                           if os.path.exists(p)),
                }
            untraced.append(du)
            traced.append(dt)
            self.more_setup(du + dt)

        mc_widths = len(self.config.bin_widths_hz) if self.fid else 0
        counts["count.trials"] = 2 * (self.trials or 0) * mc_widths
        counts["count.batches"] = 2 * math.ceil((self.trials or 0) / BATCH.get(self.fid, 1)) * mc_widths
        counts["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        for lo, hi in ranges:
            for step, d in zip(self.cli_steps, tracer.durations(lo, hi, "cli.main")):
                self.cmd_s.setdefault(step.command, []).append(d)
        by_pass = [tracer.self_time_by_layer(lo, hi) for lo, hi in ranges]
        self.report.update({
            "untraced_pass_s": untraced, "traced_pass_s": traced,
            "self_s_by_layer": {name: statistics.median(p.get(name, 0.0) for p in by_pass)
                                for name in ("bench",) + spans.LAYERS},
            "wait_s_by_layer": {name: 0.0 for name in spans.LAYERS},
            "wait_note": "one worker: no queue, so no layer waits",
            "spans_per_traced_pass": tracer.count_by_name(*ranges[0]),
        })
        return counts

    def _cli_self_s(self) -> float:
        """Each command of the first traced pass replayed with its library
        calls answered from the recording; the sum of their medians."""
        per_command, chunk = [], []
        for name, result in self.recording:
            if name == "main":
                per_command.append(chunk)
                chunk = []
            else:
                chunk.append((name, result))
        replay_s = {step.command: statistics.median(
                        spans.replay_cli(cli, list(step.argv), calls) for _ in range(REPLAYS))
                    for step, calls in zip(self.cli_steps, per_command)}
        self.report["cli_replay_s"] = replay_s
        return sum(replay_s.values())

    def _command_probes(self, modules) -> dict:
        """cli.command_s for every command: from the traced passes, or, for
        commands this workload does not run, from traced probe runs."""
        tracer = self.tracer
        tracer.install(modules)
        try:
            for command in COMMANDS:
                if command in self.cmd_s:
                    continue
                step = passes.cli_step(command, self.config_path, self.workdir,
                                       "metric", PROBE_SIMULATE_TRIALS)
                lo = len(tracer.spans)
                for _ in range(PROBE_REPS):
                    with tracer.span(f"probe.cli.{command}"):
                        passes.run_step(step, self.config, passes.PassOutput())
                self.cmd_s[command] = tracer.durations(lo, len(tracer.spans), "cli.main")
        finally:
            tracer.uninstall()
        return {f"cli.command_s.{c}": statistics.median(self.cmd_s[c]) for c in COMMANDS}

    def _layer_probes(self) -> dict:
        cfg = self.config
        order = {o.value: o for o in type(cfg.order)}
        probe_fns = {
            "numerics.marcum_q1_us": lambda: probes.marcum_q1_us(cfg),
            "analytic.cell_pdet_exact_ms": lambda: probes.cell_pdet_exact_ms(cfg),
            "analytic.global_pdet_code_first_exact_ms":
                lambda: probes.global_pdet_code_first_exact_ms(cfg),
            "analytic.global_pdet_closed_us": lambda: probes.global_pdet_closed_us(cfg),
            "oracle.averaged_detection_ms": probes.averaged_detection_ms,
            "validate.run_validation_s": lambda: probes.run_validation_s(cfg),
            "simulator.metric_trials_per_s.code-first":
                lambda: probes.metric_trials_per_s(cfg, order["code-first"]),
            "simulator.metric_trials_per_s.doppler-first":
                lambda: probes.metric_trials_per_s(cfg, order["doppler-first"]),
            "simulator.waveform_trials_per_s": lambda: probes.waveform_trials_per_s(cfg),
            "prncode.generate_ca_code_us": probes.generate_ca_code_us,
        }
        out = {}
        for name, fn in probe_fns.items():
            with self.tracer.span(f"probe.{name}"):
                out[name] = fn()
        with self.tracer.span("probe.analytic.roc_curve_s"):
            for width, s in probes.roc_curve_s(cfg).items():
                out[f"analytic.roc_curve_s.{width:g}"] = s
        return out

    def write_report(self, path: str, load_start: dict, metrics: dict) -> dict:
        cfg = self.config
        report = {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "machine": facts.machine(),
            "load_start": load_start, "load_end": facts.load_snapshot(),
            "config": {
                "cn0_dbhz": cfg.cn0_dbhz, "tper_ms": cfg.tper_ms, "fdmax_hz": cfg.fdmax_hz,
                "bin_widths_hz": list(cfg.bin_widths_hz),
                "m_by_width": {f"{w:g}": cfg.m_for(w) for w in cfg.bin_widths_hz},
                "beta_points": int(cfg.beta_grid.points), "seed": cfg.seed,
                "order": cfg.order.value, "lmax": cfg.lmax,
                "fidelity": self.fid, "trials_per_width": self.trials,
            },
            "setup": self.setup,
            "attempted": self.tally.attempted, "failed": self.tally.failed,
            "failure_notes": self.tally.notes, "min_mc_tail_p": self.tally.min_tail,
            **self.report,
            "metrics": metrics,
        }
        self.tracer.write(path, report)
        return report


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = facts.load_snapshot()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK_ROOT)
    try:
        bench = Bench(args, workdir)
        bench.one_pass()  # untimed warm-up, checked like every pass
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    report = bench.write_report(path, load_start, metrics)
    print("facts:", json.dumps({k: report[k] for k in
                                ("machine", "load_start", "load_end", "config", "min_mc_tail_p")}))
    for note in bench.tally.notes:
        print("failed:", note)
    print(json.dumps({"correct": bench.tally.failed == 0, "attempted": bench.tally.attempted,
                      "failed": bench.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
