"""Config schema strictness and CLI end-to-end behavior."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acqroc
from acqroc.analytic import DopplerGrid, SearchOrder
from acqroc.cli import main
from acqroc.config import BetaGridSpec, ConfigError, ExperimentConfig, load_config
from acqroc.simulator import Fidelity

MINIMAL = {"cn0_dbhz": 40.0, "tper_ms": 1.0}
# small but non-trivial: one width (K = 10), four thresholds, fast trials
SMALL = {
    "cn0_dbhz": 40.0,
    "tper_ms": 1.0,
    "bin_widths_hz": [1000.0],
    "beta_grid": {"min_pfa": 1e-4, "max_pfa": 0.3, "points": 4},
    "trials": 400,
    "seed": 3,
}


# the README standard config, and the sha256 of its analytic outputs at the
# default seed: the cell-probs and roc tables and the validate report
STANDARD = {"cn0_dbhz": 40, "tper_ms": 1, "m_by_width": {"200": 2, "500": 1}}
STANDARD_SHA256 = {
    "cell-probs": "774450c9d61b517fcc67b847fc55dd2cf2cd9d0c0ae3f1c738ee69a2f137e46c",
    "roc": "06f6d25edda6feb6dd256ba863769573f4bd40a672f32c3cb03130884854e9ee",
    "validate": "6e183efdd36f5d69ece42059bb926e0f63bc55807b810fa46522a2118fb2c037",
}
# metric-level simulate --trials 20000 on the standard config, default seed
STANDARD_METRIC_SHA256 = "1e83ac1297a2bd221a036247ff20b8034058f84ad40ed6e5f96086fa516fb4ec"


def write_config(tmp_path, extra=None, name="config.json"):
    data = dict(MINIMAL)
    data.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@st.composite
def config_pairs(draw):
    """A valid config file's JSON object and the ExperimentConfig arguments
    it stands for; the waveform chain needs whole milliseconds of T_per."""
    fidelity = draw(st.sampled_from(Fidelity))
    tper = (float(draw(st.integers(1, 4))) if fidelity is Fidelity.WAVEFORM
            else draw(st.floats(0.1, 10.0)))
    fdmax = draw(st.floats(500.0, 10000.0))
    widths = draw(st.lists(st.floats(100.0, 2000.0), min_size=1, max_size=4, unique=True))
    m_by_width = {w: draw(st.integers(0, min(3, DopplerGrid(w, fdmax).num_bins - 1)))
                  for w in draw(st.lists(st.sampled_from(widths), unique=True))}
    min_pfa = draw(st.floats(1e-12, 0.5))
    beta_grid = {"min_pfa": min_pfa, "max_pfa": draw(st.floats(2.0 * min_pfa, 1.0)),
                 "points": draw(st.integers(2, 80))}
    order = draw(st.sampled_from(SearchOrder))
    kwargs = dict(cn0_dbhz=draw(st.floats(20.0, 60.0)), tper_ms=tper, fdmax_hz=fdmax,
                  bin_widths_hz=tuple(widths), m_by_width=m_by_width,
                  beta_grid=BetaGridSpec(**beta_grid), trials=draw(st.integers(1, 10**6)),
                  seed=draw(st.integers(0, 2**32)), fidelity=fidelity, order=order,
                  lmax=draw(st.integers(0, 5)))
    raw = dict(kwargs, bin_widths_hz=widths, beta_grid=beta_grid, fidelity=fidelity.value,
               order=order.value, m_by_width={str(w): m for w, m in m_by_width.items()})
    return raw, kwargs


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.cn0_dbhz == 40.0
        assert cfg.tper_ms == 1.0
        assert cfg.fdmax_hz == 5000.0
        assert cfg.bin_widths_hz == (200.0, 500.0, 700.0, 1000.0)
        assert cfg.m_by_width == {}
        assert cfg.beta_grid == BetaGridSpec(1e-9, 0.5, 60)
        assert cfg.trials == 100_000
        assert cfg.seed == 12345
        assert cfg.fidelity is Fidelity.METRIC_LEVEL
        assert cfg.order is SearchOrder.CODE_PHASE_FIRST
        assert cfg.lmax == 2

    def test_helpers_derive_search_geometry(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.grid(500.0).num_bins == 20
        assert cfg.grid(1000.0).num_bins == 10
        assert cfg.params().t_per == pytest.approx(1e-3)
        assert cfg.m_for(500.0) == 0

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bandwidth_hz": 200.0})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    def test_unknown_beta_grid_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"beta_grid": {"min_pfa": 1e-6, "num": 9}})
        with pytest.raises(ConfigError, match="unknown beta_grid keys"):
            load_config(path)

    @pytest.mark.parametrize("missing", ["cn0_dbhz", "tper_ms"])
    def test_missing_required_key(self, tmp_path, missing):
        data = {k: v for k, v in MINIMAL.items() if k != missing}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=missing):
            load_config(str(path))

    def test_m_by_width_string_keys_parse_to_widths(self, tmp_path):
        path = write_config(tmp_path, {"m_by_width": {"200": 2, "500": 1}})
        cfg = load_config(path)
        assert cfg.m_for(200.0) == 2
        assert cfg.m_for(500.0) == 1
        assert cfg.m_for(700.0) == 0

    def test_m_by_width_unknown_width_rejected(self, tmp_path):
        path = write_config(tmp_path, {"m_by_width": {"300": 1}})
        with pytest.raises(ConfigError, match="not one of bin_widths_hz"):
            load_config(path)

    def test_m_must_stay_below_bin_count(self, tmp_path):
        # width 1000 gives K = 10, so M = 10 leaves no acceptable stop bin
        path = write_config(tmp_path, {"m_by_width": {"1000": 10}})
        with pytest.raises(ConfigError, match="smaller than the bin count"):
            load_config(path)
        ok = write_config(tmp_path, {"m_by_width": {"1000": 9}}, name="ok.json")
        assert load_config(ok).m_for(1000.0) == 9

    def test_booleans_are_not_numbers(self, tmp_path):
        path = write_config(tmp_path, {"trials": True})
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)
        path = write_config(tmp_path, {"cn0_dbhz": True, "tper_ms": 1.0},
                            name="b.json")
        with pytest.raises(ConfigError, match="must be a number"):
            load_config(path)

    def test_bad_enum_values(self, tmp_path):
        with pytest.raises(ConfigError, match="fidelity must be one of"):
            load_config(write_config(tmp_path, {"fidelity": "exact"}))
        with pytest.raises(ConfigError, match="order must be one of"):
            load_config(write_config(tmp_path, {"order": "phase-first"},
                                     name="o.json"))

    def test_unreadable_or_malformed_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            load_config(str(arr))

    @settings(max_examples=60, deadline=None)
    @given(pair=config_pairs(), data=st.data())
    def test_round_trip_and_wrong_types(self, tmp_path_factory, pair, data):
        raw, kwargs = pair
        path = tmp_path_factory.mktemp("rt") / "config.json"
        path.write_text(json.dumps(raw))
        assert load_config(str(path)) == ExperimentConfig(**kwargs)
        # any one key, top level or in beta_grid, of a type its parser rejects
        key = data.draw(st.sampled_from(
            sorted(raw) + [f"beta_grid.{k}" for k in raw["beta_grid"]]))
        *parents, leaf = key.split(".")
        bad = json.loads(json.dumps(raw))
        node = bad
        for parent in parents:
            node = node[parent]
        node[leaf] = data.draw(st.sampled_from(["x", True, None, [True]]))
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(str(path))

    def test_beta_grid_spec_validation(self):
        with pytest.raises(ConfigError):
            BetaGridSpec(min_pfa=0.5, max_pfa=1e-9)
        with pytest.raises(ConfigError):
            BetaGridSpec(points=1)
        with pytest.raises(ConfigError):
            BetaGridSpec(min_pfa=0.0)
        # equal endpoints give a constant grid, which no table can use
        with pytest.raises(ConfigError, match="strictly increasing"):
            BetaGridSpec(min_pfa=0.1, max_pfa=0.1, points=3)

    def test_beta_grid_threshold_endpoints(self):
        import numpy as np
        betas = BetaGridSpec(1e-4, 0.2, 7).thresholds()
        assert len(betas) == 7
        assert np.exp(-betas[0]) == pytest.approx(0.2, rel=1e-12)
        assert np.exp(-betas[-1]) == pytest.approx(1e-4, rel=1e-12)

    def test_direct_construction_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(cn0_dbhz=40.0, tper_ms=1.0, trials=0)
        # a float count fails at construction, not in the middle of a run
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(cn0_dbhz=40.0, tper_ms=1.0, trials=50.0)
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(cn0_dbhz=40.0, tper_ms=1.0, seed=-1)
        with pytest.raises(ConfigError, match="tper_ms"):
            ExperimentConfig(cn0_dbhz=40.0, tper_ms=0.0)
        with pytest.raises(ConfigError, match="bin widths"):
            ExperimentConfig(cn0_dbhz=40.0, tper_ms=1.0, bin_widths_hz=(-5.0,))


class TestCli:
    def test_simulate_bytes_reproducible_and_worker_invariant(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        outs = [str(tmp_path / f"sim{i}.csv") for i in range(3)]
        assert main(["simulate", "--config", cfg, "--out", outs[0]]) == 0
        assert main(["simulate", "--config", cfg, "--out", outs[1]]) == 0
        assert main(["simulate", "--config", cfg, "--out", outs[2],
                     "--workers", "3"]) == 0
        blobs = [open(o, "rb").read() for o in outs]
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]

    def test_seed_override_changes_monte_carlo_columns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b,
                     "--seed", "99"]) == 0
        header, rows_a = read_csv(out_a)
        _, rows_b = read_csv(out_b)
        i_mc = header.index("p_det_mc")
        i_beta = header.index("beta")
        # analytic columns identical, at least one MC estimate moves
        assert [r[i_beta] for r in rows_a] == [r[i_beta] for r in rows_b]
        assert any(a[i_mc] != b[i_mc] for a, b in zip(rows_a, rows_b))

    def test_trials_override_lands_in_csv(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--trials", "150"]) == 0
        header, rows = read_csv(out)
        i = header.index("trials")
        assert all(r[i] == "150" for r in rows)

    def test_roc_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "bin_widths_hz": [500.0, 1000.0],
            "m_by_width": {"500": 1},
            "beta_grid": {"min_pfa": 1e-6, "max_pfa": 0.3, "points": 5},
        })
        out = str(tmp_path / "roc.csv")
        assert main(["roc", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == [
            "width_hz", "m", "beta", "p_fa_cell",
            "p_det_cell_l0", "p_det_cell_l1", "p_det_cell_l2",
            "p_det_cell_l0_exact", "p_det_cell_l1_exact", "p_det_cell_l2_exact",
            "p_fa_global", "p_det_naive", "p_det_code_first",
            "p_det_doppler_first", "p_det_approx",
        ]
        assert len(rows) == 2 * 5
        m_of = {r[0]: r[1] for r in rows}
        assert m_of["500"] == "1" and m_of["1000"] == "0"

    def test_cell_probs_schema_and_reference_column(self, tmp_path):
        cfg = write_config(tmp_path, {
            "bin_widths_hz": [1000.0],
            "beta_grid": {"min_pfa": 1e-4, "max_pfa": 0.3, "points": 4},
        })
        out = str(tmp_path / "cells.csv")
        assert main(["cell-probs", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["width_hz", "wt", "offset_l", "beta", "p_fa_cell",
                          "p_det_expected", "p_det_exact", "p_det_reference"]
        assert len(rows) == 3 * 4
        for row in rows:
            rec = dict(zip(header, row))
            if rec["offset_l"] != "0":
                # off the correct bin the loss-free reference is plain noise
                assert rec["p_det_reference"] == rec["p_fa_cell"]
            else:
                assert float(rec["p_det_reference"]) >= float(rec["p_det_expected"])

    def test_order_override_changes_simulated_search(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out_c = str(tmp_path / "c.csv")
        out_d = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", cfg, "--out", out_c]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_d,
                     "--order", "doppler-first"]) == 0
        header, rows_c = read_csv(out_c)
        _, rows_d = read_csv(out_d)
        i_mc = header.index("p_det_mc")
        assert any(a[i_mc] != b[i_mc] for a, b in zip(rows_c, rows_d))

    def test_fidelity_override_reaches_simulator(self, tmp_path, capsys):
        small = dict(SMALL)
        small["trials"] = 40
        small["beta_grid"] = {"min_pfa": 1e-3, "max_pfa": 0.1, "points": 2}
        cfg = write_config(tmp_path, small)
        out = str(tmp_path / "wf.csv")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--fidelity", "waveform"]) == 0
        assert "waveform" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert all(r[header.index("trials")] == "40" for r in rows)

    def test_validate_exits_zero_with_known_gaps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bin_widths_hz": [500.0, 1000.0]})
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "[PASS     ]" in out
        assert "[KNOWN_GAP]" in out          # W = 500 adjacent-bin model gap
        assert "[FAIL" not in out
        assert "validate: OK" in out

    def test_standard_config_analytic_outputs_are_pinned(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STANDARD)
        got = {}
        for command in ("cell-probs", "roc"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            got[command] = hashlib.sha256(out.read_bytes()).hexdigest()
        capsys.readouterr()
        assert main(["validate", "--config", cfg]) == 0
        got["validate"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == STANDARD_SHA256

    def test_standard_config_metric_simulate_is_pinned(self, tmp_path):
        # a change to the metric-level realizations shows here and must be
        # announced; the bytes are the same at any worker count
        cfg = write_config(tmp_path, STANDARD)
        for workers in ("1", "2"):
            out = tmp_path / f"metric{workers}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--trials", "20000",
                         "--workers", workers]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == STANDARD_METRIC_SHA256

    def test_config_error_exits_two(self, tmp_path, capsys):
        bad = write_config(tmp_path, {"bogus": 1})
        assert main(["roc", "--config", bad, "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_waveform_needs_whole_milliseconds(self, tmp_path, capsys):
        # T_per = 1.5 ms is fine for the metric chain but is no whole number
        # of code periods: rejected at load, before any table is computed
        cfg = write_config(tmp_path, {"tper_ms": 1.5, "bin_widths_hz": [1000]})
        out = tmp_path / "wf.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--fidelity", "waveform"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "tper_ms" in err[0]
        assert not out.exists()
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--trials", "200"]) == 0
        assert out.exists()

    def test_out_into_missing_directory_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "no" / "such" / "x.csv"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.parent.exists()

    def test_out_naming_a_directory_exits_two_before_computing(self, tmp_path, capsys,
                                                              monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()

        def no_tables(config):
            raise AssertionError("tables computed before --out was checked")

        monkeypatch.setattr(acqroc.cli, "_roc_tables", no_tables)
        assert main(["roc", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert list(out.iterdir()) == []

    def test_invalid_workers_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv"), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["roc"])
        assert exc.value.code == 2

    @staticmethod
    def _run_module(module, *argv):
        # the child imports the same acqroc as this process, with or without
        # PYTHONPATH set by the caller
        src = os.path.dirname(os.path.dirname(acqroc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_module_entry_point(self, tmp_path):
        bad = write_config(tmp_path, {"trials": -3})
        proc = self._run_module("acqroc.cli", "roc", "--config", bad,
                                "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_package_entry_point_matches_cli_module(self, tmp_path):
        cfg = write_config(tmp_path, STANDARD)
        package = self._run_module("acqroc", "validate", "--config", cfg)
        cli_module = self._run_module("acqroc.cli", "validate", "--config", cfg)
        assert package.returncode == cli_module.returncode == 0, package.stderr
        assert package.stdout == cli_module.stdout
        assert "validate: OK" in package.stdout
