"""Experiment configuration: a strict JSON schema with standard-experiment defaults.

A minimal file needs only the signal point, e.g. {"cn0_dbhz": 40, "tper_ms": 1};
everything else defaults to the standard experiment (f_dmax 5000 Hz, widths
200/500/700/1000 Hz, M = 0 unless m_by_width says otherwise, 60-point beta
grid spanning cell P_fa 1e-9..0.5, 1e5 trials, fixed seed).

One key table, `_KEYS`, maps each JSON key to its parser: a number, an
integer, the width list, the width -> M object, an enum value, or a nested
object with its own table (`beta_grid`).  The same table parses the file
and the CLI's overrides.  Keys not in a table are rejected, so a typo cannot
silently fall back to a default; the keys a dataclass gives no default are
required.  Every other rule belongs to the run objects a config builds per
width (SignalParams, DopplerGrid, SearchPolicy, SimConfig), which check it
when the config is made.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .analytic import DopplerGrid, SearchOrder, SearchPolicy, SignalParams, default_beta_grid
from .simulator import Fidelity, SimConfig

__all__ = ["ConfigError", "BetaGridSpec", "ExperimentConfig", "load_config", "override"]

DEFAULT_BIN_WIDTHS_HZ = (200.0, 500.0, 700.0, 1000.0)
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 12345

# the run objects name their fields, a config file its keys
_KEY_OF_FIELD = {"bin_width_hz": "bin widths", "f_dmax_hz": "fdmax_hz", "t_per": "tper_ms",
                 "l_max": "lmax", "accept_half_width": "M"}


class ConfigError(Exception):
    """Config file missing, unparseable, or violating an invariant."""


@dataclass(frozen=True)
class BetaGridSpec:
    """Log-spaced threshold grid described by its cell P_fa endpoints."""

    min_pfa: float = 1e-9
    max_pfa: float = 0.5
    points: int = 60

    def __post_init__(self) -> None:
        try:
            self.thresholds()
        except ValueError as exc:
            raise ConfigError(f"beta_grid: {exc}") from exc

    def thresholds(self) -> np.ndarray:
        return default_beta_grid(self.min_pfa, self.max_pfa, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    cn0_dbhz: float
    tper_ms: float
    fdmax_hz: float = 5000.0
    bin_widths_hz: tuple[float, ...] = DEFAULT_BIN_WIDTHS_HZ
    m_by_width: dict[float, int] = field(default_factory=dict)
    beta_grid: BetaGridSpec = BetaGridSpec()
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    fidelity: Fidelity = Fidelity.METRIC_LEVEL
    order: SearchOrder = SearchOrder.CODE_PHASE_FIRST
    lmax: int = 2

    def __post_init__(self) -> None:
        if len(self.bin_widths_hz) == 0:
            raise ConfigError("bin_widths_hz must be non-empty")
        for w in self.m_by_width:
            if w not in self.bin_widths_hz:
                raise ConfigError(f"m_by_width key {w!r} is not one of bin_widths_hz")
        for w in self.bin_widths_hz:
            try:
                self.sim_config(w)
            except ValueError as exc:
                msg = str(exc)
                for name, key in _KEY_OF_FIELD.items():
                    msg = msg.replace(name, key)
                raise ConfigError(f"{msg} (at bin width {w:g} Hz)") from exc

    def params(self) -> SignalParams:
        return SignalParams(cn0_dbhz=self.cn0_dbhz, t_per=self.tper_ms * 1e-3)

    def grid(self, width_hz: float) -> DopplerGrid:
        return DopplerGrid(bin_width_hz=width_hz, f_dmax_hz=self.fdmax_hz)

    def m_for(self, width_hz: float) -> int:
        return self.m_by_width.get(width_hz, 0)

    def policy(self, width_hz: float) -> SearchPolicy:
        """Search order and acceptance half-width M at one width."""
        return SearchPolicy(self.order, self.m_for(width_hz))

    def sim_config(self, width_hz: float) -> SimConfig:
        """The Monte Carlo experiment at one width."""
        return SimConfig(trials=self.trials, seed=self.seed, fidelity=self.fidelity,
                         params=self.params(), grid=self.grid(width_hz),
                         policy=self.policy(width_hz), l_max=self.lmax)


def _number(raw, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _integer(raw, name: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    return raw


def _widths(raw, name: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list")
    return tuple(_number(w, f"{name} entry") for w in raw)


def _m_by_width(raw, name: str) -> dict[float, int]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object of width -> M")
    out = {}
    for key, m in raw.items():
        try:
            w = float(key)
        except ValueError as exc:
            raise ConfigError(f"{name} key {key!r} is not a width") from exc
        out[w] = _integer(m, f"{name}[{key}]")
    return out


def _enum(cls):
    def parse(raw, name: str):
        try:
            return cls(raw)
        except ValueError as exc:
            raise ConfigError(f"{name} must be one of {[e.value for e in cls]}") from exc
    return parse


def _object(raw, cls, table: dict, name: str = ""):
    """cls built from a JSON object whose keys `table` parses; `name` is the
    object's key, empty for the config root."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name or 'config root'} must be a JSON object")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {name or 'config'} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ConfigError(f"missing required key {f.name!r}")
    prefix = f"{name}." if name else ""
    return cls(**{key: table[key](value, prefix + key) for key, value in raw.items()})


_BETA_GRID_KEYS = {"min_pfa": _number, "max_pfa": _number, "points": _integer}
_KEYS = {
    "cn0_dbhz": _number, "tper_ms": _number, "fdmax_hz": _number,
    "bin_widths_hz": _widths, "m_by_width": _m_by_width,
    "beta_grid": lambda raw, name: _object(raw, BetaGridSpec, _BETA_GRID_KEYS, name),
    "trials": _integer, "seed": _integer,
    "fidelity": _enum(Fidelity), "order": _enum(SearchOrder), "lmax": _integer,
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment file; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    return _object(raw, ExperimentConfig, _KEYS)


def override(config: ExperimentConfig, raw: dict) -> ExperimentConfig:
    """`config` with the keys of `raw` replaced, each value parsed as in a
    config file."""
    return replace(config, **{key: _KEYS[key](value, key) for key, value in raw.items()})
