"""In-memory span tracer installed from the benchmark's side.

`Tracer.install()` rebinds, in each of the eight acqroc modules, every
public function (names in a module's `__all__`, plus `cli.main`) and every
function a module imports from another acqroc module, to a wrapper that
records a span: name, parent span, start and end.  Nothing in `src/` is
edited; `uninstall()` puts the original objects back.  A span's layer is
the module that defines the function, so a layer's self time is the time
spent in that module's code between calls into other layers.

While `record_cli` is a list, the wrappers bound in `acqroc.cli` also
append each call's result to it, so the CLI command can later be replayed
with every library call answered from the recording (`replay_cli`).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import types
from time import perf_counter

LAYERS = ("cli", "config", "numerics", "analytic", "oracle", "validate",
          "simulator", "prncode")
PACKAGE = "acqroc"


def layer_modules() -> dict[str, types.ModuleType]:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def _traced_functions(modules: dict[str, types.ModuleType]):
    """Yield (namespace module, global name, function, layer) for every
    binding the tracer wraps."""
    owner = {mod.__name__: layer for layer, mod in modules.items()}
    public = set()
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ["main"]):
            obj = getattr(mod, name, None)
            if isinstance(obj, types.FunctionType):
                public.add(obj)
    for ns_layer, ns in modules.items():
        for name, obj in list(vars(ns).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            layer = owner.get(obj.__module__)
            if layer is None:
                continue
            if obj in public or layer != ns_layer:
                yield ns, name, obj, layer


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, parent index or -1, start, end); an open span holds None
        self.spans: list = []
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self.record_cli: list | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (pass, step, probe)."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self._name_id(name), parent, t0, t1)

    def _wrap(self, fn, name: str, from_cli: bool):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (nid, parent, t0, t1)
            if from_cli and tracer.record_cli is not None:
                tracer.record_cli.append((fn.__name__, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every traced binding."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        cli_mod = modules["cli"]
        for ns, name, fn, layer in list(_traced_functions(modules)):
            self._saved.append((ns, name, fn))
            setattr(ns, name, self._wrap(fn, f"{layer}.{fn.__name__}", ns is cli_mod))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._saved):
            setattr(ns, name, fn)
        self._saved.clear()

    def self_time_by_layer(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per layer over spans[lo:hi]: each span's duration minus
        the time its child spans cover."""
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            _, parent, t0, t1 = self.spans[i]
            if parent >= lo:
                child_time[parent - lo] += t1 - t0
        out: dict[str, float] = {}
        for i in range(lo, hi):
            nid, _, t0, t1 = self.spans[i]
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child_time[i - lo]
        return out

    def durations(self, lo: int, hi: int, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [s[3] - s[2] for s in self.spans[lo:hi] if s[0] == nid]

    def count_by_name(self, lo: int, hi: int) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans[lo:hi]:
            name = self.names[s[0]]
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path: str, summary: dict) -> None:
        """Write the summary and every span (times relative to the first)."""
        t_ref = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "summary": summary,
                "span_fields": ["name", "parent", "start_us", "end_us"],
                "names": self.names,
                "spans": [[n, p, round((a - t_ref) * 1e6), round((b - t_ref) * 1e6)]
                          for n, p, a, b in self.spans],
            }, fh, separators=(",", ":"))


def replay_cli(cli_mod: types.ModuleType, argv: list[str], calls: list) -> float:
    """Run cli.main(argv) with each library function it calls answered from
    `calls` (name, result) in recorded order; returns the seconds taken,
    i.e. the CLI's own work: argument parsing, row assembly, CSV formatting
    and the atomic write."""
    names = {name for name, _ in calls}
    saved = {name: getattr(cli_mod, name) for name in names}
    feed = iter(calls)

    def answer(name):
        def replayed(*args, **kwargs):
            got, result = next(feed)
            if got != name:
                raise RuntimeError(f"replay out of order: {name} called, {got} recorded")
            return result
        return replayed

    try:
        for name in names:
            setattr(cli_mod, name, answer(name))
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_mod.main(list(argv))
        elapsed = perf_counter() - t0
    finally:
        for name, fn in saved.items():
            setattr(cli_mod, name, fn)
    if rc not in (0, 1) or next(feed, None) is not None:
        raise RuntimeError(f"replay of {argv[0]} did not consume its recording")
    return elapsed
