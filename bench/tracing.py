"""Layer spans for the traced run, installed on the program from outside.

`Tracer.install()` replaces the public functions of each effham layer, in
every effham module namespace that binds them, with wrappers that record a
span: name, start, end and parent.  A few hot scalar methods only bump a
counter.  `uninstall()` puts the originals back, so the timed (untraced)
rounds run the program exactly as shipped.  Spans stay in memory; the
per-layer metrics are computed from them, self time included.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import Counter

import numpy as np

from effham import chains, cli, eigensolver, hamiltonian, model, simulator
from effham.fields import PeriodicScalarField
from effham.model import SwitchingRateMatrix

# span name -> function; every effham namespace binding the function is patched
_FUNCTIONS = {
    "cli.main": cli.main,
    "model.validate": model.validate,
    **{f"chains.{name}": getattr(chains, name)
       for name in ("generator_at", "stationary_measure", "averaged_hop_rates",
                    "averaged_drift", "detailed_balance_report")},
    **{f"eigensolver.{name}": getattr(eigensolver, name)
       for name in ("assemble_continuous_I", "assemble_continuous_II",
                    "assemble_discrete_I", "assemble_discrete_II",
                    "principal_eigenpair")},
    **{f"hamiltonian.{name}": getattr(hamiltonian, name)
       for name in ("sweep", "hamiltonian_at", "velocity_of_model", "legendre",
                    "convexity_report", "symmetry_check", "coercivity_check")},
    "simulator.simulate_continuous": simulator.simulate_continuous,
    "simulator.simulate_discrete": simulator.simulate_discrete,
}
# (class, method) -> span name, or counter name for the hot scalar paths
_GRID_METHODS = ("values", "periodic_values", "gradients")
_COUNTED_METHODS = {(PeriodicScalarField, "value"): "fields.point_evals",
                    (SwitchingRateMatrix, "rates_at"): "model.rates_at_calls"}

_DIAGNOSTICS = ("hamiltonian.convexity_report", "hamiltonian.symmetry_check",
                "hamiltonian.coercivity_check", "chains.detailed_balance_report")
_SOLVE = "eigensolver.principal_eigenpair"
_ASSEMBLE = "eigensolver.assemble"
_CONT = "simulator.simulate_continuous"
_DISC = "simulator.simulate_discrete"
_CONT_SIGNATURE = inspect.signature(simulator.simulate_continuous)

# every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "model.validate_s": "s",
    "model.rates_at_calls": "count",
    "fields.point_evals": "count",
    "fields.grid_points": "count",
    "fields.grid_s": "s",
    "chains.stationary_calls": "count",
    "chains.stationary_s": "s",
    "chains.generator_s": "s",
    "eigensolver.assemble_calls": "count",
    "eigensolver.assemble_s": "s",
    "eigensolver.assemble_ms_p50": "ms",
    "eigensolver.solve_calls": "count",
    "eigensolver.solve_s": "s",
    "eigensolver.solve_ms_p50": "ms",
    "eigensolver.solve_ms_p75": "ms",
    "eigensolver.iterations": "count",
    "eigensolver.dense_solves": "count",
    "eigensolver.lu_gflop_computed": "GFLOP",
    "eigensolver.matrix_mb_computed": "MB",
    "eigensolver.failed": "count",
    "hamiltonian.sweep_self_s": "s",
    "hamiltonian.velocity_s": "s",
    "hamiltonian.legendre_s": "s",
    "hamiltonian.diagnostics_s": "s",
    "simulator.cont_paths": "count",
    "simulator.cont_s": "s",
    "simulator.cont_path_steps": "count",
    "simulator.cont_us_per_step": "us",
    "simulator.switches": "count",
    "simulator.disc_paths": "count",
    "simulator.disc_s": "s",
    "simulator.disc_events": "count",
    "simulator.disc_us_per_event": "us",
    "trace.dominant_share": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _matrix_size(args) -> int:
    return getattr(args[0], "matrix", args[0]).shape[0]


def _span_info(name, args, kwargs, result):
    """Per-span facts the layer metrics need (None for most spans)."""
    if name == _SOLVE:
        return {"n": _matrix_size(args), "iterations": result.iterations}
    if name == _CONT:
        bound = _CONT_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        eps, T, dt = (bound.arguments[k] for k in ("eps", "T", "dt"))
        dt = eps / 20.0 if dt is None else dt
        return {"steps": math.ceil(T / dt), "switches": result.switch_count}
    if name == _DISC:
        return {"events": len(result.times) - 2}
    if name == "fields.grid":
        return {"points": len(args[1])}
    return None


class Tracer:
    """Records spans as [name, start, end, parent index, info, error], timed
    by `clock`: a perf_counter that leaves out the benchmark's own work."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0,
                   stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                if name == _SOLVE:
                    cert = getattr(exc, "certificate", None)
                    rec[4] = {"n": _matrix_size(args),
                              "iterations": getattr(cert, "iterations", 0)}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _span_info(name, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dense_solve_wrapper(self, fn):
        """numpy.linalg.solve counted only inside an eigensolve span."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            if any(spans[k][0] == _SOLVE for k in stack):
                n = np.shape(a)[-1]
                counts["dense_solves"] += 1
                counts["lu_flop"] += 2.0 * n ** 3 / 3.0
            return fn(a, b, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        wrappers = {fn: self._span_wrapper(name, fn)
                    for name, fn in _FUNCTIONS.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "effham"
                                         or name.startswith("effham."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for method in _GRID_METHODS:
            self._patch(PeriodicScalarField, method, self._span_wrapper(
                "fields.grid", getattr(PeriodicScalarField, method)))
        for (cls, method), counter in _COUNTED_METHODS.items():
            self._patch(cls, method,
                        self._counter_wrapper(counter, getattr(cls, method)))
        self._patch(np.linalg, "solve", self._dense_solve_wrapper(np.linalg.solve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write(self, path, round_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for k, (name, start, end, parent, info, error) in enumerate(self.spans):
                fh.write(json.dumps({"round": round_index, "id": k,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent, "info": info,
                                     "error": error}) + "\n")

    def layer_metrics(self, wall: float, dominant: tuple) -> dict:
        """Per-layer metrics of one traced round whose wall time is `wall`."""
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans])
        self_time = dur.copy()
        for k, s in enumerate(spans):
            if s[3] >= 0:
                self_time[s[3]] -= dur[k]

        def pick(test):
            return [k for k, s in enumerate(spans) if test(s[0])]

        def total(idx, times=dur):
            return float(np.sum(times[idx])) if idx else 0.0

        def pct(idx, q):
            return float(np.percentile(dur[idx], q)) * 1e3 if idx else 0.0

        def info_sum(idx, key):
            return sum(spans[k][4][key] for k in idx if spans[k][4])

        solve = pick(lambda n: n == _SOLVE)
        assemble = pick(lambda n: n.startswith(_ASSEMBLE))
        cont, disc = pick(lambda n: n == _CONT), pick(lambda n: n == _DISC)
        grid = pick(lambda n: n == "fields.grid")
        stationary = pick(lambda n: n == "chains.stationary_measure")
        cont_s, disc_s = total(cont), total(disc)
        steps = info_sum(cont, "steps")
        events = info_sum(disc, "events")
        sizes = [spans[k][4]["n"] for k in solve if spans[k][4]]

        # share of the wall covered by the dominant layers (outermost spans)
        is_dominant = [s[0].startswith(dominant) for s in spans]
        covered = 0.0
        for k, s in enumerate(spans):
            if not is_dominant[k]:
                continue
            parent = s[3]
            while parent >= 0 and not is_dominant[parent]:
                parent = spans[parent][3]
            if parent < 0:
                covered += dur[k]

        return {
            "cli.self_s": total(pick(lambda n: n == "cli.main"), self_time),
            "model.validate_s": total(pick(lambda n: n == "model.validate")),
            "model.rates_at_calls": self.counts["model.rates_at_calls"],
            "fields.point_evals": self.counts["fields.point_evals"],
            "fields.grid_points": info_sum(grid, "points"),
            "fields.grid_s": total(grid),
            "chains.stationary_calls": len(stationary),
            "chains.stationary_s": total(stationary),
            "chains.generator_s": total(pick(lambda n: n == "chains.generator_at")),
            "eigensolver.assemble_calls": len(assemble),
            "eigensolver.assemble_s": total(assemble),
            "eigensolver.assemble_ms_p50": pct(assemble, 50),
            "eigensolver.solve_calls": len(solve),
            "eigensolver.solve_s": total(solve),
            "eigensolver.solve_ms_p50": pct(solve, 50),
            "eigensolver.solve_ms_p75": pct(solve, 75),
            "eigensolver.iterations": info_sum(solve, "iterations"),
            "eigensolver.dense_solves": self.counts["dense_solves"],
            "eigensolver.lu_gflop_computed": self.counts["lu_flop"] / 1e9,
            "eigensolver.matrix_mb_computed": 8.0 * max(sizes, default=0) ** 2 / 1e6,
            "eigensolver.failed": sum(1 for k in solve + assemble
                                      if spans[k][5] is not None),
            "hamiltonian.sweep_self_s": total(pick(lambda n: n in (
                "hamiltonian.sweep", "hamiltonian.hamiltonian_at")), self_time),
            "hamiltonian.velocity_s": total(
                pick(lambda n: n == "hamiltonian.velocity_of_model")),
            "hamiltonian.legendre_s": total(pick(lambda n: n == "hamiltonian.legendre")),
            "hamiltonian.diagnostics_s": total(pick(lambda n: n in _DIAGNOSTICS)),
            "simulator.cont_paths": len(cont),
            "simulator.cont_s": cont_s,
            "simulator.cont_path_steps": steps,
            "simulator.cont_us_per_step": cont_s / steps * 1e6 if steps else 0.0,
            "simulator.switches": info_sum(cont, "switches"),
            "simulator.disc_paths": len(disc),
            "simulator.disc_s": disc_s,
            "simulator.disc_events": events,
            "simulator.disc_us_per_event": disc_s / events * 1e6 if events else 0.0,
            "trace.dominant_share": covered / wall,
        }

