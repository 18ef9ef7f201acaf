"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands: sweep, velocity, legendre, simulate, check, validate.
Exit codes: 0 success, 2 invalid config or model (`model.InputError`),
3 numerical failure.  Outputs are deterministic given the config
(stochastic commands: given the seed), so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import chains, hamiltonian as ham, simulator
from .model import (REGIMES, ContinuousModel, InputError, fits_float, integer,
                    json_object, load_model, model_from_dict, number,
                    read_json, scaled_switching, validate)
from .presets import PRESETS, get_preset

log = logging.getLogger("effham.cli")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# the keys each command's config block may hold
_BLOCK_KEYS = {
    "sweep": {"p_min", "p_max", "count", "N", "tol", "gamma", "regime"},
    "legendre": {"v_min", "v_max", "count"},
    "velocity": {"N", "tol", "gamma", "regime"},
    "simulate": {"scales", "T", "dt_factor", "paths", "seed", "predicted_v",
                 "N", "gamma", "dump_trajectories"},
    "check": {"p_max", "count", "N", "tol", "gamma", "regime"},
}
_TOP_KEYS = {"model", "model_file", "preset", "out", *_BLOCK_KEYS}


def _block(cfg: dict, name: str, required: bool) -> dict:
    """The config's `name` block, its keys checked against `_BLOCK_KEYS`;
    an absent block is an error when `required` and empty otherwise."""
    block = cfg.get(name, None if required else {})
    if block is None and required:
        raise InputError(f'config is missing the "{name}" block')
    return json_object(block, _BLOCK_KEYS[name], f'"{name}" block')


def _value(block: dict, key: str, where: str, default):
    """block[key] (or `default` when absent); a null value is missing."""
    value = block.get(key, default)
    if value is None:
        raise InputError(f'{where} is missing "{key}"')
    return value


def _integer(block: dict, key: str, where: str, default=None, **bounds) -> int:
    """block[key] (or `default` when absent) by the rule `model.integer`
    (`bounds`: at_least, at_most)."""
    return integer(_value(block, key, where, default), f'{where}: "{key}"',
                   **bounds)


def _real(block: dict, key: str, where: str, default=None, *,
          positive: bool = False) -> float:
    """block[key] (or `default` when absent) by the rule `model.number`:
    finite, and > 0 when `positive`."""
    return number(_value(block, key, where, default), f'{where}: "{key}"',
                  finite=True, positive=positive)


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    return json_object(read_json(path, "config"), _TOP_KEYS, "config")


def _text(cfg: dict, key: str) -> Optional[str]:
    """cfg[key] as a string, or None when it is absent or null."""
    value = cfg.get(key)
    if value is not None and not isinstance(value, str):
        raise InputError(f'config: "{key}" must be a string, got {value!r}')
    return value


def resolve_model(cfg: dict, preset: Optional[str]):
    name = preset or _text(cfg, "preset")
    if name is not None:
        return get_preset(name)
    if "model" in cfg:
        return model_from_dict(cfg["model"])
    model_file = _text(cfg, "model_file")
    if model_file is not None:
        return load_model(Path(model_file))
    raise InputError("no model: provide --preset, or a config with "
                     '"model" / "model_file"')


def _require_valid(model, scale: float, where: str):
    """`model` with its switching `scale` times faster, once it is valid;
    an overflowing scale or an invalid model is a config error."""
    try:
        model = scaled_switching(model, scale)
    except ValueError as exc:
        raise InputError(f'{where}: "gamma" must be small enough for finite '
                         f"switching rates, got {scale!r} ({exc})") from exc
    report = validate(model)
    if report:
        lines = "\n".join(f"  - {v}" for v in report)
        raise InputError(f"model fails validation:\n{lines}")
    return model


def _solver(model, block: dict, where: str) -> tuple:
    """The model a command block solves, in the block's "regime" (default
    the model's own; see `_require_valid`), and its solver settings, as
    keywords of `ham.sweep` and `ham.velocity_of_model`."""
    regime = block.get("regime")
    if regime is None:
        regime = model.regime
    elif regime not in REGIMES:
        raise InputError(f'{where}: "regime" must be one of {list(REGIMES)}, '
                         f"got {regime!r}")
    settings = {"N": _integer(block, "N", where, 128, at_least=3),
                "tol": _real(block, "tol", where, 1e-10, positive=True)}
    scale = _real(block, "gamma", where, 1.0, positive=True)
    return _require_valid(replace(model, regime=regime), scale, where), settings


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _certificates_json(table: ham.HamiltonianTable) -> dict:
    rows = []
    for k, p in enumerate(table.p_grid):
        cert = table.certificates[k]
        if cert is None:
            row = {"p": float(p), "failed": table.failures.get(k, "unknown")}
        else:
            row = {"p": float(p), "eigenvalue": cert.eigenvalue,
                   "residual": cert.residual, "cw_lower": cert.cw_lower,
                   "cw_upper": cert.cw_upper, "iterations": cert.iterations,
                   "fallbacks": cert.fallbacks}
        rows.append({**row, "start": table.starts[k]})
    return {"provenance": table.provenance, "samples": rows}


def _run_sweep(model, cfg: dict, outdir: Path) -> ham.HamiltonianTable:
    """Sweep the "sweep" block's momenta and write hamiltonian.csv."""
    where = '"sweep" block'
    block = _block(cfg, "sweep", True)
    p_min, p_max = _real(block, "p_min", where), _real(block, "p_max", where)
    if not p_max > p_min:
        raise InputError(f'{where}: "p_max" must be greater than "p_min"')
    count = _integer(block, "count", where, at_least=3)
    model, solver = _solver(model, block, where)
    table = ham.sweep(model, p_min, p_max, count, **solver)
    table.to_csv(outdir / "hamiltonian.csv")
    return table


def cmd_sweep(cfg: dict, model, outdir: Path) -> int:
    table = _run_sweep(model, cfg, outdir)
    _write_json(outdir / "certificates.json", _certificates_json(table))
    if table.failures:
        log.error("%d sweep sample(s) failed", len(table.failures))
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_velocity(cfg: dict, model, outdir: Path) -> int:
    model, solver = _solver(model, _block(cfg, "velocity", False),
                            '"velocity" block')
    v, err = ham.velocity_of_model(model, **solver)
    # floats for a 1-D model, lists for d > 1
    _write_json(outdir / "velocity.json",
                {"velocity": np.asarray(v).tolist(),
                 "error_estimate": np.asarray(err).tolist(), "N": solver["N"]})
    return EXIT_OK


def cmd_legendre(cfg: dict, model, outdir: Path) -> int:
    where = '"legendre" block'
    block = _block(cfg, "legendre", True)
    v_min, v_max = _real(block, "v_min", where), _real(block, "v_max", where)
    count = _integer(block, "count", where, at_least=1)
    if count > 1 and not v_max > v_min:
        raise InputError(f'{where}: "v_max" must be greater than "v_min"')
    v_grid = np.linspace(v_min, v_max, count)
    table = _run_sweep(model, cfg, outdir)
    if table.failures:
        log.error("sweep failures prevent the transform")
        return EXIT_NUMERICAL
    lag = ham.legendre(table, v_grid)
    lag.to_csv(outdir / "lagrangian.csv")
    return EXIT_OK


def cmd_simulate(cfg: dict, model, outdir: Path,
                 seed_override: Optional[int] = None) -> int:
    where = '"simulate" block'
    block = _block(cfg, "simulate", True)
    if seed_override is None and block.get("seed") is None:
        raise InputError("stochastic command needs a seed (config or --seed)")
    # the seed is the first word of every Philox key (a group of 64 paths)
    source, name = ((block, where) if seed_override is None
                    else ({"seed": seed_override}, "--seed"))
    seed = _integer(source, "seed", name, at_least=0, at_most=2**64 - 1)
    scales = block.get("scales")
    if not (isinstance(scales, list) and scales and all(
            fits_float(s) and math.isfinite(s) for s in scales)):
        raise InputError(f'{where}: "scales" must be a non-empty array of '
                         f"finite numbers, got {scales!r}")
    T = _real(block, "T", where, positive=True)
    paths = _integer(block, "paths", where, at_least=1)
    solver_n = _integer(block, "N", where, 128, at_least=3)
    dt_factor = _real(block, "dt_factor", where, simulator.DT_FACTOR,
                      positive=True)
    try:
        simulator.experiment_scales(model, scales, dt_factor)
    except (ValueError, NotImplementedError) as exc:
        raise InputError(f'"simulate" block: {exc}') from exc
    scale = _real(block, "gamma", where, 1.0, positive=True)
    predicted_v = (None if block.get("predicted_v") is None
                   else _real(block, "predicted_v", where))
    dump = block.get("dump_trajectories", False)
    if not isinstance(dump, bool):
        raise InputError(f'{where}: "dump_trajectories" must be true or '
                         f"false, got {dump!r}")
    model = _require_valid(model, scale, where)
    report = simulator.concentration_experiment(
        model, scales, T, paths, seed, predicted_v=predicted_v,
        dt_factor=dt_factor, solver_n=solver_n)
    report.to_csv(outdir / "summary.csv")
    if dump:
        for row in report.rows:
            if isinstance(model, ContinuousModel):
                tr = simulator.simulate_continuous(
                    model, row.scale, T, row.scale / dt_factor, seed=seed)
            else:
                tr = simulator.simulate_discrete(model, int(row.scale), T,
                                                 seed=seed)
            tr.to_csv(outdir / f"trajectory_scale_{row.scale:g}.csv")
    return EXIT_OK


def cmd_check(cfg: dict, model, outdir: Path) -> int:
    where = '"check" block'
    block = _block(cfg, "check", False)
    p_max = _real(block, "p_max", where, 2.0, positive=True)
    count = _integer(block, "count", where, 21, at_least=3)
    model, solver = _solver(model, block, where)
    table = ham.sweep(model, -p_max, p_max, count, **solver)
    if table.failures:
        log.error("sweep failures during check")
        return EXIT_NUMERICAL
    h0 = abs(table.value_at(0.0))
    h0_tol = 1e-6 if isinstance(model, ContinuousModel) else 1e-8
    conv, conv_at = ham.convexity_report(table)
    sym = ham.symmetry_check(table)
    coer = ham.coercivity_check(table, model)
    if isinstance(model, ContinuousModel):
        holds, violation = chains.detailed_balance_report(model)
        db = {"applicable": True, "holds": holds, "max_violation": violation,
              "pass": bool((not holds) or sym <= 1e-6)}
    else:
        db = {"applicable": False, "holds": None, "max_violation": None,
              "pass": True}
    verdict = {
        "h0": {"value": h0, "pass": bool(h0 <= h0_tol)},
        "convexity": {"max_violation": conv, "at_p": conv_at,
                      "pass": bool(conv <= 1e-6)},
        "symmetry": {"max_residual": sym,
                     "pass": bool(sym <= 1e-6 or not db.get("holds", False))},
        "coercivity": {"min_margin": coer.min_margin, "pass": coer.passed},
        "detailed_balance": db,
    }
    _write_json(outdir / "check.json", verdict)
    return EXIT_OK


def cmd_validate(cfg: dict, model, outdir: Path) -> int:
    report = validate(model)
    obj = {"valid": not report,
           "violations": [{"kind": v.kind, "location": v.location,
                           "detail": v.detail} for v in report]}
    _write_json(outdir / "validation.json", obj)
    for v in report:
        log.error("%s", v)
    return EXIT_OK if not report else EXIT_INVALID


_COMMANDS = {
    "sweep": cmd_sweep,
    "velocity": cmd_velocity,
    "legendre": cmd_legendre,
    "simulate": cmd_simulate,
    "check": cmd_check,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effham",
        description="Effective Hamiltonians of switching Markov processes")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output directory (default: cwd or config)")
    parser.add_argument("--preset", help="named model preset: "
                        + ", ".join(sorted(PRESETS)))
    parser.add_argument("--seed", type=int, help="seed override for simulate")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        model = resolve_model(cfg, args.preset)
        outdir = Path(args.out or _text(cfg, "out") or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file in the way
            raise InputError(f"cannot create output directory {outdir}: "
                             f"{exc.strerror or exc}") from exc
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    command = _COMMANDS[args.command]
    try:
        if args.command == "simulate":
            return command(cfg, model, outdir, seed_override=args.seed)
        return command(cfg, model, outdir)
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    except Exception as exc:   # solver and simulation failures
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
