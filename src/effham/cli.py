"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands: sweep, velocity, legendre, simulate, check, validate.
Exit codes: 0 success, 2 invalid config or model, 3 numerical failure.
Outputs are deterministic given the config (stochastic commands: given the
seed), so reruns produce bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import chains, hamiltonian as ham, simulator
from .model import (ContinuousModel, ModelFormatError, load_model,
                    model_from_dict, validate)
from .presets import PRESETS, get_preset

log = logging.getLogger("effham.cli")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_TOP_KEYS = {"model", "model_file", "preset", "out", "sweep", "legendre",
             "velocity", "simulate", "check"}
_SWEEP_KEYS = {"p_min", "p_max", "count", "N", "tol", "gamma", "regime"}
_LEGENDRE_KEYS = {"v_min", "v_max", "count"}
_VELOCITY_KEYS = {"delta", "N", "tol", "gamma", "regime"}
_SIMULATE_KEYS = {"scales", "T", "dt_factor", "paths", "seed", "predicted_v",
                  "N", "gamma", "dump_trajectories"}
_CHECK_KEYS = {"grid", "p_max", "count", "N", "tol", "gamma", "regime"}


class ConfigError(ValueError):
    pass


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def resolve_model(cfg: dict, preset: Optional[str]):
    name = preset or cfg.get("preset")
    if name is not None:
        try:
            return get_preset(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if "model" in cfg:
        return model_from_dict(cfg["model"])
    if "model_file" in cfg:
        path = Path(cfg["model_file"])
        if not path.exists():
            raise ConfigError(f"model file {path} does not exist")
        return load_model(path)
    raise ConfigError("no model: provide --preset, or a config with "
                      '"model" / "model_file"')


def _require_valid(model) -> None:
    report = validate(model)
    if report:
        lines = "\n".join(f"  - {v}" for v in report)
        raise ConfigError(f"model fails validation:\n{lines}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _certificates_json(table: ham.HamiltonianTable) -> dict:
    rows = []
    for k, p in enumerate(table.p_grid):
        cert = table.certificates[k]
        if cert is None:
            rows.append({"p": float(p), "failed": table.failures.get(k, "unknown")})
        else:
            rows.append({"p": float(p), "eigenvalue": cert.eigenvalue,
                         "residual": cert.residual, "cw_lower": cert.cw_lower,
                         "cw_upper": cert.cw_upper,
                         "iterations": cert.iterations,
                         "fallbacks": cert.fallbacks})
    return {"provenance": table.provenance, "samples": rows}


def _run_sweep(model, block: dict) -> ham.HamiltonianTable:
    _check_keys(block, _SWEEP_KEYS, '"sweep" block')
    try:
        p_min = float(block["p_min"])
        p_max = float(block["p_max"])
        count = int(block["count"])
    except KeyError as exc:
        raise ConfigError(f'"sweep" block is missing {exc}') from exc
    return ham.sweep(model, p_min, p_max, count,
                     regime=block.get("regime"),
                     N=int(block.get("N", 128)),
                     tol=float(block.get("tol", 1e-10)),
                     gamma=float(block.get("gamma", 1.0)))


def cmd_sweep(cfg: dict, model, outdir: Path) -> int:
    block = cfg.get("sweep")
    if block is None:
        raise ConfigError('sweep command needs a "sweep" config block')
    table = _run_sweep(model, block)
    table.to_csv(outdir / "hamiltonian.csv")
    _write_json(outdir / "certificates.json", _certificates_json(table))
    if table.failures:
        log.error("%d sweep sample(s) failed", len(table.failures))
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_velocity(cfg: dict, model, outdir: Path) -> int:
    block = cfg.get("velocity", {})
    _check_keys(block, _VELOCITY_KEYS, '"velocity" block')
    v, err = ham.velocity_of_model(model, regime=block.get("regime"),
                                   delta=float(block.get("delta", 1e-3)),
                                   N=int(block.get("N", 128)),
                                   tol=float(block.get("tol", 1e-10)),
                                   gamma=float(block.get("gamma", 1.0)))
    _write_json(outdir / "velocity.json",
                {"velocity": v, "error_estimate": err,
                 "delta": float(block.get("delta", 1e-3)),
                 "N": int(block.get("N", 128))})
    return EXIT_OK


def cmd_legendre(cfg: dict, model, outdir: Path) -> int:
    sweep_block = cfg.get("sweep")
    block = cfg.get("legendre")
    if sweep_block is None or block is None:
        raise ConfigError('legendre command needs "sweep" and "legendre" blocks')
    _check_keys(block, _LEGENDRE_KEYS, '"legendre" block')
    try:
        v_grid = np.linspace(float(block["v_min"]), float(block["v_max"]),
                             int(block["count"]))
    except KeyError as exc:
        raise ConfigError(f'"legendre" block is missing {exc}') from exc
    if len(v_grid) == 0:
        raise ConfigError("empty velocity grid")
    table = _run_sweep(model, sweep_block)
    table.to_csv(outdir / "hamiltonian.csv")
    if table.failures:
        log.error("sweep failures prevent the transform")
        return EXIT_NUMERICAL
    lag = ham.legendre(table, v_grid)
    lag.to_csv(outdir / "lagrangian.csv")
    return EXIT_OK


def cmd_simulate(cfg: dict, model, outdir: Path,
                 seed_override: Optional[int] = None) -> int:
    block = cfg.get("simulate")
    if block is None:
        raise ConfigError('simulate command needs a "simulate" config block')
    _check_keys(block, _SIMULATE_KEYS, '"simulate" block')
    seed = seed_override if seed_override is not None else block.get("seed")
    if seed is None:
        raise ConfigError("stochastic command needs a seed (config or --seed)")
    try:
        scales = [float(s) for s in block["scales"]]
        T = float(block["T"])
        paths = int(block["paths"])
    except KeyError as exc:
        raise ConfigError(f'"simulate" block is missing {exc}') from exc
    if not scales or paths < 1 or T <= 0:
        raise ConfigError("simulate block has an empty or invalid range")
    dt_factor = float(block.get("dt_factor", simulator.DT_FACTOR))
    gamma = float(block.get("gamma", 1.0))
    report = simulator.concentration_experiment(
        model, scales, T, paths, int(seed),
        predicted_v=block.get("predicted_v"), dt_factor=dt_factor, gamma=gamma,
        solver_n=int(block.get("N", 128)))
    report.to_csv(outdir / "summary.csv")
    if block.get("dump_trajectories", False):
        for row in report.rows:
            if isinstance(model, ContinuousModel):
                tr = simulator.simulate_continuous(
                    model, row.scale, T, row.scale / dt_factor, seed=int(seed),
                    gamma=gamma)
            else:
                tr = simulator.simulate_discrete(
                    model, int(row.scale), T, seed=int(seed), gamma=gamma)
            tr.to_csv(outdir / f"trajectory_scale_{row.scale:g}.csv")
    return EXIT_OK


def cmd_check(cfg: dict, model, outdir: Path) -> int:
    block = cfg.get("check", {})
    _check_keys(block, _CHECK_KEYS, '"check" block')
    N = int(block.get("N", 128))
    tol = float(block.get("tol", 1e-10))
    gamma = float(block.get("gamma", 1.0))
    p_max = float(block.get("p_max", 2.0))
    count = int(block.get("count", 21))
    grid = int(block.get("grid", 256))
    regime = block.get("regime")

    table = ham.sweep(model, -p_max, p_max, count, regime=regime, N=N, tol=tol,
                      gamma=gamma)
    if table.failures:
        log.error("sweep failures during check")
        return EXIT_NUMERICAL
    h0 = abs(table.value_at(0.0))
    h0_tol = 1e-6 if isinstance(model, ContinuousModel) else 1e-8
    conv, conv_at = ham.convexity_report(table)
    sym = ham.symmetry_check(table)
    coer = ham.coercivity_check(table, model)
    if isinstance(model, ContinuousModel):
        holds, violation = chains.detailed_balance_report(model, grid)
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
        if args.command != "validate":
            _require_valid(model)
        outdir = Path(args.out or cfg.get("out") or ".")
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ModelFormatError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    command = _COMMANDS[args.command]
    try:
        if args.command == "simulate":
            return command(cfg, model, outdir, seed_override=args.seed)
        return command(cfg, model, outdir)
    except (ConfigError, ModelFormatError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    except Exception as exc:   # solver and simulation failures
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
