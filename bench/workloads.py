"""Seeded inputs, CLI commands and output checks of the benchmark workloads.

Every workload is a fixed list of `effham` CLI commands.  The benchmark writes
the seeded model JSON and the configs into a work directory; the program sees
only those files.  After each command the checks below read the artifacts the
CLI wrote and report how many of the command's operations failed.  An
operation is one momentum sample (sweep, legendre, check), one velocity
estimate, or one trajectory batch (one simulate scale).
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

N_GRID = 256          # README's documented grid: 512 unknowns for J = 2
# Not the README's 1e-10: at N = 256 the solver's shift is ~65,600, whose
# ulp is 1.46e-11, and near H = 0 the Collatz-Wielandt gap's round-off floor
# reaches 4-7 ulps (up to 1.02e-10).  At tol 1e-10 some random models never
# stop (e.g. seed 84457904, input set 0, velocity at p = 0.002); a workload at
# 1e-10 has to wait for a solver that stops at its round-off floor.  1e-9
# keeps the same matrices ten times above that floor.
TOL = 1e-9
H0_TOL = 1e-8
L_FLOOR = -1e-6


# ---------------------------------------------------------------------------
# seeded model generators (families of tests/conftest.py, written as JSON)
# ---------------------------------------------------------------------------

def _field(coeffs) -> dict:
    return {"coeffs": [[int(k), float(a), float(b)] for k, a, b in coeffs],
            "slope": []}


def random_potential(rng, band: int = 2, amp: float = 0.6) -> dict:
    """Band-limited periodic potential with mode k amplitudes below amp/k."""
    coeffs = []
    for k in range(1, band + 1):
        a, b = rng.uniform(-amp, amp, size=2) / k
        coeffs.append((k, a, b))
    return _field(coeffs)


def positive_rate(rng, floor: float = 0.2, scale: float = 2.0) -> dict:
    """c + a cos(2 pi (y - phi)) with c - |a| >= floor: strictly positive."""
    c = rng.uniform(floor + 0.3, scale)
    a = rng.uniform(0.0, c - floor)
    s = 2.0 * math.pi * rng.uniform(0.0, 1.0)
    return _field([(0, c, 0.0), (1, a * math.cos(s), a * math.sin(s))])


def random_continuous_model(rng, J: int, regime: str) -> dict:
    return {"kind": "continuous", "dim": 1, "J": J, "regime": regime,
            "period": 1.0,
            "potentials": [random_potential(rng) for _ in range(J)],
            "rates": [[None if i == j else positive_rate(rng)
                       for j in range(J)] for i in range(J)]}


def random_discrete_model(rng, ell: int, J: int, regime: str) -> dict:
    sw = rng.uniform(0.2, 2.0, size=(J, J, ell))
    for i in range(J):
        sw[i, i] = 0.0
    return {"kind": "discrete", "ell": ell, "J": J, "regime": regime,
            "hop_rates_plus": rng.uniform(0.5, 3.0, size=(J, ell)).tolist(),
            "hop_rates_minus": rng.uniform(0.5, 3.0, size=(J, ell)).tolist(),
            "switching": sw.tolist()}


# ---------------------------------------------------------------------------
# output checks: each returns the number of failed operations
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_certificates(out: Path, ops: int) -> int:
    """Per certified row: cw_lower <= H <= cw_upper and a gap within tol."""
    rows = json.loads((out / "certificates.json").read_text())["samples"]
    if len(rows) != ops:
        return ops
    bad = 0
    for row in rows:
        if "failed" in row:
            bad += 1
            continue
        lam, lo, up = row["eigenvalue"], row["cw_lower"], row["cw_upper"]
        if not (lo <= lam <= up and up - lo <= TOL * (1.0 + abs(lam))):
            bad += 1
        elif row["p"] == 0.0 and abs(lam) > H0_TOL:
            bad += 1
    return bad


def check_hamiltonian_csv(out: Path, ops: int) -> int:
    rows = _read_csv(out / "hamiltonian.csv")
    if len(rows) != ops:
        return ops
    bad = sum(1 for r in rows if not math.isfinite(float(r["H"])))
    h0 = [float(r["H"]) for r in rows if float(r["p"]) == 0.0]
    if len(h0) != 1 or not abs(h0[0]) <= H0_TOL:
        bad += 1
    return min(bad, ops)


def check_lagrangian(out: Path, ops: int) -> int:
    bad = check_hamiltonian_csv(out, ops)
    values = [float(r["L"]) for r in _read_csv(out / "lagrangian.csv")]
    if not values or not min(values) >= L_FLOOR:
        return ops
    return bad


def check_velocity(out: Path, ops: int) -> int:
    v = json.loads((out / "velocity.json").read_text())["velocity"]
    return 0 if math.isfinite(v) else ops


def check_verdicts(out: Path, ops: int) -> int:
    """Every check.json verdict passes and |H(0)| stays within H0_TOL."""
    verdict = json.loads((out / "check.json").read_text())
    ok = all(block["pass"] for block in verdict.values())
    ok = ok and abs(verdict["h0"]["value"]) <= H0_TOL
    return 0 if ok else ops


def check_summary(out: Path, ops: int) -> int:
    """Per scale: |mean_v - predicted_v| <= max(3 se, 0.05) (criterion 9)."""
    rows = _read_csv(out / "summary.csv")
    if len(rows) != ops:
        return ops
    return sum(1 for r in rows
               if not abs(float(r["mean_v"]) - float(r["predicted_v"]))
               <= max(3.0 * float(r["se"]), 0.05))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI invocation with its operation count and artifact check."""

    name: str
    argv: tuple
    out: Path
    ops: int
    check: Callable[[Path, int], int]
    path_steps: int = 0      # Euler-Maruyama path-steps, from the config
    samples: int = 0         # H(p) samples the config asks for

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # span names whose union the traced run reports as the dominant share
    dominant: tuple


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def _command(work: Path, name: str, verb: str, cfg: dict, ops: int, check,
             **extra) -> Command:
    cfg_path = _write(work / f"{name}.config.json", cfg)
    out = work / "out" / name
    return Command(name, (verb, "--config", cfg_path, "--out", str(out)),
                   out, ops, check, **extra)


def sweep_1d(work: Path, seed: int, index: int) -> Workload:
    rng = np.random.default_rng([seed, index, 1])
    model = _write(work / "model_j2_regime1.json",
                   random_continuous_model(rng, J=2, regime="I"))
    sweep = {"p_min": -3.0, "p_max": 3.0, "count": 61, "N": N_GRID, "tol": TOL}
    return Workload("sweep_1d", (
        _command(work, "sweep", "sweep",
                 {"model_file": model, "sweep": sweep},
                 61, check_certificates, samples=61),
        _command(work, "legendre", "legendre",
                 {"model_file": model, "sweep": sweep,
                  "legendre": {"v_min": -1.0, "v_max": 1.0, "count": 41}},
                 61, check_lagrangian, samples=61),
        _command(work, "velocity", "velocity",
                 {"model_file": model, "velocity": {"N": N_GRID, "tol": TOL}},
                 1, check_velocity),
    ), dominant=("eigensolver.principal_eigenpair", "eigensolver.assemble"))


def check_regime2(work: Path, seed: int, index: int) -> Workload:
    rng = np.random.default_rng([seed, index, 2])
    cont = _write(work / "model_j3_regime2.json",
                  random_continuous_model(rng, J=3, regime="II"))
    disc = _write(work / "model_disc_j3_ell256_regime2.json",
                  random_discrete_model(rng, ell=256, J=3, regime="II"))
    check = {"N": N_GRID, "tol": TOL, "p_max": 2.0, "count": 21}
    return Workload("check_regime2", tuple(
        _command(work, name, "check", {"model_file": path, "check": check},
                 21, check_verdicts, samples=21)
        for name, path in (("check_continuous", cont),
                           ("check_discrete", disc))),
        dominant=("eigensolver.assemble", "chains."))


def mc_motor(work: Path, seed: int, index: int) -> Workload:
    rng = np.random.default_rng([seed, index, 3])
    sim_seed = int(rng.integers(2 ** 32))
    # criterion 9's 1000 paths and dt.  With 400 paths a 3-SE check failed
    # by chance about once per 100 scales (the eps = 0.1 mean sits ~0.024
    # above DH(0) from the dt bias, with SE ~0.01; n = 16 has SE ~0.024), so
    # runs over many seeds flagged correct programs; at these counts every
    # scale's limit is at least 4 SE away from its expected mean.
    T, paths, disc_paths, dt_factor = 1.0, 1000, 2000, 200.0
    eps = [0.1, 0.05]
    steps = sum(paths * math.ceil(T / (e / dt_factor)) for e in eps)
    return Workload("mc_motor", (
        _command(work, "simulate_continuous", "simulate",
                 {"preset": "two_state_flashing",
                  "simulate": {"scales": eps, "T": T, "paths": paths,
                               "dt_factor": dt_factor, "seed": sim_seed}},
                 len(eps), check_summary, path_steps=steps),
        _command(work, "simulate_discrete", "simulate",
                 {"preset": "discrete_two_state",
                  "simulate": {"scales": [16, 32, 64], "T": T,
                               "paths": disc_paths, "seed": sim_seed}},
                 3, check_summary),
    ), dominant=("simulator.",))


WORKLOADS = {w.__name__: w for w in (sweep_1d, check_regime2, mc_motor)}


def input_sets(name: str, work: Path, seed: int, count: int) -> List[Workload]:
    """`count` seeded input sets of one workload; round r runs set r % count,
    so a run's median averages over several models, not one."""
    sets = []
    for index in range(count):
        folder = work / f"inputs{index}"
        folder.mkdir(parents=True)
        sets.append(WORKLOADS[name](folder, seed, index))
    return sets


def warmup_command(work: Path, workload: Workload) -> Command:
    """A small sweep on the workload's first model: one-time interpreter and
    BLAS start-up lands in set-up, not in the first timed command."""
    cfg = json.loads(Path(workload.commands[0].argv[2]).read_text())
    source = {k: cfg[k] for k in ("model_file", "preset") if k in cfg}
    return _command(work, "warmup", "sweep",
                    {**source, "sweep": {"p_min": -1.0, "p_max": 1.0,
                                         "count": 3, "N": 64, "tol": TOL}},
                    3, check_certificates)
