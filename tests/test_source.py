"""Source-level rules for the library package."""

import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import effham
from effham import eigensolver, hamiltonian, simulator
from effham.presets import (constant_drift, discrete_two_state,
                            two_state_flashing)


def test_no_assert_statements():
    """`python -O` strips asserts, so checks must raise explicitly."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_fourier_coeffs_read_only_by_fields_and_codec():
    """Fourier series are evaluated in `fields.py` only: no other module
    calls `np.cos`/`np.sin` or reads a field's stacked `modes`, and
    `model.py` reads the coefficients for the JSON codec only.  The presets
    may call `np.cos`/`np.sin`: they tabulate a discrete model's rates per
    site and evaluate no field."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr in ("modes", "_modes") or (
                        node.attr == "fourier_coeffs"
                        and path.name != "model.py")):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.Call) and path.name != "presets.py"
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("cos", "sin")
                  and getattr(node.func.value, "id", None) in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    assert not found, f"Fourier series evaluated outside fields.py: {found}"


def test_runtime_imports_numpy_only():
    """numpy is the only runtime dependency: importing scipy alone would
    cost more than the CLI's whole set-up."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported by the library: {found}"


def test_cli_import_leaves_numpy_random_unloaded():
    """`import effham.cli` does not load `numpy.random` (about 7 ms and a
    few MB of set-up): the simulator imports what it needs of it on first
    use.  Run in a fresh interpreter, since the tests load it."""
    src = str(Path(effham.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")]
                                    if p])
    code = ("import sys, effham.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path},
                            check=True, timeout=60)
    assert result.stdout.strip() == "[]", result.stdout


def test_streams_are_built_at_one_philox_call():
    """Every Monte Carlo stream is a `Philox` keyed by (seed, path) with its
    kind in the counter, constructed at one call site; no module hashes
    seeds through numpy's `SeedSequence` or reaches into its
    `bit_generator` module."""
    calls, named = [], []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        named += [f"{path.name} {word}"
                  for word in ("SeedSequence", "numpy.random.bit_generator")
                  if word in text]
        calls += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(text, filename=str(path)))
                  if isinstance(node, ast.Call) and "Philox" in (
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None))]
    assert len(calls) == 1, calls
    assert not named, named


def test_one_point_chain_helpers_called_only_in_chains():
    """Stationary laws are computed on whole lattices by
    `chains.stationary_measures`; the one-point helpers are for users and
    tests, so a per-point loop over them cannot come back."""
    one_point = {"stationary_measure", "generator_at"}
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        if path.name == "chains.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", "")
            if name in one_point or name.startswith("averaged_"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"one-point chain helpers called outside chains.py: {found}"


def test_simulator_builds_trajectories_only_from_records():
    """A run keeps end positions only; `Trajectory` objects are built at one
    call site, in `_Records`, so an endpoint-only path cannot quietly grow a
    per-path object again."""
    path = Path(effham.__file__).parent / "simulator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def calls(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Call) and "Trajectory" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))]

    records = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Records")
    assert len(calls(tree)) == 1 and calls(records) == calls(tree), calls(tree)


def test_warm_starts_come_from_one_helper():
    """Every warm-started solve goes through `hamiltonian._solve_outward`,
    so the start rule (neighbour or extrapolated, CW-guarded) has one home."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # innermost enclosing function of every node (walk is breadth-first)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "principal_eigenpair" in (getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None))
                  and any(kw.arg == "start" for kw in node.keywords)]
    assert found == ["hamiltonian.py:_solve_outward"], found


def test_cyclic_reduction_runs_through_one_shifted_solve():
    """Every shifted solve (the solver's inverse steps, the velocity's
    corrector) goes through `eigensolver._shifted_solve`, so the shift and
    the cyclic reduction are written once."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "_cyclic_solve" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert sorted(found) == ["eigensolver.py:_cyclic_solve",
                             "eigensolver.py:_shifted_solve"], found


def test_eigensolver_solves_densely_only_in_its_kernels():
    """Inside `eigensolver.py`, `np.linalg.solve` is called only by
    `_block_solve` (one slice block) and `_cyclic_solve` (its base of at
    most `_DENSE_BASE` unknowns, or a raw matrix), so no n x n solve of a
    whole operator can creep back in."""
    path = Path(eigensolver.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = [owner.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "solve"
             and getattr(node.func.value, "attr", None) == "linalg"]
    assert sorted(found) == ["_block_solve", "_cyclic_solve"], found


def test_collatz_wielandt_ratios_are_formed_once():
    """Inside `eigensolver.py`, `_apply` is called only by `_bracket` (the
    one CW bracket, for the solver and `collatz_wielandt_bounds` alike) and
    by the certificate's residual, so no second bracket formula comes back."""
    path = Path(eigensolver.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = [owner.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_apply"]
    assert sorted(found) == ["_bracket", "certificate"], found


def test_one_weight_builder_per_model_kind():
    """Every cell operator is built by `_continuous` or `_discrete`, regime
    II as regime I averaged, so no second builder per regime comes back."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "TiltedGenerator" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))]
    assert sorted(found) == ["eigensolver.py:_continuous",
                             "eigensolver.py:_discrete"], found


def test_regime_fallback_lives_in_model():
    """The model's own regime stands in for a missing one only in
    `model.solve_regime`: no other module writes `or model.regime` or reads
    a recorded regime with a fallback, `provenance.get("regime", ...)`."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: {match.group()}" for pattern in (
            r"\bor\s+model\.regime\b", r'provenance\.get\(\s*"regime"\s*,')
            for match in re.finditer(pattern, text)]
    assert not found, found


def test_benchmark_tracer_binds_the_library(monkeypatch):
    """The benchmark's tracer wraps library functions and methods by name,
    and binds the simulators' arguments by name (`eps`, `T`, `dt`), so
    deleting or renaming what it binds fails here, not only in a traced run.
    The step count is not checked: the tracer's default `dt` is its own."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    import tracing

    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        hamiltonian.sweep(constant_drift(), -1.0, 1.0, 3, N=32)
        simulator.simulate_continuous(two_state_flashing(), 0.1, 0.2, seed=1)
        simulator.simulate_discrete(discrete_two_state(), 16, 0.5, seed=1)
        hamiltonian.velocity_of_model(two_state_flashing(), N=32)
    finally:
        tracer.uninstall()
    assert any(span[0] == "eigensolver.principal_eigenpair"
               for span in tracer.spans)
    # the velocity is one left eigensolve, not a finite-difference stencil
    velocity = next(k for k, span in enumerate(tracer.spans)
                    if span[0] == "hamiltonian.velocity_of_model")
    assert sum(span[3] == velocity
               and span[0] == "eigensolver.principal_eigenpair"
               for span in tracer.spans) == 1
    # every solve is sized from the operator's shape, with no dense matrix:
    # the sweep's operators have 32 rows (J = 1), the velocity's 64 (J = 2)
    assert not hasattr(eigensolver.AssembledOperator, "matrix")
    sweep = next(k for k, span in enumerate(tracer.spans)
                 if span[0] == "hamiltonian.sweep")
    sizes = {(span[3], span[4]["n"]) for span in tracer.spans
             if span[0] == "eigensolver.principal_eigenpair"}
    assert sizes == {(sweep, 32), (velocity, 64)}
    info = {span[0]: span[4] for span in tracer.spans
            if span[0].startswith("simulator.")}
    assert set(info["simulator.simulate_continuous"]) == {"steps", "switches"}
    assert set(info["simulator.simulate_discrete"]) == {"events"}
