"""Source-level rules for the library package."""

import ast
import inspect
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
    `model.py` reads the coefficients for the JSON codec and to scale the
    switching rates only.  The presets may call `np.cos`/`np.sin`: they
    tabulate a discrete model's rates per site and evaluate no field."""
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


def test_switching_rate_rule_has_one_home():
    """The switching-rate rule is applied by `chains._switching_findings`
    alone: outside chains.py nothing calls the cut, the coupling test or
    the law kernel behind it, inside it only the check calls the cut, and
    `validate`, both weight builders (through `_check_rates`) and the
    chain helpers (through `_raise_negative`) call the check, so a second
    copy cannot come back."""
    rule = {"negative_rates", "irreducible", "stationary_measures"}
    calls = {"_switching_findings": [], "_check_rates": [],
             "_raise_negative": []}
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", ""))
            site = f"{path.name}:{owner.get(id(node))}"
            if name in calls:
                calls[name].append(site)
            elif name in rule and (path.name != "chains.py" or (
                    name == "negative_rates"
                    and site != "chains.py:_switching_findings")):
                found.append(f"{site} {name}")
    assert not found, found
    assert sorted(calls["_switching_findings"]) == [
        "chains.py:_raise_negative", "eigensolver.py:_check_rates",
        "model.py:validate"], calls
    assert sorted(calls["_check_rates"]) == [
        "eigensolver.py:_continuous", "eigensolver.py:_discrete"], calls
    assert sorted(calls["_raise_negative"]) == [
        "chains.py:averaged_drift", "chains.py:averaged_hop_rates",
        "chains.py:generator_at"], calls


def test_switching_laws_are_averaged_only_by_the_weight_builders():
    """Outside chains.py only the weight builders `eigensolver._continuous`
    and `eigensolver._discrete` solve for switching laws
    (`_measures_or_raise`) or average against them (`state_average`), and
    each solves at most once, so a second averaging path cannot come back."""
    builders = ("eigensolver.py:_continuous", "eigensolver.py:_discrete")
    solves, found = [], []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        if path.name == "chains.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", ""))
            site = f"{path.name}:{owner.get(id(node))}"
            if name not in ("_measures_or_raise", "state_average"):
                continue
            if site not in builders:
                found.append(f"{site} {name}")
            elif name == "_measures_or_raise":
                solves.append(site)
    assert not found, found
    assert len(solves) == len(set(solves)), solves


def test_cli_reads_each_solver_setting_once():
    """In cli.py, `_solver` alone reads a solver block's "regime", "tol"
    and "gamma" ("gamma" is also a key of the simulator's own block), the
    model is validated only by `_require_valid` (for `_solver` and
    `cmd_simulate`) and `cmd_validate`, and `ham.sweep` runs only in
    `_run_sweep` and `cmd_check`, so no command parses its settings or
    validates the model a second time."""
    path = Path(effham.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    keys = [(node.value, owner[id(node)]) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) in owner
            and node.value in ("regime", "tol", "gamma")]
    assert {key for key, func in keys if func == "_solver"} == {
        "regime", "tol", "gamma"}
    assert all(func == "_solver" or (key, func) == ("gamma", "cmd_simulate")
               for key, func in keys), keys
    calls = {"validate": [], "_require_valid": [], "sweep": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            module = getattr(getattr(func, "value", None), "id", None)
            name = getattr(func, "id", None) or (
                getattr(func, "attr", None) if module == "ham" else None)
            if name in calls:
                calls[name].append(owner.get(id(node)))
    assert sorted(calls["validate"]) == ["_require_valid", "cmd_validate"], calls
    assert sorted(calls["_require_valid"]) == ["_solver", "cmd_simulate"], calls
    assert sorted(calls["sweep"]) == ["_run_sweep", "cmd_check"], calls


def test_only_the_switching_transform_takes_a_gamma():
    """The switching scale gamma is a model transform: no function of the
    library but `model.scaled_switching` has a `gamma` parameter, so no
    solver, simulator or CLI path scales the rates on its own."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                  and any(isinstance(arg, ast.arg) and arg.arg == "gamma"
                          for arg in ast.walk(node.args))]
    assert found == ["model.scaled_switching"], found


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
    """Every warm-started solve of a sweep goes through
    `hamiltonian._solve_outward`, so the start rule (neighbour or
    extrapolated, CW-guarded) has one home; the only other start is the
    Gibbs start of the velocity's left solve."""
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
    assert sorted(found) == ["hamiltonian.py:_solve_outward",
                             "hamiltonian.py:velocity_of_model"], found


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


def test_cyclic_reduction_path_is_chosen_by_slice_width_alone():
    """`_cyclic_solve` reduces slices of one unknown as vectors and wider
    slices as blocks, chosen by the shape of its right-hand side: neither
    it nor `_shifted_solve`, its only outside caller, takes a flag, keyword
    or default that could choose a path."""
    for fn, names in ((eigensolver._cyclic_solve, ["D", "U", "L", "f"]),
                      (eigensolver._shifted_solve,
                       ["A", "B", "C", "sigma", "f"])):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params] == names, fn.__name__
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params), fn.__name__


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
    one CW bracket, for the solver and `collatz_wielandt_bounds` alike, whose
    product also gives the certificate's residual), so no second bracket
    formula and no second product per iterate comes back."""
    path = Path(eigensolver.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = [owner.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_apply"]
    assert found == ["_bracket"], found


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


def test_only_the_model_carries_a_regime():
    """The regime is a model field: no function or lambda of the library
    has a `regime` parameter, and none reads a recorded regime back with
    `provenance.get("regime"`, so every solver solves the model's own."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        found += [f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                  and any(isinstance(arg, ast.arg) and arg.arg == "regime"
                          for arg in ast.walk(node.args))]
        found += [f"{path.name}: {match.group()}" for match in re.finditer(
            r'provenance\.get\(\s*"regime"', text)]
    assert not found, found


def test_one_home_forks():
    """`workers.run` is the library's one `os.fork` call site, so the rules
    of a forked child (signals blocked across the fork, `os._exit`, every
    child killed and reaped on every exit path) are written once."""
    found = []
    for path in sorted(Path(effham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "fork" in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))]
    assert found == ["workers.py:run"], found


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
