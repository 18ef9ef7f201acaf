"""End-to-end CLI: files, exit codes, determinism."""

import json
import math
import sys

import numpy as np
import pytest

from effham import cli, hamiltonian, simulator, workers
from effham.cli import main
from effham.model import model_to_dict
from effham.presets import get_preset

from conftest import record_forks, two_dim_model


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_sweep_constant_drift_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": -3.0, "p_max": 3.0, "count": 61, "N": 256}})
    out = tmp_path / "out"
    code = main(["sweep", "--preset", "constant_drift", "--config", cfg,
                 "--out", str(out)])
    assert code == 0
    data = np.genfromtxt(out / "hamiltonian.csv", delimiter=",", names=True)
    closed = 0.5 * (data["p"] + 1.0) ** 2 - 0.5
    assert np.max(np.abs(data["H"] - closed)) <= 1e-3
    certs = json.loads((out / "certificates.json").read_text())
    assert len(certs["samples"]) == 61
    assert all(row["fallbacks"] == 0 for row in certs["samples"])


def test_sweep_rerun_bit_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": -1.0, "p_max": 1.0, "count": 9}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["sweep", "--preset", "discrete_two_state", "--config", cfg,
                     "--out", str(out)]) == 0
    assert (out1 / "hamiltonian.csv").read_bytes() == \
        (out2 / "hamiltonian.csv").read_bytes()
    assert (out1 / "certificates.json").read_bytes() == \
        (out2 / "certificates.json").read_bytes()


@pytest.mark.parametrize("preset", ["two_state_flashing", "discrete_two_state"])
def test_commands_write_the_same_artifacts_on_one_core_and_two(
        tmp_path, monkeypatch, preset):
    """`sweep`, `legendre` and `check` write byte-identical artifacts with
    their sweep in one process and, with the fork threshold forced low, in
    two."""
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(hamiltonian, "_FORK_WORK", 1)
    sweep = {"p_min": -1.5, "p_max": 2.0, "count": 9, "N": 64}
    cfg = write_config(tmp_path, {
        "sweep": sweep, "legendre": {"v_min": -0.5, "v_max": 0.5, "count": 5},
        "check": {"p_max": 1.5, "count": 9, "N": 64}})
    for command in ("sweep", "legendre", "check"):
        artifacts = []
        for cores in (1, 2):
            monkeypatch.setattr(workers, "_cores", lambda: cores)
            forked.clear()
            out = tmp_path / f"{command}-{cores}"
            assert main([command, "--preset", preset, "--config", cfg,
                         "--out", str(out)]) == 0
            assert len(forked) == cores - 1
            artifacts.append({path.name: path.read_bytes()
                              for path in out.iterdir()})
        assert artifacts[0] == artifacts[1] and artifacts[0], command


def test_certificates_record_each_start(tmp_path):
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": -2.0, "p_max": 2.0, "count": 9}})
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "discrete_two_state", "--config", cfg,
                 "--out", str(out)]) == 0
    rows = json.loads((out / "certificates.json").read_text())["samples"]
    starts = [row["start"] for row in rows]
    assert starts[3:6] == ["neighbour", "cold", "neighbour"]
    assert starts[:3] == ["extrapolated:4", "extrapolated:3", "extrapolated:2"]
    assert starts[6:] == ["extrapolated:2", "extrapolated:3", "extrapolated:4"]


def test_sweep_grid_missing_zero_is_augmented(tmp_path, caplog):
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": 0.25, "p_max": 1.0, "count": 4}})
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(out)]) == 0
    data = np.genfromtxt(out / "hamiltonian.csv", delimiter=",", names=True)
    assert np.any(data["p"] == 0.0)
    assert len(data) == 5


def test_invalid_model_exits_2(tmp_path):
    model = model_to_dict(get_preset("discrete_asymmetric"))
    model["hop_rates_plus"][0][1] = 0.0
    cfg = write_config(tmp_path, {"model": model,
                                  "sweep": {"p_min": -1, "p_max": 1, "count": 5}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"swep": {"p_min": -1, "p_max": 1, "count": 5}})
    assert main(["sweep", "--preset", "constant_drift", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_preset_exits_2(tmp_path):
    assert main(["sweep", "--preset", "nonesuch",
                 "--out", str(tmp_path / "o")]) == 2


def test_solver_failure_exits_3(tmp_path):
    # N = 8 cannot resolve the drift of constant_drift(6) at |p| = 3
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": -3.0, "p_max": 3.0, "count": 7, "N": 8}})
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "constant_drift", "--config",
                 write_config(tmp_path, {
                     "model": model_to_dict(get_preset("constant_drift"))}),
                 "--out", str(out)]) == 2   # missing sweep block -> invalid
    cfg_model = {"model": model_to_dict(get_preset("constant_drift"))}
    cfg_model["model"]["potentials"][0]["slope"] = [-6.0]
    cfg_model["sweep"] = {"p_min": -3.0, "p_max": 3.0, "count": 7, "N": 8}
    code = main(["sweep", "--config", write_config(tmp_path, cfg_model, "m.json"),
                 "--out", str(out)])
    assert code == 3
    data = np.genfromtxt(out / "hamiltonian.csv", delimiter=",", names=True)
    assert np.isnan(data["H"]).any() and not np.isnan(data["H"]).all()


@pytest.mark.parametrize("command", ["legendre", "check"])
def test_failed_sweep_sample_exits_3(tmp_path, command):
    """The slope -6, N = 8 model of `test_solver_failure_exits_3` fails
    some samples; `legendre` still writes the table it swept."""
    cfg = {"model": model_to_dict(get_preset("constant_drift"))}
    cfg["model"]["potentials"][0]["slope"] = [-6.0]
    if command == "legendre":
        cfg["sweep"] = {"p_min": -3.0, "p_max": 3.0, "count": 7, "N": 8}
        cfg["legendre"] = {"v_min": -1.0, "v_max": 1.0, "count": 5}
    else:
        cfg["check"] = {"p_max": 3.0, "count": 7, "N": 8}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert not (out / "lagrangian.csv").exists()
    assert not (out / "check.json").exists()
    if command == "legendre":
        data = np.genfromtxt(out / "hamiltonian.csv", delimiter=",",
                             names=True)
        assert len(data) == 7
        assert np.isnan(data["H"]).any() and not np.isnan(data["H"]).all()


def test_legendre_velocity_range_must_increase(tmp_path, caplog):
    sweep = {"p_min": -3.0, "p_max": 3.0, "count": 13, "N": 64}
    out = tmp_path / "out"
    for count, code in ((5, 2), (1, 0)):
        cfg = write_config(tmp_path, {
            "sweep": sweep,
            "legendre": {"v_min": 1.0, "v_max": 0.0, "count": count}})
        assert main(["legendre", "--preset", "constant_drift", "--config",
                     cfg, "--out", str(out)]) == code
    assert '"legendre" block: "v_max" must be greater than "v_min"' in caplog.text
    # one velocity needs no range
    lines = (out / "lagrangian.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1,")


def test_velocity_command(tmp_path):
    out = tmp_path / "out"
    assert main(["velocity", "--preset", "constant_drift",
                 "--out", str(out)]) == 0
    obj = json.loads((out / "velocity.json").read_text())
    assert obj["velocity"] == pytest.approx(1.0, abs=1e-4)


def test_legendre_command_quadratic(tmp_path):
    cfg = write_config(tmp_path, {
        "sweep": {"p_min": -3.0, "p_max": 3.0, "count": 121, "N": 256},
        "legendre": {"v_min": -1.0, "v_max": 1.0, "count": 21}})
    out = tmp_path / "out"
    assert main(["legendre", "--preset", "constant_drift", "--config", cfg,
                 "--out", str(out)]) == 0
    data = np.genfromtxt(out / "lagrangian.csv", delimiter=",", names=True)
    closed = 0.5 * (1.0 - data["v"]) ** 2
    assert np.max(np.abs(data["L"] - closed)) <= 1e-5
    assert not data["boundary_flag"].any()


def test_simulate_command(tmp_path):
    cfg = write_config(tmp_path, {
        "simulate": {"scales": [20, 40], "T": 1.0, "paths": 150, "seed": 99,
                     "predicted_v": 1.0}})
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "epsilon,mean_v,sd,se,predicted_v,verdict"
    assert all(line.endswith("pass") for line in lines[1:])


def test_simulate_without_seed_exits_2(tmp_path, caplog):
    cfg = write_config(tmp_path, {
        "simulate": {"scales": [20], "T": 0.5, "paths": 10}})
    assert main(["simulate", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    # --seed supplies the missing seed, if it lies in [0, 2**64)
    for seed in ("-1", str(2**64)):
        assert main(["simulate", "--preset", "discrete_asymmetric", "--config",
                     cfg, "--out", str(tmp_path / "o"), "--seed", seed]) == 2
    assert '--seed: "seed" must be at most 18446744073709551615' in caplog.text
    assert not (tmp_path / "o" / "summary.csv").exists()
    assert main(["simulate", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--seed", "7"]) == 0


@pytest.mark.parametrize("preset,change", [
    ("discrete_asymmetric", {"scales": [16.5, 32]}),
    ("discrete_asymmetric", {"scales": [0, 16]}),
    ("constant_drift", {"scales": [0.1, 0.0]}),
    ("constant_drift", {"scales": [0.05, 0.1]}),
    ("discrete_asymmetric", {"scales": [32, 16]}),
    ("constant_drift", {"dt_factor": 5.0}),
    ("constant_drift", {"T": math.inf}),
], ids=["n-not-integer", "n-below-1", "eps-not-positive", "eps-not-refining",
        "n-not-refining", "dt-above-eps-over-10", "T-not-finite"])
def test_simulate_bad_block_exits_2_before_any_stream(tmp_path, monkeypatch,
                                                      preset, change):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(simulator, "_stream", refuse)
    scales = [0.2, 0.1] if preset == "constant_drift" else [10, 20]
    cfg = write_config(tmp_path, {"simulate": {
        "scales": scales, "T": 0.5, "paths": 10, "seed": 1, "predicted_v": 1.0,
        **change}})
    out = tmp_path / "out"
    assert main(["simulate", "--preset", preset, "--config", cfg,
                 "--out", str(out)]) == 2
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("command,key,value", [
    ("sweep", "count", 5.5), ("sweep", "N", True),
    ("legendre", "count", 20.5), ("velocity", "N", 64.5),
    ("check", "count", 21.5), ("check", "N", "128"), ("check", "grid", 64.5),
    ("simulate", "seed", 1.5), ("simulate", "paths", 10.7),
    ("simulate", "paths", True), ("simulate", "N", 64.5),
])
def test_non_integer_config_value_exits_2(tmp_path, caplog, monkeypatch,
                                          command, key, value):
    """Integer keys are not truncated: a fractional number, a bool or a
    string is rejected with exit 2, naming its block and key, before any
    solve or stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "_stream", refuse)
    monkeypatch.setattr(cli.ham, "sweep", refuse)
    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    blocks = {"sweep": {"p_min": -1.0, "p_max": 1.0, "count": 5},
              "legendre": {"v_min": -1.0, "v_max": 1.0, "count": 5},
              "simulate": {"scales": [10, 20], "T": 0.5, "paths": 10, "seed": 1}}
    blocks[command] = {**blocks.get(command, {}), key: value}
    out = tmp_path / "out"
    assert main([command, "--preset", "discrete_asymmetric", "--config",
                 write_config(tmp_path, blocks), "--out", str(out)]) == 2
    assert f'"{command}" block: "{key}" must be an integer' in caplog.text
    assert not any(out.iterdir())


@pytest.mark.parametrize("command,key,value,rule", [
    ("sweep", "p_min", math.nan, "a finite number"),
    ("sweep", "p_max", "1.0", "a finite number"),
    ("sweep", "p_max", -2.0, 'greater than "p_min"'),
    ("sweep", "count", 2, "at least 3"),
    ("sweep", "tol", math.nan, "a positive finite number"),
    ("sweep", "gamma", -1.0, "a positive finite number"),
    ("sweep", "gamma", True, "a positive finite number"),
    ("legendre", "v_max", math.inf, "a finite number"),
    ("velocity", "gamma", -1.0, "a positive finite number"),
    ("velocity", "tol", 0.0, "a positive finite number"),
    ("check", "p_max", -1.0, "a positive finite number"),
    ("check", "count", 2, "at least 3"),
    ("check", "gamma", "2", "a positive finite number"),
    ("simulate", "gamma", -1.0, "a positive finite number"),
    ("simulate", "T", -0.5, "a positive finite number"),
    ("simulate", "dt_factor", math.nan, "a positive finite number"),
    ("simulate", "predicted_v", math.inf, "a finite number"),
    ("sweep", "N", 2, "at least 3"),
    ("velocity", "N", 2, "at least 3"),
    ("check", "N", 2, "at least 3"),
    ("check", "grid", -5, "at least 1"),
    ("simulate", "N", 2, "at least 3"),
    ("simulate", "seed", -1, "at least 0"),
    ("simulate", "scales", ["a"], "a non-empty array of finite numbers"),
    ("simulate", "scales", 0.1, "a non-empty array of finite numbers"),
    ("simulate", "scales", [True], "a non-empty array of finite numbers"),
    ("simulate", "scales", [], "a non-empty array of finite numbers"),
    ("simulate", "dump_trajectories", "no", "true or false"),
    ("simulate", "seed", 2**64, "at most 18446744073709551615"),
    ("simulate", "seed", 2.0**64, "at most 18446744073709551615"),
    pytest.param("simulate", "seed", 10**400, "at most 18446744073709551615",
                 id="simulate-seed-10**400-at most 18446744073709551615"),
    *(pytest.param(command, key, value, rule, id=f"{command}-{key}-10**400")
      for command, key, value, rule in [
          ("velocity", "N", 10**400, f"at most {sys.maxsize}"),
          ("simulate", "paths", 10**400, f"at most {sys.maxsize}"),
          ("sweep", "p_min", -10**400, "a finite number"),
          ("check", "p_max", 10**400, "a positive finite number"),
          ("simulate", "T", 10**400, "a positive finite number"),
          ("simulate", "scales", [10**400],
           "a non-empty array of finite numbers")]),
    ("sweep", "gamma", 1e308, "small enough for finite switching rates"),
    ("simulate", "gamma", 1e308, "small enough for finite switching rates"),
])
def test_bad_real_config_value_exits_2(tmp_path, caplog, monkeypatch,
                                       command, key, value, rule):
    """Real-valued keys are checked like the integer ones: a value that is
    not finite (or not positive, where the key needs it), a bool or a
    string, too few sweep samples, an empty momentum range, an integer out
    of its range (N < 3, grid < 1, a seed outside [0, 2**64), which would
    not fit a Philox key word, any other count above `sys.maxsize`, which
    would not fit an index) and scales that are not a
    non-empty array of finite numbers, and a "dump_trajectories" that is
    not a JSON bool exit 2, naming the block and key, before any solve or
    stream.  A real value too large for a float is not finite, and a
    "gamma" that scales a switching rate beyond the float range is too
    large (the model switches, so its rates can overflow)."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "_stream", refuse)
    monkeypatch.setattr(cli.ham, "sweep", refuse)
    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    blocks = {"sweep": {"p_min": -1.0, "p_max": 1.0, "count": 5},
              "legendre": {"v_min": -1.0, "v_max": 1.0, "count": 5},
              "simulate": {"scales": [10, 20], "T": 0.5, "paths": 10, "seed": 1}}
    blocks[command] = {**blocks.get(command, {}), key: value}
    out = tmp_path / "out"
    assert main([command, "--preset", "discrete_two_state", "--config",
                 write_config(tmp_path, blocks), "--out", str(out)]) == 2
    assert f'"{command}" block: "{key}" must be {rule}' in caplog.text
    assert not any(out.iterdir())


@pytest.mark.parametrize("command,block,value,message", [
    ("velocity", "velocity", 5, '"velocity" block must be a JSON object'),
    ("check", "check", None, '"check" block must be a JSON object'),
    ("legendre", "legendre", 3, '"legendre" block must be a JSON object'),
    ("sweep", "sweep", [1], '"sweep" block must be a JSON object'),
    ("simulate", "simulate", "x", '"simulate" block must be a JSON object'),
    ("velocity", "velocity", {"delta": 1e-3},
     """unknown keys ['delta'] in "velocity" block"""),
], ids=["velocity-number", "check-null", "legendre-number", "sweep-list",
        "simulate-string", "velocity-delta"])
def test_bad_config_block_exits_2(tmp_path, caplog, monkeypatch, command,
                                  block, value, message):
    """A command block that is not a JSON object, or that holds a key the
    command does not read (the velocity has no step "delta"), exits 2
    before any solve or stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "_stream", refuse)
    monkeypatch.setattr(cli.ham, "sweep", refuse)
    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    blocks = {"sweep": {"p_min": -1.0, "p_max": 1.0, "count": 5},
              block: value}
    out = tmp_path / "out"
    assert main([command, "--preset", "discrete_asymmetric", "--config",
                 write_config(tmp_path, blocks), "--out", str(out)]) == 2
    assert message in caplog.text
    assert not any(out.iterdir())


@pytest.mark.parametrize("case,message", [
    pytest.param(case, message, id=case) for case, message in [
        ("model_file-number", 'config: "model_file" must be a string'),
        ("preset-list", 'config: "preset" must be a string'),
        ("out-number", 'config: "out" must be a string'),
        ("model_file-directory", "cannot read model file"),
        ("model_file-not-utf8", "cannot read model file"),
        ("config-directory", "cannot read config file"),
        ("config-not-utf8", "cannot read config file")]])
def test_bad_top_level_input_exits_2(tmp_path, caplog, monkeypatch, case,
                                     message):
    """A top-level path or name that is not a string, and a config or model
    file that cannot be read as UTF-8 text, exit 2 before any solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"preset": "constant_drift", "note": "\xe9"}')
    configs = {"model_file-number": {"model_file": 5},
               "preset-list": {"preset": ["x"]},
               "out-number": {"preset": "constant_drift", "out": 5},
               "model_file-directory": {"model_file": str(folder)},
               "model_file-not-utf8": {"model_file": str(latin1)}}
    config = (write_config(tmp_path, configs[case]) if case in configs
              else str(folder if case == "config-directory" else latin1))
    assert main(["velocity", "--config", config]) == 2
    assert message in caplog.text
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["folder", "latin1.json"] + (["cfg.json"] if case in configs else []))


def test_model_file_sweeps_like_its_preset(tmp_path):
    """A model read from "model_file" sweeps to the same bytes as the
    preset it was written from."""
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(model_to_dict(
        get_preset("two_state_flashing"))))
    sweep = {"p_min": -1.0, "p_max": 1.0, "count": 5, "N": 32}
    by_file, by_preset = tmp_path / "file", tmp_path / "preset"
    assert main(["sweep", "--config", write_config(tmp_path, {
        "model_file": str(model_file), "sweep": sweep}),
        "--out", str(by_file)]) == 0
    assert main(["sweep", "--preset", "two_state_flashing", "--config",
                 write_config(tmp_path, {"sweep": sweep}, "preset.json"),
                 "--out", str(by_preset)]) == 0
    assert (by_file / "hamiltonian.csv").read_bytes() == \
        (by_preset / "hamiltonian.csv").read_bytes()


@pytest.mark.parametrize("case,message", [
    ("model-file-absent", "does not exist"),
    ("model-file-not-json", "invalid JSON in"),
    ("config-absent", "does not exist"),
    ("config-not-json", "invalid JSON in"),
    ("no-model", "no model: provide --preset"),
])
def test_missing_or_broken_input_exits_2(tmp_path, caplog, monkeypatch, case,
                                         message):
    """A config or model file that does not exist or is not JSON, and a run
    with no model at all, exit 2 before any solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    absent, broken = tmp_path / "absent.json", tmp_path / "broken.json"
    broken.write_text('{"kind": "continuous",')
    if case.startswith("model-file"):
        model_file = absent if case == "model-file-absent" else broken
        config = ["--config", write_config(tmp_path,
                                           {"model_file": str(model_file)})]
    else:
        config = {"config-absent": ["--config", str(absent)],
                  "config-not-json": ["--config", str(broken)],
                  "no-model": []}[case]
    out = tmp_path / "out"
    assert main(["velocity", *config, "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_at_a_file_exits_2(tmp_path, caplog, monkeypatch, below):
    """An `--out` that names an existing file, or a path below one, is a
    config error, logged without a traceback, before any solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "sub" if below else afile
    assert main(["velocity", "--preset", "constant_drift",
                 "--out", str(out)]) == 2
    assert f"cannot create output directory {out}: " in caplog.text
    assert "Traceback" not in caplog.text
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("command,blocks,missing", [
    ("sweep", {}, "sweep"),
    ("legendre", {"sweep": {"p_min": -1.0, "p_max": 1.0, "count": 5}},
     "legendre"),
    ("legendre", {"legendre": {"v_min": -1.0, "v_max": 1.0, "count": 5}},
     "sweep"),
    ("simulate", {}, "simulate"),
], ids=["sweep", "legendre-without-legendre", "legendre-without-sweep",
        "simulate"])
def test_missing_block_exits_2(tmp_path, caplog, monkeypatch, command,
                               blocks, missing):
    """Every block a command needs is reported missing in one wording,
    before any solve or stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "_stream", refuse)
    monkeypatch.setattr(cli.ham, "sweep", refuse)
    out = tmp_path / "out"
    assert main([command, "--preset", "discrete_asymmetric", "--config",
                 write_config(tmp_path, blocks), "--out", str(out)]) == 2
    assert f'config is missing the "{missing}" block' in caplog.text
    assert not any(out.iterdir())


def test_solver_error_in_a_command_exits_3(tmp_path, caplog):
    """An exception a solver raises inside a command is a numerical
    failure, exit 3: N = 8 cannot resolve the drift of slope -10."""
    cfg = {"model": model_to_dict(get_preset("constant_drift")),
           "velocity": {"N": 8}}
    cfg["model"]["potentials"][0]["slope"] = [-10.0]
    out = tmp_path / "out"
    assert main(["velocity", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert "numerical failure: PecletError" in caplog.text
    assert not any(out.iterdir())


def malformed_model(case: str) -> dict:
    """A model description that names one defect `case`."""
    model = model_to_dict(get_preset("two_state_flashing"))
    mode = model["potentials"][0]["coeffs"][0]     # [k, a, b]
    discrete = model_to_dict(get_preset("discrete_two_state"))
    if case == "ell-fraction":
        return {**discrete, "ell": 6.5}
    if case == "ell-10**400":
        return {**discrete, "ell": 10**400}
    if case.startswith("hop-rate-"):
        discrete["hop_rates_plus"][0][1] = {"hop-rate-bool": True,
                                            "hop-rate-10**400": 10**400}[case]
        return discrete
    if case == "dim-zero":
        return {"kind": "continuous", "dim": 0, "J": 1, "regime": "I",
                "potentials": [{"coeffs": [], "slope": []}], "rates": [[None]]}
    if case == "period-negative":
        model["period"] = -1
    elif case == "period-bool":
        model["period"] = True
    elif case == "period-string":
        model["period"] = "2"
    elif case == "wave-number-fraction":
        mode[0] = 0.5
    elif case == "wave-number-bool":
        mode[0] = True
    elif case == "amplitude-string":
        mode[1] = "a"
    elif case == "amplitude-numeric-string":
        mode[1] = "0.5"
    elif case == "amplitude-nan":
        mode[1] = math.nan
    elif case == "amplitude-10**400":
        mode[1] = 10**400
    elif case == "dim-10**400":
        model["dim"] = 10**400
    elif case == "slope-1e400":
        model["potentials"][0]["slope"] = ["1e400"]   # a number in the file
    elif case == "slope-bool":
        model["potentials"][0]["slope"] = [True]
    return model


@pytest.mark.parametrize("case,message", [
    pytest.param(case, message, id=case) for case, message in [
        ("ell-fraction", '"ell" must be an integer, got 6.5'),
        ("dim-zero", "field dimension must be >= 1, got 0"),
        ("period-negative", "field period must be positive and finite"),
        ("wave-number-fraction", "wave vectors must be integer"),
        ("wave-number-bool", "wave number must be a number, got True"),
        ("period-bool", '"period" must be a number, got True'),
        ("period-string", """"period" must be a number, got '2'"""),
        ("amplitude-string", "amplitude must be a number, got 'a'"),
        ("amplitude-numeric-string", "amplitude must be a number, got '0.5'"),
        ("slope-bool", "slope must be a number, got True"),
        ("hop-rate-bool", '"hop_rates_plus" must be a number, got True'),
        ("amplitude-nan", "Fourier amplitudes and affine slope must be finite"),
        ("slope-1e400", "Fourier amplitudes and affine slope must be finite"),
        ("ell-10**400", f'"ell" must be an integer, got {10**400}'),
        ("dim-10**400", f'"dim" must be an integer, got {10**400}'),
        ("amplitude-10**400", f"amplitude must be a number, got {10**400}"),
        ("hop-rate-10**400",
         f'"hop_rates_plus" must be a number, got {10**400}')]])
def test_malformed_model_exits_2(tmp_path, caplog, monkeypatch, case,
                                 message):
    """A model that cannot be built exits 2 before any solve: a count with a
    fractional part is not truncated, a number given as a bool or a string
    is not converted, and a field with a bad period, dimension, wave number
    or amplitude, or a non-finite amplitude or slope, is a malformed model,
    not a traceback (exit 1) or a numerical failure (exit 3).  So is an
    integer too large for a float, as a count or as a number."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.ham, "velocity_of_model", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": malformed_model(case)}).replace(
        '"1e400"', "1e400"))
    out = tmp_path / "out"
    assert main(["velocity", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


def test_velocity_command_in_two_dimensions(tmp_path):
    """d = 2: velocity.json holds 2-lists, one component per axis."""
    cfg = write_config(tmp_path, {"model": model_to_dict(two_dim_model()),
                                  "velocity": {"N": 16}})
    out = tmp_path / "out"
    assert main(["velocity", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "velocity.json").read_text())
    assert set(obj) == {"velocity", "error_estimate", "N"}
    assert len(obj["velocity"]) == len(obj["error_estimate"]) == 2
    assert all(abs(v) > 0.1 for v in obj["velocity"])
    assert all(0.0 <= err <= 1e-10 for err in obj["error_estimate"])


def test_check_detailed_balance_preset(tmp_path):
    out = tmp_path / "out"
    assert main(["check", "--preset", "detailed_balance_pair",
                 "--out", str(out)]) == 0
    verdict = json.loads((out / "check.json").read_text())
    for key in ("h0", "convexity", "symmetry", "coercivity", "detailed_balance"):
        assert verdict[key]["pass"], key
    assert verdict["detailed_balance"]["holds"]


def test_check_discrete_model(tmp_path):
    out = tmp_path / "out"
    assert main(["check", "--preset", "discrete_asymmetric",
                 "--out", str(out)]) == 0
    verdict = json.loads((out / "check.json").read_text())
    assert verdict["h0"]["pass"] and verdict["coercivity"]["pass"]
    assert not verdict["detailed_balance"]["applicable"]
    assert verdict["detailed_balance"]["pass"]


def test_simulate_continuous_preset(tmp_path):
    cfg = write_config(tmp_path, {
        "simulate": {"scales": [0.2, 0.1], "T": 0.5, "paths": 80, "seed": 5,
                     "predicted_v": 1.0}})
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "constant_drift", "--config", cfg,
                 "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("preset,scales", [("constant_drift", [0.2, 0.1]),
                                           ("discrete_asymmetric", [10, 20])])
def test_simulate_dumps_one_trajectory_per_scale(tmp_path, preset, scales):
    T = 0.5
    cfg = write_config(tmp_path, {
        "simulate": {"scales": scales, "T": T, "paths": 20, "seed": 3,
                     "predicted_v": 1.0, "dump_trajectories": True}})
    out = tmp_path / "out"
    assert main(["simulate", "--preset", preset, "--config", cfg,
                 "--out", str(out)]) == 0
    dumps = sorted(out.glob("trajectory_scale_*.csv"))
    assert [p.name for p in dumps] == sorted(
        f"trajectory_scale_{s:g}.csv" for s in scales)
    for path in dumps:
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_lifted,i"
        assert float(lines[1].split(",")[0]) == 0.0
        assert float(lines[-1].split(",")[0]) == T


def test_check_motor_preset_reports_asymmetry(tmp_path):
    out = tmp_path / "out"
    assert main(["check", "--preset", "two_state_flashing",
                 "--out", str(out)]) == 0
    verdict = json.loads((out / "check.json").read_text())
    assert verdict["h0"]["pass"] and verdict["convexity"]["pass"]
    assert not verdict["detailed_balance"]["holds"]
    assert verdict["symmetry"]["max_residual"] > 1e-3


def test_validate_command(tmp_path):
    out = tmp_path / "out"
    assert main(["validate", "--preset", "two_state_flashing",
                 "--out", str(out)]) == 0
    model = model_to_dict(get_preset("discrete_asymmetric"))
    model["hop_rates_plus"][0][0] = -1.0
    cfg = write_config(tmp_path, {"model": model})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "validation.json").read_text())
    assert not report["valid"]
    assert report["violations"][0]["kind"] == "nonpositive_hop_rate"


def test_validation_judges_the_scaled_rates(tmp_path, caplog):
    """A command validates the model it solves, its switching scaled by
    "gamma".  The rate r12 dips to -9.0e-13 at y = 0.5, inside the round-off
    cut -1e-12 max(1, max|r|), so the model itself is valid; scaled by 1000
    it dips to -9.0e-10, below the scaled cut -5e-10, and exits 2 before any
    solve (it used to sweep, its build judging the unscaled rates)."""
    model = model_to_dict(get_preset("two_state_flashing"))
    model["rates"][0][1] = {"coeffs": [[0, 0.25 - 4.5e-13, 0.0],
                                       [1, 0.25 + 4.5e-13, 0.0]]}
    model["rates"][1][0] = {"coeffs": [[0, 1.0, 0.0]]}
    out = tmp_path / "out"
    sweep = {"p_min": -1.0, "p_max": 1.0, "count": 3}
    assert main(["validate", "--config", write_config(tmp_path, {
        "model": model}), "--out", str(out)]) == 0
    assert main(["sweep", "--config", write_config(tmp_path, {
        "model": model, "sweep": sweep}), "--out", str(out)]) == 0
    caplog.clear()
    assert main(["sweep", "--config", write_config(tmp_path, {
        "model": model, "sweep": {**sweep, "gamma": 1000.0}}),
        "--out", str(tmp_path / "scaled")]) == 2
    assert "negative switching rate -9.0" in caplog.text
    assert "y=(0.5)" in caplog.text
    assert not (tmp_path / "scaled" / "hamiltonian.csv").exists()


def test_regime2_validation_exits_2(tmp_path):
    """two_state_flashing in regime II is rejected at y = 0.125 and 0.5,
    where its switching chain is reducible, before any solve (was exit 3)."""
    model = model_to_dict(get_preset("two_state_flashing"))
    model["regime"] = "II"
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": model, "sweep": {"p_min": -1.0, "p_max": 1.0, "count": 3}})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "validation.json").read_text())
    assert [(v["kind"], v["location"]) for v in report["violations"]] == [
        ("reducible_switching", "y=(0.125)"), ("reducible_switching", "y=(0.5)")]
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    # the same preset, solved in regime II by a config override
    override = write_config(tmp_path, {
        "sweep": {"p_min": -1.0, "p_max": 1.0, "count": 3, "regime": "II"}},
        "override.json")
    assert main(["sweep", "--preset", "two_state_flashing", "--config",
                 override, "--out", str(out)]) == 2
    unknown = write_config(tmp_path, {
        "velocity": {"regime": "III"}}, "unknown.json")
    assert main(["velocity", "--preset", "constant_drift", "--config",
                 unknown, "--out", str(out)]) == 2


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_overflowing_exit_rate_exits_2(tmp_path, caplog, command):
    """A J = 3, ell = 4 model with every rate 1, scaled by 1e308: each
    switching rate is finite, but a state's two of them sum past the float
    range, so the scaled model is refused (was NaN sweeps and exit 3)."""
    sw = np.ones((3, 3, 4))
    model = {"kind": "discrete", "ell": 4, "J": 3, "regime": "I",
             "hop_rates_plus": np.ones((3, 4)).tolist(),
             "hop_rates_minus": np.ones((3, 4)).tolist(),
             "switching": sw.tolist()}
    blocks = {"sweep": {"p_min": -1.0, "p_max": 1.0, "count": 3,
                        "gamma": 1e308},
              "simulate": {"scales": [10, 20], "T": 0.5, "paths": 10,
                           "seed": 1, "gamma": 1e308}}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, {
        "model": model, command: blocks[command]}), "--out", str(out)]) == 2
    assert (f'"{command}" block: "gamma" must be small enough for finite '
            "switching rates") in caplog.text
    assert "total exit rate" in caplog.text
    assert not any(out.iterdir())


def test_check_regime_override_reaches_every_verdict(tmp_path):
    """The check block's "regime" solves the model in that regime for every
    verdict, coercivity included: check.json equals, byte for byte, the one
    of the same model with its own regime set to II."""
    model = model_to_dict(get_preset("discrete_two_state"))
    override, own = tmp_path / "override", tmp_path / "own"
    assert main(["check", "--config", write_config(tmp_path, {
        "model": model, "check": {"regime": "II"}}, "override.json"),
        "--out", str(override)]) == 0
    assert main(["check", "--config", write_config(tmp_path, {
        "model": {**model, "regime": "II"}}, "own.json"),
        "--out", str(own)]) == 0
    assert ((override / "check.json").read_bytes()
            == (own / "check.json").read_bytes())
    plain = tmp_path / "plain"
    assert main(["check", "--preset", "discrete_two_state",
                 "--out", str(plain)]) == 0
    assert ((plain / "check.json").read_bytes()
            != (own / "check.json").read_bytes())
