"""End-to-end CLI: files, exit codes, determinism."""

import json

import numpy as np
import pytest

from effham.cli import main
from effham.model import model_to_dict
from effham.presets import get_preset


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


def test_simulate_without_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path, {
        "simulate": {"scales": [20], "T": 0.5, "paths": 10}})
    assert main(["simulate", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    # --seed supplies the missing seed
    assert main(["simulate", "--preset", "discrete_asymmetric", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--seed", "7"]) == 0


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
