import json
import shutil
import subprocess
import time

import numpy as np
import pytest

from crnflow.cli import main

AB_TEXT = "species A B\nreaction r1: A <-> B ; kf=2 kr=1\n"
BRUSS_TEXT = (
    "species X1 X2\n"
    "reaction r1: 0 <-> X1 ; kf=1 kr=1\n"
    "reaction r2: X1 <-> X2 ; kf=3 kr=0.1\n"
    "reaction r3: 2 X1 + X2 <-> 3 X1 ; kf=1 kr=0.1\n"
)


def _scenario(tmp_path, name="scen.json", **data):
    data.setdefault("network_text", AB_TEXT)
    data.setdefault("x0", [1.0, 1.0])
    data.setdefault("t_end", 5.0)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(tmp_path, command, scenario, *extra):
    out = tmp_path / "out"
    code = main([command, "--scenario", scenario, "--out", str(out), *extra])
    return code, out


def test_info_prints_structure(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT)
    code, out = _run(tmp_path, "info", scen)
    assert code == 0
    text = capsys.readouterr().out
    assert "species (2): X1 X2" in text
    assert "edges (3): r1 r2 r3" in text
    assert "nonequilibrium" in text
    assert not out.exists()  # info is stdout-only


def test_info_equilibrium_verdict(tmp_path, capsys):
    scen = _scenario(tmp_path)
    code, _ = _run(tmp_path, "info", scen)
    assert code == 0
    assert "equilibrium (max cycle affinity 0)" in capsys.readouterr().out


def test_simulate_writes_trajectory(tmp_path, capsys):
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 5, "num": 21})
    code, out = _run(tmp_path, "simulate", scen)
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,x_A,x_B,D,")
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(2 / 3, abs=1e-6)
    assert "final state:" in capsys.readouterr().out


def test_equilibrium_projection(tmp_path, capsys):
    scen = _scenario(tmp_path)
    code, out = _run(tmp_path, "equilibrium", scen)
    assert code == 0
    data = json.loads((out / "equilibrium.json").read_text())
    assert data["x_eq"][0] == pytest.approx(2 / 3, abs=1e-10)
    assert data["x_eq"][1] == pytest.approx(4 / 3, abs=1e-10)
    assert abs(data["pythagoras"]["gap"]) < 1e-10
    assert data["conserved_residual"] < 1e-10
    assert "x_eq:" in capsys.readouterr().out


def test_equilibrium_needs_reference(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT)
    code, _ = _run(tmp_path, "equilibrium", scen)
    assert code == 1
    assert "no equilibrium reference" in capsys.readouterr().err


def test_equilibrium_with_explicit_reference(tmp_path):
    # same projection, reference passed through the scenario
    scen = _scenario(tmp_path, x_ref=[1.0, 2.0])
    code, out = _run(tmp_path, "equilibrium", scen)
    assert code == 0
    data = json.loads((out / "equilibrium.json").read_text())
    assert data["x_eq"][0] == pytest.approx(2 / 3, abs=1e-10)


def test_decompose_report(tmp_path):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[0.7, 2.0])
    code, out = _run(tmp_path, "decompose", scen)
    assert code == 0
    data = json.loads((out / "decompose.json").read_text())
    assert data["flux_split"]["velocity_residual"] < 1e-9
    assert data["force_split"]["divergence_residual"] < 1e-9
    recomposed = np.array(data["flux_split"]["j_eq"]) + np.array(data["flux_split"]["cycle_part"])
    assert np.allclose(recomposed, data["flux"], atol=1e-12)


def test_classify_and_tol_override(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4])
    code, out = _run(tmp_path, "classify", scen)
    assert code == 0
    data = json.loads((out / "classify.json").read_text())
    assert data["label"] == "transient"
    assert data["tol"] == 1e-8
    assert "label: transient" in capsys.readouterr().out

    code, out = _run(tmp_path, "classify", scen, "--tol", "1e6")
    data = json.loads((out / "classify.json").read_text())
    assert data["label"] == "detailed_balance"  # everything clears a silly tol
    assert data["tol"] == 1e6


def test_ledger_equilibrium_network(tmp_path, capsys):
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 4, "num": 41})
    code, out = _run(tmp_path, "ledger", scen)
    assert code == 0
    data = json.loads((out / "ledger.json").read_text())
    assert data["lyapunov"]["nonincreasing"] is True
    assert abs(data["energy_balance"]["gap"]) < 1e-6
    assert (out / "ledger_trajectory.csv").exists()
    text = capsys.readouterr().out
    assert "lyapunov nonincreasing: True" in text
    assert "energy balance gap:" in text


def test_ledger_nonequilibrium_needs_x_ref(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT)
    code, _ = _run(tmp_path, "ledger", scen)
    assert code == 1
    assert "ledger needs" in capsys.readouterr().err


def test_effective_eq_closed_loop(tmp_path, capsys):
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 5, "num": 201})
    code, out = _run(tmp_path, "effective-eq", scen)
    assert code == 0
    data = json.loads((out / "effective_eq.json").read_text())
    assert data["max_zeta_residual"] < 1e-9
    assert data["max_velocity_residual"] < 1e-7
    assert data["closed_loop_deviation"] < 1e-4
    sched = (out / "effective_eq_schedule.csv").read_text().splitlines()
    assert sched[0] == "t,kf_r1,kr_r1"
    assert len(sched) == 202
    assert "closed-loop deviation" in capsys.readouterr().out


def test_effective_cycle_certificates(tmp_path):
    scen = _scenario(
        tmp_path, network_text=BRUSS_TEXT, grid={"start": 0, "stop": 3, "num": 61}
    )
    code, out = _run(tmp_path, "effective-cycle", scen)
    assert code == 0
    data = json.loads((out / "effective_cycle.json").read_text())
    assert data["max_steady_residual"] < 1e-8
    assert data["max_affinity_residual"] < 1e-9
    assert (out / "effective_cycle_schedule.csv").exists()


def test_outputs_byte_identical_across_runs(tmp_path):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, grid={"start": 0, "stop": 3, "num": 31})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == 0
        assert main(["decompose", "--scenario", scen, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trajectory.csv", "decompose.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["frobnicate", "--scenario", "x.json"]) == 1
    assert main(["simulate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["info", "--scenario", str(tmp_path / "absent.json")]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["info", "--scenario", str(bad)]) == 1

    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"network_text": "species A\nnope\n", "x0": [1.0]}))
    assert main(["info", "--scenario", str(worse)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_solver_failure_exits_two(tmp_path, capsys):
    # autocatalytic blow-up escapes to infinity in finite time
    scen = _scenario(
        tmp_path,
        network_text="species X\nreaction grow: 2 X <-> 3 X ; kf=1 kr=1e-300\n",
        x0=[1.0],
        t_end=5.0,
    )
    code, _ = _run(tmp_path, "simulate", scen)
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


def test_floor_halt_exits_three(tmp_path, capsys):
    scen = _scenario(
        tmp_path,
        network_text="species A B\nreaction r1: A <-> B ; kf=1 kr=1e-15\n",
        x0=[1.0, 1.0],
        t_end=30.0,
        positivity_floor=1e-6,
    )
    code, out = _run(tmp_path, "simulate", scen)
    assert code == 3
    assert (out / "trajectory.csv").exists()  # partial artifact still written
    assert "halted" in capsys.readouterr().out


def test_sweep_runs_each_value(tmp_path):
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 2, "num": 11})
    code, out = _run(tmp_path, "simulate", scen, "--sweep", "r1.kf=1,2")
    assert code == 0
    assert (out / "trajectory__r1.kf=1.csv").exists()
    assert (out / "trajectory__r1.kf=2.csv").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["sweep"] == "r1.kf=1,2"
    assert [r["exit_code"] for r in summary["runs"]] == [0, 0]


def test_sweep_range_form(tmp_path):
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 1, "num": 5})
    code, out = _run(tmp_path, "simulate", scen, "--sweep", "r1.kr=0.5:1.5:3")
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["runs"]) == 3
    assert (out / "trajectory__r1.kr=1.csv").exists()  # midpoint of 0.5:1.5


def test_sweep_isolates_failures(tmp_path, capsys):
    scen = _scenario(
        tmp_path,
        network_text="species X\nreaction grow: 2 X <-> 3 X ; kf=1 kr=1.5\n",
        x0=[1.0],
        t_end=5.0,
    )
    code, out = _run(tmp_path, "simulate", scen, "--sweep", "grow.kr=1.5,1e-300")
    assert code == 2  # first failing code wins
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [r["exit_code"] for r in summary["runs"]] == [0, 2]
    assert (out / "trajectory__grow.kr=1.5.csv").exists()


@pytest.mark.parametrize(
    "spec",
    ["r1=1,2", "r1.kq=1", "zz.kf=1", "r1.kf=", "r1.kf=0,-1", "r1.kf=1:2", "r1.kf=inf"],
)
def test_invalid_sweep_specs(tmp_path, capsys, spec):
    scen = _scenario(tmp_path)
    code, out = _run(tmp_path, "simulate", scen, "--sweep", spec)
    assert code == 1
    assert not (out / "sweep_summary.json").exists()


@pytest.mark.skipif(shutil.which("crnflow") is None, reason="console script not on PATH")
def test_console_script_entry_point(tmp_path):
    scen = _scenario(tmp_path)
    proc = subprocess.run(
        ["crnflow", "info", "--scenario", scen],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "species (2): A B" in proc.stdout


def test_coefficient_beyond_int64_is_an_invalid_scenario(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text="species A B\nreaction r1: 99999999999999999999 A <-> B ; kf=1 kr=1\n")
    code, _ = _run(tmp_path, "info", scen)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:") and "int64 range" in err


@pytest.mark.parametrize(
    "command,data",
    [
        ("info", {"grid": {"start": 0}}),
        ("info", {"schedule": {"times": [0, 1], "kminus": [[1], [1]]}}),
        ("info", {"t_end": [1]}),
        ("info", {"x0": {"A": [1], "B": 1.0}}),
        ("info", {"network_text": 5}),
        ("simulate", {"t_end": float("inf")}),
        ("simulate", {"rtol": float("nan")}),
        ("classify", {"tol": float("nan")}),
        ("classify", {"state": [float("inf"), 1.0]}),
        ("simulate", {"schedule": {"times": [0, float("nan"), 2], "kplus": [[1]] * 3, "kminus": [[1]] * 3}}),
        ("simulate", {"schedule": {"times": [0, 2], "kplus": [[1], [float("inf")]], "kminus": [[1], [1]]}}),
        ("simulate", {"t_ned": 40}),
    ],
)
def test_malformed_scenario_values_exit_one(tmp_path, capsys, command, data):
    scen = _scenario(tmp_path, **data)  # json writes NaN and Infinity literals
    start = time.perf_counter()
    code, _ = _run(tmp_path, command, scen)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.startswith("error: invalid scenario:")


def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4])
    for bad in ("nan", "0", "-1", "x"):
        code, out = _run(tmp_path, "classify", scen, "--tol", bad)
        assert code == 1
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()


def test_seed_flag_is_gone(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4])
    code, _ = _run(tmp_path, "classify", scen, "--seed", "3")
    assert code == 1
    assert "--seed" in capsys.readouterr().err
    code, out = _run(tmp_path, "classify", scen)
    assert code == 0
    assert "seed" not in json.loads((out / "classify.json").read_text())["meta"]


def test_effective_schedule_past_the_trajectory_exits_one(tmp_path, capsys):
    scen = _scenario(tmp_path, t_end=1.0, grid={"start": 0, "stop": 3, "num": 31})
    code, out = _run(tmp_path, "effective-eq", scen)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: schedule sample times must lie within")
    assert not (out / "effective_eq.json").exists()
