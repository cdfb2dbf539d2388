import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from crnflow import (
    effective_equilibrium_rates,
    effective_steady_rates,
    emit_schedule_csv,
    parse_network,
    simulate,
    simulate_timedep,
)
from crnflow.cli import _write, main

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


def test_simulate_writes_samples_whose_fluxes_underflow(tmp_path):
    """2 A <-> B from A = 1e-170: the initial forward flux 1e-340 underflows
    to 0. The run writes its trajectory, the ledger NaN at t = 0 only."""
    text = "species A B\nreaction r1: 2 A <-> B ; kf=1 kr=1\n"
    scen = _scenario(tmp_path, network_text=text, x0=[1e-170, 1.0], positivity_floor=1e-300)
    code, out = _run(tmp_path, "simulate", scen)
    assert code == 0
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
    assert rows[0][4:8] == ["epr", "pepr", "psi", "psistar"]
    assert rows[1][4:8] == ["nan"] * 4 and all("nan" not in row[4:8] for row in rows[2:])


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


def test_ledger_leaves_out_a_balance_whose_flux_underflows(tmp_path, capsys):
    """2 A <-> B from A = 1e-170: the first sample's forward flux underflows
    to 0, where psi + psistar diverges. Both artifacts are written, the
    balance left out with its reason, in the report and on stdout."""
    text = "species A B\nreaction r1: 2 A <-> B ; kf=1 kr=1\n"
    scen = _scenario(tmp_path, network_text=text, x0=[1e-170, 1.0], positivity_floor=1e-300)
    code, out = _run(tmp_path, "ledger", scen)
    assert code == 0
    data = json.loads((out / "ledger.json").read_text())
    assert "energy_balance" not in data and "diverges" in data["energy_balance_omitted"]
    assert data["lyapunov"]["nonincreasing"] is True
    rows = (out / "ledger_trajectory.csv").read_text().splitlines()
    assert rows[1].split(",")[4:8] == ["nan"] * 4 and "nan" not in rows[2]
    assert f"energy balance omitted: {data['energy_balance_omitted']}\n" in capsys.readouterr().out


def test_ledger_without_an_evaluated_sample_gives_no_lyapunov_verdict(tmp_path, capsys):
    """2 A <-> B from A = 1e-170 with kr = 1e-300: every forward flux
    underflows to 0 and every ledger row is NaN. The ledger printed
    nonincreasing True with max derivative -inf; now NaN and False."""
    text = "species A B\nreaction r1: 2 A <-> B ; kf=1 kr=1e-300\n"
    scen = _scenario(tmp_path, network_text=text, x0=[1e-170, 1.0], positivity_floor=1e-320, x_ref=[1.0, 1.0],
                     t_end=1.0)
    code, out = _run(tmp_path, "ledger", scen)
    assert code == 0
    data = json.loads((out / "ledger.json").read_text())
    assert data["lyapunov"] == {"max_derivative": "nan", "nonincreasing": False}
    assert "lyapunov nonincreasing: False (max derivative nan)\n" in capsys.readouterr().out


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
    for command, artifacts in (("simulate", ["trajectory.csv"]), ("ledger", ["ledger_trajectory.csv", "ledger.json"])):
        code, out = _run(tmp_path, command, scen)
        assert code == 3
        for name in artifacts:  # partial artifacts still written
            assert (out / name).exists()
        assert "halted" in capsys.readouterr().out


def test_floor_halt_at_t0_on_a_grid_exits_three(tmp_path, capsys):
    scen = _scenario(
        tmp_path,
        network_text="species A B\nreaction r1: A <-> B ; kf=1 kr=1e-15\n",
        x0=[1e-12, 1.0],
        t_end=0.5,
        positivity_floor=1e-12,
        grid={"start": 0, "stop": 0.5, "num": 2},
    )
    code, out = _run(tmp_path, "simulate", scen)
    assert code == 3
    assert (out / "trajectory.csv").read_text().count("\n") == 2  # header and the row at t0
    assert "halted: state reached positivity floor 1e-12 at t=0" in capsys.readouterr().out


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


NO_SCIPY = """
import sys
import crnflow.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
scenario, out = sys.argv[1:]
for command in ("info", "simulate", "ledger", "effective-eq"):
    code = crnflow.cli.main([command, "--scenario", scenario, "--out", f"{out}/{command}"])
    assert code == 0, (command, code)
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: neither the import nor any command may load it
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, x0=[1.0, 4.0], x_ref=[1.0, 3.0], t_end=2.0,
                     grid={"start": 0, "stop": 2, "num": 41})
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, scen, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "effective-eq" / "effective_eq.json").exists()


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


def test_scenario_tolerances_follow_simulate(tmp_path, capsys):
    """simulate runs at atol = 0 and positivity_floor = 0; the scenario reader
    used to refuse both ("atol must be positive"), and still refuses what
    simulate refuses."""
    for key in ("atol", "positivity_floor"):
        code, out = _run(tmp_path, "simulate", _scenario(tmp_path, t_end=1.0, grid=[0.0, 1.0], **{key: 0}))
        assert code == 0, capsys.readouterr().err
        assert (out / "trajectory.csv").exists()
        code, _ = _run(tmp_path, "simulate", _scenario(tmp_path, **{key: -1e-10}))
        assert code == 1
        assert "atol and positivity_floor must be finite and non-negative" in capsys.readouterr().err


def test_grid_too_large_to_hold_is_an_invalid_scenario(tmp_path, capsys):
    """A grid of 1e15 times ended in an uncaught MemoryError traceback."""
    scen = _scenario(tmp_path, grid={"start": 0, "stop": 1, "num": 1e15})
    code, _ = _run(tmp_path, "simulate", scen)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: invalid scenario:")


def test_sweep_range_too_large_to_hold_exits_one(tmp_path, capsys):
    """A range of 1e15 values let numpy's MemoryError escape main as a traceback;
    numpy refuses the allocation at once, so nothing is allocated."""
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4])
    code, out = _run(tmp_path, "classify", scen, "--sweep", "r1.kf=1:2:1000000000000000")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not out.exists()


def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4])
    for bad in ("nan", "0", "-1", "x"):
        code, out = _run(tmp_path, "classify", scen, "--tol", bad)
        assert code == 1
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command", ["info", "simulate", "equilibrium", "decompose", "effective-eq", "effective-cycle", "ledger"]
)
def test_tol_flag_is_rejected_outside_classify(tmp_path, capsys, command):
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, state=[1.3, 2.4], x_ref=[1.0, 3.0])
    code, out = _run(tmp_path, command, scen, "--tol", "1e-6")
    assert code == 1
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


SCHEDULED = {"schedule": {"times": [0.0, 5.0], "kplus": [[0.5], [0.5]], "kminus": [[4.0], [4.0]]}}


@pytest.mark.parametrize(
    "command", ["info", "equilibrium", "decompose", "effective-eq", "effective-cycle", "ledger", "classify"]
)
def test_schedule_is_rejected_outside_simulate(tmp_path, capsys, command):
    # ledger judged a scheduled run by the constant rates ("nonincreasing" while D rose),
    # the effective schedules mixed both, and the other commands ignored the schedule
    scen = _scenario(tmp_path, state=[1.0, 1.0], x_ref=[1.0, 2.0], **SCHEDULED)
    for sweep in ((), ("--sweep", "r1.kf=1,2")):
        code, out = _run(tmp_path, command, scen, *sweep)
        assert code == 1
        assert capsys.readouterr().err == f"error: the scenario's schedule applies to simulate only, not to {command}\n"
        assert not out.exists()


def test_schedule_drives_simulate(tmp_path):
    code, out = _run(tmp_path, "simulate", _scenario(tmp_path, state=[1.0, 1.0], x_ref=[1.0, 2.0], **SCHEDULED))
    assert code == 0
    assert (out / "trajectory.csv").exists()


def test_sweep_is_rejected_with_a_schedule(tmp_path, capsys):
    # the schedule replaces the network's rates: each swept run wrote the same trajectory
    code, out = _run(tmp_path, "simulate", _scenario(tmp_path, **SCHEDULED), "--sweep", "r1.kf=1,7")
    assert code == 1
    assert capsys.readouterr().err == "error: --sweep varies the network's rates, which the schedule replaces\n"
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


def test_failed_write_leaves_no_artifact(tmp_path):
    def chunks():
        yield "t,x_A\n"
        raise RuntimeError("formatting failed")

    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        _write(out, "trajectory.csv", chunks())
    assert list(out.iterdir()) == []  # neither the artifact nor its temporary file
    (out / "trajectory.csv").write_text("earlier run\n")
    with pytest.raises(RuntimeError):
        _write(out, "trajectory.csv", chunks())
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
    assert (out / "trajectory.csv").read_text() == "earlier run\n"


def test_unusable_out_exits_one_and_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    scen = _scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out in (taken, taken / "sub"):  # a file, and a path through one
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write the artifacts: ")
    assert taken.read_text() == "a file\n"

    def refuse(src, dst):  # an artifact written, then refused its place
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out"
    for command in ("simulate", "decompose"):
        assert main([command, "--scenario", scen, "--out", str(out)]) == 1
        assert "Permission denied" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(["simulate", "--scenario", scen, "--out", str(out), "--sweep", "r1.kf=1,2"]) == 1
    assert list(out.iterdir()) == []


NO_NUMPY_MA = """
import sys
import crnflow.cli
scenario, out = sys.argv[1:]
for command in ("simulate", "effective-eq", "effective-cycle"):
    assert crnflow.cli.main([command, "--scenario", scenario, "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_gridded_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.union1d would load numpy.ma on its first call
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, x0=[1.0, 4.0], t_end=2.0,
                     grid={"start": 0, "stop": 2, "num": 41})
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA, scen, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("command, rates", [
    ("effective-eq", effective_equilibrium_rates),
    ("effective-cycle", effective_steady_rates),
])
def test_effective_reports_match_the_gridded_runs(tmp_path, command, rates):
    # the base run and the closed-loop rerun carry no grid; here both get it,
    # as they once did, and the schedule and the deviation keep their bits
    x0, grid = [1.0, 4.0], np.linspace(0.0, 4.0, 401)
    scen = _scenario(tmp_path, network_text=BRUSS_TEXT, x0=x0, t_end=4.0,
                     grid={"start": 0, "stop": 4, "num": 401})
    code, out = _run(tmp_path, command, scen)
    assert code == 0
    net = parse_network(BRUSS_TEXT)
    traj = simulate(net, x0, (0.0, 4.0), grid=grid)
    schedule, _ = rates(net, traj, times=grid)
    name = command.replace("-", "_")
    assert (out / f"{name}_schedule.csv").read_text() == emit_schedule_csv(schedule, net.edge_labels)
    if command == "effective-eq":
        redo = simulate_timedep(net, x0, (0.0, 4.0), schedule, grid=grid)
        base = traj.interpolate(grid)
        deviation = float(np.max(np.abs(redo.interpolate(grid) - base)) / np.max(np.abs(base)))
        assert json.loads((out / "effective_eq.json").read_text())["closed_loop_deviation"] == deviation
