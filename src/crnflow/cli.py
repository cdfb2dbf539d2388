"""Command-line interface.

    crnflow <command> --scenario path/to/scenario.json [--out DIR] [--sweep SPEC]
    crnflow classify --scenario path/to/scenario.json [--out DIR]
                     [--tol FLOAT] [--sweep SPEC]

Commands: info, simulate, equilibrium, decompose, effective-eq,
effective-cycle, ledger, classify. Exit codes: 0 success, 1 usage or
validation error or an --out that cannot be written to, 2 solver
failure, 3 integration halted at the positivity floor (partial
artifacts are still written). An invocation is refused through one
door, _UsageError, before any work: one `error:` line and exit 1.

--tol overrides the scenario's `tol`, the tolerance `classify` labels
the state with (default 1e-8); other commands reject it. Likewise a
scenario's `schedule` drives `simulate` only; other commands reject it,
and so does --sweep, whose rates the schedule would replace.

--sweep runs the command once per value of one rate constant:
`<label>.<kf|kr>=v1,v2,...` or `<label>.<kf|kr>=lo:hi:n` (n linearly
spaced values). Artifacts get a per-value suffix and a sweep summary is
written alongside.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from dataclasses import replace

import numpy as np

from . import geometry
from .checks import _floats, _positive
from .convex import CoshDissipation, _sup
from .dynamics import Trajectory, energy_dissipation_balance, ledger, lyapunov_monitor, simulate, simulate_timedep
from .fileio import (
    ScenarioConfig,
    _format_float,
    report_json_chunks,
    schedule_csv_chunks,
    trajectory_csv_chunks,
)
from .kinetics import ConvergenceError, FluxUnderflowError, KineticSplit, classify_state, mass_action_flux
from .kinetics import wegscheider_check
from .network import ReactionNetwork


class _UsageError(Exception):
    """Why the invocation cannot run: its arguments, a scenario that does not load, an
    option the command does not take, a sweep spec that does not parse or cannot be held."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    try:
        return float(_floats(text, "tol", 0, positive=True))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _build_parser() -> _Parser:
    p = _Parser(prog="crnflow", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=_DISPATCH)
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--tol", type=_tolerance, default=None, help="classify only: override the scenario's tolerance")
    p.add_argument("--sweep", default=None, help="rate sweep: <label>.<kf|kr>=v1,v2,... or lo:hi:n")
    return p


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_format_float(float(x)) for x in np.asarray(v, dtype=float)) + "]"


def _write(outdir: pathlib.Path, name: str, chunks) -> pathlib.Path:
    """Write the text chunks as they come, to a sibling temporary file renamed
    over outdir/name once complete: a failure leaves no truncated artifact."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    tmp = outdir / f".{name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _report(scenario: ScenarioConfig, outdir: pathlib.Path, name: str, report: dict) -> None:
    report["meta"] = {
        "network": scenario.network_path or "<inline>",
        "species": list(scenario.network.species),
        "edge_labels": list(scenario.network.edge_labels),
    }
    print(f"wrote {_write(outdir, name, report_json_chunks(report))}")


def _reference(scenario: ScenarioConfig, wc: dict, command: str) -> np.ndarray:
    """The scenario's x_ref, else the equilibrium state the rate constants admit."""
    if scenario.x_ref is not None:
        return scenario.x_ref
    if not wc["is_equilibrium"]:
        raise ValueError(
            f"{command} needs an equilibrium-class network or an explicit x_ref: the rate constants "
            "carry cycle affinity, so there is no equilibrium reference"
        )
    return np.exp(wc["potential"])


def _run_simulation(sc: ScenarioConfig) -> Trajectory:
    kwargs = dict(grid=sc.grid, rtol=sc.rtol, atol=sc.atol, positivity_floor=sc.positivity_floor)
    if sc.schedule is not None:
        return simulate_timedep(sc.network, sc.x0, sc.t_span, sc.schedule, **kwargs)
    return simulate(sc.network, sc.x0, sc.t_span, **kwargs)


def _cmd_info(scenario: ScenarioConfig, outdir, suffix) -> int:
    net = scenario.network
    wc = wegscheider_check(net)
    print(f"species ({net.n_species}): {' '.join(net.species)}")
    print(f"hypervertices: {net.n_hypervertices}")
    print(f"edges ({net.n_edges}): {' '.join(net.edge_labels)}")
    print(f"conserved quantities ({net.n_conserved}):")
    for row in net.cons_basis.tolist():
        print(f"  {row}")
    print(f"cycles ({net.n_cycles}):")
    for col in net.cycle_basis.T.tolist():
        print(f"  {col}")
    verdict = "equilibrium" if wc["is_equilibrium"] else "nonequilibrium"
    print(f"rate constants: {verdict} (max cycle affinity {_format_float(_sup(wc['cycle_affinity']))})")
    return 0


def _cmd_simulate(scenario: ScenarioConfig, outdir, suffix) -> int:
    x_ref = None if scenario.x_ref is None else _positive(scenario.x_ref, "x_ref", finite=True)  # before the run
    traj = _run_simulation(scenario)
    rows = ledger(scenario.network, traj, x_ref)
    path = _write(outdir, f"trajectory{suffix}.csv", trajectory_csv_chunks(traj, *rows))
    print(f"wrote {path} ({traj.times.size} rows)")
    print(f"final state: {_fmt_vec(traj.final_state)}")
    if traj.halted:
        print(f"halted: {traj.halt_reason}")
        return 3
    return 0


def _cmd_equilibrium(scenario: ScenarioConfig, outdir, suffix) -> int:
    net = scenario.network
    x_ref = _reference(scenario, wegscheider_check(net), "equilibrium")
    x_eq = geometry.equilibrium_point(net, scenario.x0, x_ref)
    cert = geometry.pythagoras_gap(net, scenario.x0, x_eq, x_ref)
    _report(scenario, outdir, f"equilibrium{suffix}.json", {
        "x0": scenario.x0,
        "x_ref": x_ref,
        "x_eq": x_eq,
        "conserved_residual": _sup(net.conserved(x_eq) - net.conserved(scenario.x0)),
        "pythagoras": cert,
    })
    print(f"x_eq: {_fmt_vec(x_eq)}")
    print(f"pythagoras gap: {_format_float(cert['gap'])}")
    return 0


def _cmd_decompose(scenario: ScenarioConfig, outdir, suffix) -> int:
    net = scenario.network
    pair = mass_action_flux(net, scenario.state)
    dissip = CoshDissipation(pair.activity)
    fsplit = geometry.flux_split(net, dissip, pair.flux)
    gsplit = geometry.force_split(net, dissip, pair.force)
    _report(scenario, outdir, f"decompose{suffix}.json", {
        "state": scenario.state,
        "flux": pair.flux,
        "force": pair.force,
        "activity": pair.activity,
        "cycle_affinity": net.curl(pair.force),
        "flux_split": {
            "j_eq": fsplit["flux"],
            "cycle_part": fsplit["cycle_part"],
            "u": fsplit["u"],
            "velocity_residual": fsplit["velocity_residual"],
            "iterations": fsplit["iterations"],
        },
        "force_split": {
            "f_st": gsplit["force"],
            "shift": gsplit["shift"],
            "y": gsplit["y"],
            "divergence_residual": gsplit["divergence_residual"],
            "iterations": gsplit["iterations"],
        },
    })
    print(f"velocity residual: {_format_float(fsplit['velocity_residual'])}")
    print(f"divergence residual: {_format_float(gsplit['divergence_residual'])}")
    return 0


def _closed_loop_deviation(scenario: ScenarioConfig, traj, schedule) -> float:
    t = schedule.times
    span = (float(t[0]), float(t[-1]))
    # gridless: only the dense output is read, and the grid never reaches the stepper
    redo = _run_simulation(replace(scenario, t_span=span, grid=None, schedule=schedule))
    base = traj.interpolate(t)
    mirror = redo.interpolate(t)
    scale = float(np.max(np.abs(base)))
    return float(np.max(np.abs(mirror - base)) / scale)


def _effective(scenario: ScenarioConfig, outdir, suffix, name: str, rates, closed_loop: bool) -> dict:
    net = scenario.network
    # the schedule samples the dense output on the grid, so the base run keeps no grid rows
    traj = _run_simulation(replace(scenario, grid=None))
    times = scenario.grid if scenario.grid is not None else traj.times
    schedule, cert = rates(net, traj, times=times)
    report = {"certificates": cert, "kappa": KineticSplit.from_rates(net.kplus, net.kminus).kappa}
    report.update((f"max_{k}", float(v.max())) for k, v in cert.items() if k.endswith("_residual"))
    if closed_loop:
        report["closed_loop_deviation"] = _closed_loop_deviation(scenario, traj, schedule)
    _write(outdir, f"{name}_schedule{suffix}.csv", schedule_csv_chunks(schedule, net.edge_labels))
    _report(scenario, outdir, f"{name}{suffix}.json", report)
    return report


def _cmd_effective_eq(scenario: ScenarioConfig, outdir, suffix) -> int:
    rates = geometry.effective_equilibrium_rates
    report = _effective(scenario, outdir, suffix, "effective_eq", rates, closed_loop=True)
    print(f"closed-loop deviation (relative sup-norm): {_format_float(report['closed_loop_deviation'])}")
    print(f"max zeta residual: {_format_float(report['max_zeta_residual'])}")
    return 0


def _cmd_effective_cycle(scenario: ScenarioConfig, outdir, suffix) -> int:
    rates = geometry.effective_steady_rates
    report = _effective(scenario, outdir, suffix, "effective_cycle", rates, closed_loop=False)
    print(f"max steadiness residual: {_format_float(report['max_steady_residual'])}")
    return 0


_UNDERFLOW = "a one-way flux underflows to 0 at a sample, where psi + psistar (the entropy production rate) diverges"


def _cmd_ledger(scenario: ScenarioConfig, outdir, suffix) -> int:
    net = scenario.network
    wc = wegscheider_check(net)
    x_ref = _positive(_reference(scenario, wc, "ledger"), "x_ref", finite=True)  # before the run
    traj = _run_simulation(scenario)
    rows = ledger(net, traj, x_ref)
    monitor = lyapunov_monitor(net, traj, x_ref)
    report = {
        "reference": x_ref,
        "lyapunov": {
            "max_derivative": monitor["max_derivative"],
            "nonincreasing": monitor["nonincreasing"],
        },
    }
    if wc["is_equilibrium"]:
        try:
            report["energy_balance"] = energy_dissipation_balance(net, traj)
        except FluxUnderflowError:
            report["energy_balance_omitted"] = _UNDERFLOW
    _write(outdir, f"ledger_trajectory{suffix}.csv", trajectory_csv_chunks(traj, *rows))
    _report(scenario, outdir, f"ledger{suffix}.json", report)
    print(f"lyapunov nonincreasing: {monitor['nonincreasing']} "
          f"(max derivative {_format_float(monitor['max_derivative'])})")
    if "energy_balance" in report:
        print(f"energy balance gap: {_format_float(report['energy_balance']['gap'])}")
    elif "energy_balance_omitted" in report:
        print(f"energy balance omitted: {_UNDERFLOW}")
    if traj.halted:
        print(f"halted: {traj.halt_reason}")
        return 3
    return 0


def _cmd_classify(scenario: ScenarioConfig, outdir, suffix) -> int:
    result = classify_state(scenario.network, scenario.state, tol=scenario.tol)
    _report(scenario, outdir, f"classify{suffix}.json", {"state": scenario.state, **result})
    print(f"label: {result['label']}")
    return 0


_DISPATCH = {
    "info": _cmd_info,
    "simulate": _cmd_simulate,
    "equilibrium": _cmd_equilibrium,
    "decompose": _cmd_decompose,
    "effective-eq": _cmd_effective_eq,
    "effective-cycle": _cmd_effective_cycle,
    "ledger": _cmd_ledger,
    "classify": _cmd_classify,
}


def _parse_sweep(spec: str, net: ReactionNetwork) -> tuple[str, str, np.ndarray]:
    head, sep, tail = spec.partition("=")
    if not sep or "." not in head:
        raise ValueError("sweep spec must look like <label>.<kf|kr>=<values>")
    label, _, which = head.rpartition(".")
    if which not in ("kf", "kr"):
        raise ValueError("sweep target must be kf or kr")
    if label not in net.edge_labels:
        raise ValueError(f"unknown edge label {label!r}")
    if ":" in tail:
        parts = tail.split(":")
        if len(parts) != 3:
            raise ValueError("range sweep must be lo:hi:n")
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        values = np.linspace(lo, hi, num)
    else:
        values = np.array([float(v) for v in tail.split(",") if v])
    if values.size == 0 or not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("sweep values must be finite, positive and non-empty")
    return label, which, values


def _apply_sweep_value(net: ReactionNetwork, label: str, which: str, value: float) -> ReactionNetwork:
    e = net.edge_labels.index(label)
    kp = net.kplus.copy()
    km = net.kminus.copy()
    (kp if which == "kf" else km)[e] = value
    return net.with_rates(kp, km)


def _runs(args, scenario: ScenarioConfig) -> list[tuple[ScenarioConfig, str]]:
    """The (scenario, artifact suffix) pairs the command runs, found before any work;
    _UsageError says why the command cannot run as asked."""
    scheduled, command = scenario.schedule is not None, args.command
    if args.tol is not None and command != "classify":
        raise _UsageError(f"--tol applies to classify only, not to {command}")
    if scheduled and command != "simulate":
        raise _UsageError(f"the scenario's schedule applies to simulate only, not to {command}")
    if scheduled and args.sweep is not None:
        raise _UsageError("--sweep varies the network's rates, which the schedule replaces")
    if args.tol is not None:
        scenario = replace(scenario, tol=args.tol)
    if args.sweep is None:
        return [(scenario, "")]
    try:
        label, which, values = _parse_sweep(args.sweep, scenario.network)
    except (ValueError, MemoryError) as e:  # MemoryError: a range too large to hold
        raise _UsageError(str(e)) from None
    return [
        (replace(scenario, network=_apply_sweep_value(scenario.network, label, which, float(v))),
         f"__{label}.{which}={_format_float(float(v))}")
        for v in values
    ]


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            scenario = ScenarioConfig.load(args.scenario)
        except (OSError, ValueError, MemoryError) as e:  # MemoryError: a grid too large to hold
            raise _UsageError(f"invalid scenario: {e}") from None
        runs = _runs(args, scenario)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    outdir = pathlib.Path(args.out)
    handler = _DISPATCH[args.command]

    summary = []
    first_bad = 0
    try:
        for sc, suffix in runs:
            try:
                code = handler(sc, outdir, suffix)
            except ConvergenceError as e:
                print(f"error: solver failure: {e}", file=sys.stderr)
                code = 2
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                code = 1
            summary.append({"suffix": suffix, "exit_code": code})
            if code != 0 and first_bad == 0:
                first_bad = code
        if args.sweep is not None:
            _write(outdir, "sweep_summary.json", report_json_chunks({"runs": summary, "sweep": args.sweep}))
    except OSError as e:  # --out names a file, an unwritable directory, a full disk, ...
        print(f"error: cannot write the artifacts: {e}", file=sys.stderr)
        return 1
    return first_bad


if __name__ == "__main__":
    sys.exit(main())
