"""crnflow benchmark: CLI workloads timed end to end, and a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.
Each op is one `crnflow <command>` in a fresh child interpreter, one at a
time (a closed loop with one client). Ops cycle through the workload's
commands until --seconds have elapsed, at least twice each, so artifacts
can be compared between repetitions. Every op is checked (exit code, the
workload's output bounds, artifact SHA-256 equal to the command's first
op); a failed check counts the op as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics: one untraced op per command, then traced ops
(tracing.py). Timings are medians over the ops of one run; wall_s is one
pass over the commands, the sum of their median op walls. Human-readable
lines come first; the last line of stdout is one JSON object.

Work files go to .perfbench_work/ in the checkout and are replaced by
the next run of the same workload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
CHILD = BENCH_DIR / "child.py"

# Seed kept out of every measurement made while writing a change, so a
# claim can be re-checked on inputs it was not tuned on.
HELD_OUT_SEED = 7919
MIN_REPEATS = 2  # ops per command, so artifacts can be compared
GEN_REPEATS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_env() -> tuple[dict, dict]:
    """Child environment (package from ./src, BLAS threads capped at nproc)
    and the host record printed with every run."""
    nproc = os.cpu_count() or 1
    requested = os.environ.get("OMP_NUM_THREADS", "")
    blas = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    record = {
        "python": platform.python_version(),
        "nproc": nproc,
        "blas_threads": blas,
        "commit": _git_commit(),
    }
    return env, record


def _run_child(args: list[str], env: dict, cwd: pathlib.Path, stdout_path: pathlib.Path,
               deadline: float) -> tuple[int, float]:
    """Run one child to completion (killed at the deadline); returns
    (return code, CLOCK_MONOTONIC at spawn)."""
    with open(stdout_path, "w", encoding="utf-8") as out, open(str(stdout_path) + ".err", "w") as err:
        t_spawn = _now()
        proc = subprocess.Popen([sys.executable, str(CHILD)] + args, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            return proc.wait(timeout=max(deadline - _now(), 1.0)), t_spawn
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9, t_spawn


def probe(env: dict, work: pathlib.Path, deadline: float) -> dict:
    """Host probe in a child; it also reports numpy/scipy versions and
    leaves the package's bytecode and files cached."""
    record = work / "probe.json"
    code, _ = _run_child([str(record), "--probe"], env, work, work / "probe.out", deadline)
    if code != 0:
        raise RuntimeError(f"host probe failed, see {work / 'probe.out.err'}")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def _digests(outdir: pathlib.Path, stdout_path: pathlib.Path) -> dict[str, str]:
    paths = sorted(p for p in outdir.rglob("*") if p.is_file()) + [stdout_path]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class Run:
    """One benchmark run of one workload: inputs, op records, probes."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.work = WORK_ROOT / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "inputs").mkdir(parents=True)
        self.env, self.host = host_env()
        self.deadline = _now() + RUN_BUDGET_S
        self.gen_s = []
        snapshots = []
        for _ in range(GEN_REPEATS):
            t = time.perf_counter()
            self.inputs = workloads.WORKLOADS[name](self.work / "inputs", seed, tiny)
            self.gen_s.append(time.perf_counter() - t)
            snapshots.append({p.name: p.read_bytes() for p in (self.work / "inputs").iterdir()})
        if any(s != snapshots[0] for s in snapshots):
            raise RuntimeError(f"{name}: input generation is not deterministic")
        self.scenario = f"inputs/{self.inputs.scenario}"
        self.reference: dict[str, dict[str, str]] = {}  # command -> digests of its first op
        self.ops: list[dict] = []
        self.probes: list[float] = []

    def op(self, command: str, traced: bool) -> dict:
        outdir = self.work / "out" / command
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        record_path = self.work / "out" / f"{command}.record.json"
        spans_path = self.work / "out" / f"{command}.spans.json"
        stdout_path = self.work / "out" / f"{command}.stdout"
        for p in (record_path, spans_path):
            p.unlink(missing_ok=True)
        args = [str(record_path)]
        if traced:
            args += ["--trace", str(spans_path)]
        args += ["--", command, "--scenario", self.scenario, "--out", f"out/{command}"]
        code, t_spawn = _run_child(args, self.env, self.work, stdout_path, self.deadline)
        t_exit = _now()
        op = {"command": command, "failures": [], "traced": traced, "wall_s": t_exit - t_spawn}
        if code != 0 or not record_path.exists():
            op["failures"].append(f"child exited with {code}")
            self.ops.append(op)
            return op
        with open(record_path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not pathlib.Path(rec["package"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"crnflow was imported from {rec['package']}, not from {ROOT / 'src'}")
        op.update(
            import_s=rec["t_imported"] - t_spawn,
            main_s=rec["t_done"] - rec["t_start"],
            cpu_s=rec["cpu_s"],
            max_rss_mb=rec["max_rss_mb"],
        )
        if rec["exit_code"] != 0:
            op["failures"].append(f"crnflow {command} exited with {rec['exit_code']}")
        op["failures"] += self.check(command)
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                op["layers"] = tracing.fold(json.load(fh))
        if command == "ledger" and not op["failures"]:
            op["energy_gap_rel"] = workloads.energy_gap_rel(outdir)
        self.ops.append(op)
        return op

    def check(self, command: str) -> list[str]:
        """Output checks of the command's last op: its bounds, and artifact
        digests equal to those of the command's first op."""
        outdir = self.work / "out" / command
        stdout_path = self.work / "out" / f"{command}.stdout"
        try:
            stdout = stdout_path.read_text(encoding="utf-8")
            failures = workloads.check_op(self.name, command, outdir, stdout, self.inputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            failures = [f"unreadable artifact: {e!r}"]
        digests = _digests(outdir, stdout_path)
        first = self.reference.setdefault(command, digests)
        if digests != first:
            changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            failures.append(f"artifacts differ from the first op: {', '.join(changed)}")
        return failures

    def _timed(self, traced: bool, command: str | None = None) -> list[dict]:
        return [op for op in self.ops if op["traced"] == traced and "main_s" in op
                and (command is None or op["command"] == command)]

    def measure(self, seconds: float, trace: bool) -> None:
        """Probe; ops for `seconds`; probe again.

        Ops cycle through the workload's commands. The next op starts only
        while its command's median op still fits in `seconds`, once every
        command has run MIN_REPEATS times, so a run lasts about `seconds`.
        A traced run starts with one untraced op per command.
        """
        first = probe(self.env, self.work, self.deadline)
        self.host.update(numpy=first["numpy"], scipy=first["scipy"])
        self.probes.append(first["probe_s"])
        commands = self.inputs.commands
        start = _now()
        if trace:
            for command in commands:
                self.op(command, traced=False)
        for i in itertools.count():
            command = commands[i % len(commands)]
            walls = [op["wall_s"] for op in self.ops if op["command"] == command and op["traced"] == trace]
            if i >= MIN_REPEATS * len(commands) and _now() - start + _median(walls) > seconds:
                break
            if walls and _now() + 2 * max(walls) > self.deadline:
                break
            self.op(command, traced=trace)
        self.probes.append(probe(self.env, self.work, self.deadline)["probe_s"])

    # -- metrics ---------------------------------------------------------

    def _median_of(self, key: str, traced: bool, command: str) -> float:
        return _median([op[key] for op in self._timed(traced, command)])

    def command_times(self) -> dict[str, float]:
        """Median main() time of each command (the pointwise ones summed)."""
        out: dict[str, float] = {}
        for command in self.inputs.commands:
            group = "pointwise" if command in workloads.POINTWISE else command
            key = f"cmd.{group}_s"
            out[key] = out.get(key, 0.0) + self._median_of("main_s", False, command)
        return out

    def pass_wall(self, traced: bool) -> float:
        """One pass of the workload's commands: the sum of their median op
        walls, each from spawn to exit of its child."""
        return sum(self._median_of("wall_s", traced, c) for c in self.inputs.commands)

    def end_to_end(self) -> dict[str, float]:
        ops = self._timed(False)
        return {
            "setup_s": _median(self.gen_s) + _median([op["import_s"] for op in ops]),
            "wall_s": self.pass_wall(False),
            "peak_rss_mb": max((op["max_rss_mb"] for op in ops), default=0.0),
        }

    def per_layer(self) -> dict[str, float]:
        """Per-pass layer totals: per command the median over its traced ops,
        summed over commands ("max" metrics take the largest)."""
        out = dict.fromkeys(tracing.METRICS, 0.0)
        for command in self.inputs.commands:
            ops = self._timed(True, command)
            for key in out if ops else ():
                value = _median([op["layers"][key] for op in ops])
                out[key] = max(out[key], value) if ".max_" in key else out[key] + value
        calls = out["kinetics.flux_calls"] + out["kinetics.raw_flux_calls"]
        flux_s = out["kinetics.flux_s"] + out["kinetics.raw_flux_s"]
        out["kinetics.us_per_call"] = 1e6 * flux_s / calls if calls else 0.0
        out["dynamics.energy_gap_rel"] = max((op.get("energy_gap_rel", 0.0) for op in self.ops), default=0.0)
        out["host.cpu_s"] = sum(self._median_of("cpu_s", True, c) for c in self.inputs.commands)
        out["host.probe_s"] = _median(self.probes)
        out["trace.overhead_s"] = self.pass_wall(True) - self.pass_wall(False)
        return out

    def result(self, trace: bool) -> tuple[dict, list[str]]:
        units = _units()
        failed = sum(1 for op in self.ops if op["failures"])
        metrics = self.per_layer() if trace else self.end_to_end()
        lines = [f"# {self.name}: host {json.dumps(self.host, sort_keys=True)}"]
        for op in self.ops:
            for failure in op["failures"]:
                lines.append(f"# {self.name}: FAILED {op['command']}: {failure}")
        report = dict(metrics)
        if trace:
            report["traced.wall_s"] = self.pass_wall(True)
        else:
            report.update(self.command_times())
        report["fail_ratio"] = failed / len(self.ops)
        for name in sorted(report):
            unit = units.get(name, "ratio" if name == "fail_ratio" else "s")
            lines.append(f"{self.name:18s} {name:28s} {report[name]:14.6g} {unit}")
        lines.append(f"# {self.name}: {len(self.ops)} ops, "
                     f"{failed} failed, probe {self.probes[0]:.4f}/{self.probes[-1]:.4f} s")
        result = {
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return result, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[str]]:
    run = Run(name, seed, tiny)
    run.measure(seconds, trace)
    return run.result(trace)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=1, help=f"workload seed (held out: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "crnflow" / "__init__.py").is_file():
        print(f"error: no crnflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
