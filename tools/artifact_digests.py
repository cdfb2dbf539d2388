"""SHA-256 digests of every artifact the benchmark commands write, and of fixed scenarios.

    python3 tools/artifact_digests.py --src path/to/checkout/src [--seed S] [--tiny]

Generates the inputs of the benchmark workloads with perfbench/workloads.py
at seed S, runs each workload's commands as

    python -m crnflow.cli <command> --scenario inputs/<scenario> --out out/<command>

in a fresh temporary directory with the package imported from --src, then
runs the fixed inline scenarios of FIXED the same way, which take paths
the benchmark's commands never take (they do not depend on S or --tiny):

    scheduled-simulate  simulate under a rate schedule with an x_ref: the
                        one ledger that reads a schedule's rates
    floor-halt          simulate and ledger on a run that halts at the
                        positivity floor: exit 3, partial artifacts
    sweep               simulate and ledger with --sweep over three values
                        of one rate constant: per-value artifacts and the
                        sweep summary

and prints one line per artifact, per command's stdout and per exit code:

    <sha256>  <workload>/<command>/<artifact>
    <sha256>  <workload>/<command>/<stdout>
    exit <code>  <workload>/<command>

Two checkouts give byte-identical artifacts when the listings made with
their --src directories do not differ (`diff a.txt b.txt`). Commands'
stderr passes through. Exits 1 when any command exited with another code
than its expected one (0 for the benchmark's commands), after printing
every line. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# name -> (scenario, [(command, extra arguments, expected exit code), ...])
FIXED = {
    "scheduled-simulate": (
        {"network_text": workloads.BRUSSELATOR, "x0": [1.0, 4.0], "x_ref": [1.0, 3.0], "t_end": 4.0,
         "grid": {"start": 0, "stop": 4, "num": 81},
         "schedule": {"times": [0.0, 1.5, 4.0],
                      "kplus": [[1.0, 3.0, 1.0], [2.0, 2.5, 0.5], [1.0, 3.0, 1.0]],
                      "kminus": [[1.0, 0.1, 3.0], [0.5, 0.2, 2.0], [1.0, 0.1, 3.0]]}},
        [("simulate", [], 0)],
    ),
    "floor-halt": (
        {"network_text": "species A B\nreaction r1: A <-> B ; kf=1 kr=1e-15\n", "x0": [1.0, 1.0],
         "t_end": 30.0, "positivity_floor": 1e-6},
        [("simulate", [], 3), ("ledger", [], 3)],
    ),
    "sweep": (
        {"network_text": workloads.BRUSSELATOR, "x0": [1.0, 4.0], "x_ref": [1.0, 3.0], "t_end": 2.0,
         "grid": {"start": 0, "stop": 2, "num": 21}},
        [("simulate", ["--sweep", "r2.kf=1:3:3"], 0), ("ledger", ["--sweep", "r2.kf=1:3:3"], 0)],
    ),
}


def _command(lines: list[str], env: dict, work: pathlib.Path, name: str, command: str, scenario: str,
             extra=()) -> int:
    """Runs one command in work, appends its listing lines and returns its exit code."""
    argv = [command, "--scenario", f"inputs/{scenario}", "--out", f"out/{command}", *extra]
    run = subprocess.run([sys.executable, "-m", "crnflow.cli", *argv], cwd=work, env=env,
                         stdout=subprocess.PIPE, check=False)
    outdir = work / "out" / command
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        lines.append(f"{_sha256(path.read_bytes())}  {name}/{command}/{path.relative_to(outdir)}")
    lines.append(f"{_sha256(run.stdout)}  {name}/{command}/<stdout>")
    lines.append(f"exit {run.returncode}  {name}/{command}")
    return run.returncode


def digests(src: pathlib.Path, seed: int, tiny: bool) -> tuple[list[str], bool]:
    """The listing's lines, and whether every command exited with its expected code."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    lines, ok = [], True
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as tmp:
        for name, generate in workloads.WORKLOADS.items():
            work = pathlib.Path(tmp) / name
            (work / "inputs").mkdir(parents=True)
            inputs = generate(work / "inputs", seed, tiny)
            for command in inputs.commands:
                ok = _command(lines, env, work, name, command, inputs.scenario) == 0 and ok
        for name, (scenario, commands) in FIXED.items():
            work = pathlib.Path(tmp) / name
            (work / "inputs").mkdir(parents=True)
            (work / "inputs" / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
            for command, extra, expected in commands:
                ok = _command(lines, env, work, name, command, "scenario.json", extra) == expected and ok
    return lines, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--src", required=True, type=pathlib.Path, help="the checkout's src directory")
    p.add_argument("--seed", type=int, default=3, help="workload seed (default 3)")
    p.add_argument("--tiny", action="store_true", help="the workloads' small inputs")
    args = p.parse_args(argv)
    src = args.src.resolve()
    if not (src / "crnflow" / "cli.py").is_file():
        p.error(f"{src} holds no crnflow package")
    lines, ok = digests(src, args.seed, args.tiny)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
