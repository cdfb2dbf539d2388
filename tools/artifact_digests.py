"""SHA-256 digests of every artifact the benchmark commands write.

    python3 tools/artifact_digests.py --src path/to/checkout/src [--seed S] [--tiny]

Generates the inputs of the benchmark workloads with perfbench/workloads.py
at seed S, runs each workload's commands as

    python -m crnflow.cli <command> --scenario inputs/<scenario> --out out/<command>

in a fresh temporary directory with the package imported from --src, and
prints one line per artifact, per command's stdout and per exit code:

    <sha256>  <workload>/<command>/<artifact>
    <sha256>  <workload>/<command>/<stdout>
    exit <code>  <workload>/<command>

Two checkouts give byte-identical artifacts when the listings made with
their --src directories do not differ (`diff a.txt b.txt`). Commands'
stderr passes through. Exits 1 when any command exited nonzero, after
printing every line. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
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


def digests(src: pathlib.Path, seed: int, tiny: bool) -> tuple[list[str], bool]:
    """The listing's lines, and whether every command exited 0."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    lines, ok = [], True
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as tmp:
        for name, generate in workloads.WORKLOADS.items():
            work = pathlib.Path(tmp) / name
            (work / "inputs").mkdir(parents=True)
            inputs = generate(work / "inputs", seed, tiny)
            for command in inputs.commands:
                argv = [command, "--scenario", f"inputs/{inputs.scenario}", "--out", f"out/{command}"]
                run = subprocess.run([sys.executable, "-m", "crnflow.cli", *argv], cwd=work, env=env,
                                     stdout=subprocess.PIPE, check=False)
                outdir = work / "out" / command
                for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
                    lines.append(f"{_sha256(path.read_bytes())}  {name}/{command}/{path.relative_to(outdir)}")
                lines.append(f"{_sha256(run.stdout)}  {name}/{command}/<stdout>")
                lines.append(f"exit {run.returncode}  {name}/{command}")
                ok = ok and run.returncode == 0
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
