"""Workload definitions: input generation, command lists and output checks.

Each workload writes a `.crn` network and a scenario `.json` into its
work directory; the program under test sees only those files. Inputs
depend on the seed alone, so the same seed gives byte-identical inputs.

Checks read the artifacts a command wrote (and its stdout) and return a
list of human-readable failures; an empty list means the op passed.
This module is stdlib-only: the checks must not trust the package they
are checking.
"""

from __future__ import annotations

import csv
import json
import pathlib
import random
from dataclasses import dataclass, field

# x0 jitter: every jittered component is scaled by 1 + U(-X0_JITTER, X0_JITTER)
X0_JITTER = 0.02

# criterion-7 bounds (tests/test_acceptance.py)
ZETA_BOUND = 1e-8
CLOSED_LOOP_BOUND = 1e-4
STEADY_BOUND = 1e-8
# conserved-quantity drift, relative to the largest initial conserved value
DRIFT_BOUND = 1e-10


@dataclass
class Inputs:
    """What a workload generated: files written, plus facts the checks need."""

    scenario: str
    commands: list[str]
    stoich: list[list[int]] = field(default_factory=list)


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-X0_JITTER, X0_JITTER))


def _write(workdir: pathlib.Path, name: str, text: str) -> None:
    with open(workdir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _scenario(workdir: pathlib.Path, name: str, data: dict) -> str:
    _write(workdir, name, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return name


# -- brusselator-loop ----------------------------------------------------

BRUSSELATOR = """\
species X1 X2
reaction r1: 0 <-> X1 ; kf=1 kr=1
reaction r2: X1 <-> X2 ; kf=3 kr=0.1
reaction r3: 2 X1 + X2 <-> 3 X1 ; kf=1 kr=0.1
"""


def brusselator_loop(workdir: pathlib.Path, seed: int, tiny: bool) -> Inputs:
    rng = random.Random(seed)
    # the closed-loop deviation shrinks with the grid step squared: 0.01
    # keeps it near 2e-5, clear of the 1e-4 bound
    t_end = 4.0 if tiny else 40.0
    _write(workdir, "brusselator.crn", BRUSSELATOR)
    scenario = _scenario(workdir, "brusselator.json", {
        "network": "brusselator.crn",
        "x0": [_jitter(rng, 1.0), _jitter(rng, 4.0)],
        "x_ref": [1.0, 3.0],
        "t_end": t_end,
        "grid": {"start": 0.0, "stop": t_end, "num": int(100 * t_end) + 1},
    })
    return Inputs(scenario, ["simulate", "effective-eq", "effective-cycle"])


# -- robertson-stiff -----------------------------------------------------

# Reversible Robertson-type kinetics. K1 K2 = K3 (0.04/400 * 3e7 = 1e4),
# so the rates satisfy Wegscheider's condition: equilibrium class.
ROBERTSON = """\
species A B C
reaction r1: A <-> B ; kf=0.04 kr=400
reaction r2: 2 B <-> B + C ; kf=3e7 kr=1
reaction r3: B + C <-> A + C ; kf=1e4 kr=1
"""


def robertson_stiff(workdir: pathlib.Path, seed: int, tiny: bool) -> Inputs:
    rng = random.Random(seed)
    _write(workdir, "robertson.crn", ROBERTSON)
    scenario = _scenario(workdir, "robertson.json", {
        "network": "robertson.crn",
        "x0": [_jitter(rng, 1.0), 1e-6, 1e-6],
        "t_end": 0.05 if tiny else 3.0,
    })
    return Inputs(scenario, ["simulate", "ledger"])


# -- hypergraph-scan -----------------------------------------------------

HYPERGRAPH_SIZE = (40, 80)  # species, edges
HYPERGRAPH_TINY = (8, 12)


def _random_complex(rng: random.Random, n_species: int) -> tuple[int, ...]:
    comp = [0] * n_species
    for s in rng.sample(range(n_species), rng.choice((1, 2))):
        comp[s] = rng.choice((1, 2))
    return tuple(comp)


def _complex_text(comp: tuple[int, ...]) -> str:
    return " + ".join(f"{c} S{s}" for s, c in enumerate(comp) if c)


def hypergraph_scan(workdir: pathlib.Path, seed: int, tiny: bool) -> Inputs:
    n_species, n_edges = HYPERGRAPH_TINY if tiny else HYPERGRAPH_SIZE
    rng = random.Random(seed)
    lines = ["species " + " ".join(f"S{s}" for s in range(n_species))]
    stoich = [[0] * n_edges for _ in range(n_species)]
    head = _random_complex(rng, n_species)
    for e in range(n_edges):
        tail = _random_complex(rng, n_species)
        while tail == head:
            tail = _random_complex(rng, n_species)
        kf, kr = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        lines.append(f"reaction r{e + 1}: {_complex_text(head)} <-> {_complex_text(tail)} ; kf={kf!r} kr={kr!r}")
        for s in range(n_species):
            stoich[s][e] = head[s] - tail[s]
        head = tail
    _write(workdir, "hypergraph.crn", "\n".join(lines) + "\n")
    ones = [1.0] * n_species
    scenario = _scenario(workdir, "hypergraph.json", {
        "network": "hypergraph.crn",
        "x0": ones,
        "x_ref": ones,
        "t_end": 1.0,
    })
    return Inputs(scenario, ["info", "simulate", "decompose", "equilibrium", "classify", "ledger"], stoich)


WORKLOADS = {
    "brusselator-loop": brusselator_loop,
    "robertson-stiff": robertson_stiff,
    "hypergraph-scan": hypergraph_scan,
}

# commands whose main() times are summed into cmd.pointwise_s
POINTWISE = ("decompose", "equilibrium", "classify")


# -- checks --------------------------------------------------------------


def _load_json(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bound(failures: list[str], what: str, value, bound: float) -> None:
    # reports write non-finite floats as strings ("nan"), which fail here
    if not (isinstance(value, (int, float)) and value < bound):
        failures.append(f"{what} = {value!r}, bound {bound:g}")


def conserved_drift(csv_path: pathlib.Path) -> float:
    """Largest drift of any eta_* column from its first row, relative."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        cols = [i for i, name in enumerate(header) if name.startswith("eta_")]
        first = None
        worst = 0.0
        for row in rows:
            eta = [float(row[i]) for i in cols]
            if first is None:
                first = eta
                scale = max((abs(v) for v in eta), default=1.0) or 1.0
            worst = max([worst] + [abs(a - b) / scale for a, b in zip(eta, first)])
    return worst


def _int_vectors(lines: list[str], start: int, count: int) -> list[list[int]]:
    return [json.loads(line.strip()) for line in lines[start:start + count]]


def check_info_homology(stdout: str, stoich: list[list[int]]) -> list[str]:
    """Exact-integer audit of the bases `info` prints against our stoich."""
    lines = stdout.splitlines()
    failures = []
    counts = {}
    for i, line in enumerate(lines):
        for key in ("species", "edges", "conserved quantities", "cycles"):
            if line.startswith(key + " ("):
                counts[key] = (int(line[len(key) + 2:line.index(")")]), i + 1)
    if set(counts) != {"species", "edges", "conserved quantities", "cycles"}:
        return ["info stdout lacks the species/edges/conserved/cycles sections"]
    n_species, n_edges = len(stoich), len(stoich[0])
    n_cons, at = counts["conserved quantities"]
    cons = _int_vectors(lines, at, n_cons)
    n_cyc, at = counts["cycles"]
    cycles = _int_vectors(lines, at, n_cyc)
    if counts["species"][0] != n_species or counts["edges"][0] != n_edges:
        failures.append("info reports other sizes than the generated network")
    if n_species - n_cons != n_edges - n_cyc:
        failures.append(f"rank mismatch: {n_species} - {n_cons} != {n_edges} - {n_cyc}")
    for u in cons:
        if len(u) != n_species or any(sum(u[s] * stoich[s][e] for s in range(n_species)) for e in range(n_edges)):
            failures.append(f"conserved row {u} is not in the left kernel of stoich")
    for c in cycles:
        if len(c) != n_edges or any(sum(stoich[s][e] * c[e] for e in range(n_edges)) for s in range(n_species)):
            failures.append(f"cycle {c} is not in the kernel of stoich")
    return failures


def check_op(workload: str, command: str, outdir: pathlib.Path, stdout: str, inputs: Inputs) -> list[str]:
    """Workload-specific output checks for one finished command."""
    failures: list[str] = []
    if workload == "brusselator-loop":
        if command == "effective-eq":
            rep = _load_json(outdir / "effective_eq.json")
            _bound(failures, "max_zeta_residual", rep.get("max_zeta_residual"), ZETA_BOUND)
            _bound(failures, "closed_loop_deviation", rep.get("closed_loop_deviation"), CLOSED_LOOP_BOUND)
        elif command == "effective-cycle":
            rep = _load_json(outdir / "effective_cycle.json")
            _bound(failures, "max_steady_residual", rep.get("max_steady_residual"), STEADY_BOUND)
    elif workload == "robertson-stiff":
        if command == "simulate":
            _bound(failures, "conserved drift", conserved_drift(outdir / "trajectory.csv"), DRIFT_BOUND)
        elif command == "ledger":
            rep = _load_json(outdir / "ledger.json")
            if rep.get("lyapunov", {}).get("nonincreasing") is not True:
                failures.append("Lyapunov function is not nonincreasing")
            _bound(failures, "conserved drift", conserved_drift(outdir / "ledger_trajectory.csv"), DRIFT_BOUND)
    elif workload == "hypergraph-scan" and command == "info":
        failures += check_info_homology(stdout, inputs.stoich)
    return failures


def energy_gap_rel(outdir: pathlib.Path) -> float:
    """|gap| / |lhs| of the ledger's energy balance, 0 when it reports none."""
    path = outdir / "ledger.json"
    if not path.exists():
        return 0.0
    bal = _load_json(path).get("energy_balance")
    if not bal:
        return 0.0
    return abs(float(bal["gap"])) / max(abs(float(bal["lhs"])), 1e-300)
