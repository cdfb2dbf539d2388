"""Text formats: network files, scenario configs, CSV/JSON emission.

Network files (.crn) are line oriented:

    # comment
    species X1 X2
    reaction r1: 0 <-> X1 ; kf=1 kr=1
    reaction r3: 2 X1 + X2 <-> 3 X1 ; kf=1 kr=0.1

A complex is `0` (empty) or `+`-separated terms `<count>? <name>`.
The left complex is the edge's head (reactant side). Parsing is total:
any malformed input raises NetworkParseError with line/column, never
crashes. Serialization emits a canonical form whose re-parse is
structurally identical.

Scenario configs are JSON objects; see ScenarioConfig for the schema.
Trajectory CSV uses 17 significant digits, locale-independent.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from dataclasses import dataclass

import numpy as np

from .checks import _floats, _positive, _schedule_edges, _time_span, _tolerances, _vec
from .dynamics import LEDGER_KEYS, RateSchedule, Trajectory
from .network import _INT64_MAX, ReactionNetwork, network_from_reactions

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
_TERM_RE = re.compile(r"([0-9]+)?\s*([A-Za-z_]\w*)\Z")
_FLOAT_FORMAT = "%.17g"  # every float written: 17 significant digits read back to the same bits
_SCENARIO_KEYS = "network network_text x0 t_end t_span grid x_ref state schedule rtol atol positivity_floor tol".split()


class NetworkParseError(ValueError):
    """Syntax or semantic error in a network file, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _parse_complex(text: str, line_no: int, offset: int, species: dict[str, int]):
    """Parse one complex into a composition list; positions are 1-based. A species'
    summed coefficient past the int64 range is refused at the term that passes it."""
    stripped = text.strip()
    if not stripped:
        raise NetworkParseError("empty complex", line_no, offset + 1)
    comp = [0] * len(species)
    if stripped == "0":
        return comp
    pos = 0
    for chunk in text.split("+"):
        start = offset + pos
        term = chunk.strip()
        col = start + (len(chunk) - len(chunk.lstrip())) + 1
        if not term:
            raise NetworkParseError("empty term in complex", line_no, col)
        m = _TERM_RE.match(term)
        if m is None:
            raise NetworkParseError(f"malformed term {term!r}", line_no, col)
        digits = (m.group(1) or "1").lstrip("0")  # 20 digits are past int64; int() reads 4,300 at most
        count = int(digits or 0) if len(digits) <= 19 else _INT64_MAX + 1
        if count == 0:
            raise NetworkParseError("zero coefficient in complex", line_no, col)
        name = m.group(2)
        if name not in species:
            raise NetworkParseError(f"unknown species {name!r}", line_no, col)
        comp[species[name]] += count
        if comp[species[name]] > _INT64_MAX:
            raise NetworkParseError(f"coefficient of {name!r} beyond the int64 range", line_no, col)
        pos += len(chunk) + 1
    return comp


def parse_network(text: str) -> ReactionNetwork:
    """Parse a network file into a ReactionNetwork.

    Species and edges keep declaration order; hypervertices are
    deduplicated by composition in order of first appearance.
    """
    species: dict[str, int] = {}
    reactions = []
    labels: list[str] = []
    label_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        first = re.search(r"\S+", line)
        keyword = first.group(0)
        if keyword == "species":
            if reactions:
                raise NetworkParseError(
                    "species must be declared before reactions", line_no, first.start() + 1
                )
            for m in re.finditer(r"\S+", line[first.end():]):
                name = m.group(0)
                col = first.end() + m.start() + 1
                if not _NAME_RE.match(name):
                    raise NetworkParseError(f"invalid species name {name!r}", line_no, col)
                if name in species:
                    raise NetworkParseError(f"duplicate species {name!r}", line_no, col)
                species[name] = len(species)
            continue
        if keyword != "reaction":
            raise NetworkParseError(
                f"expected 'species' or 'reaction', got {keyword!r}", line_no, first.start() + 1
            )

        rest = line[first.end():]
        m = re.match(r"\s*([A-Za-z_]\w*)\s*:", rest)
        if m is None:
            raise NetworkParseError("expected 'reaction <label>:'", line_no, first.end() + 1)
        label = m.group(1)
        if label in label_lines:
            raise NetworkParseError(
                f"duplicate reaction label {label!r} (first on line {label_lines[label]})",
                line_no,
                first.end() + m.start(1) + 1,
            )
        label_lines[label] = line_no
        body_off = first.end() + m.end()
        body = line[body_off:]

        arrow = body.find("<->")
        if arrow < 0:
            raise NetworkParseError("expected '<->' between complexes", line_no, body_off + 1)
        semi = body.find(";", arrow + 3)
        if semi < 0:
            raise NetworkParseError("expected ';' before rate constants", line_no, body_off + 1)

        lhs = _parse_complex(body[:arrow], line_no, body_off, species)
        rhs = _parse_complex(body[arrow + 3 : semi], line_no, body_off + arrow + 3, species)
        if lhs == rhs:
            raise NetworkParseError(
                "reactant and product complexes are identical (self-loop)",
                line_no,
                body_off + 1,
            )

        rates = {}
        tail_off = body_off + semi + 1
        for m in re.finditer(r"\S+", body[semi + 1 :]):
            tok = m.group(0)
            col = tail_off + m.start() + 1
            km = re.match(r"(kf|kr)=(.+)\Z", tok)
            if km is None:
                raise NetworkParseError(f"expected kf=<float> or kr=<float>, got {tok!r}", line_no, col)
            key = km.group(1)
            if key in rates:
                raise NetworkParseError(f"duplicate {key}", line_no, col)
            try:
                if not re.fullmatch(r"[-+.0-9A-Za-z]+", km.group(2)):  # float() also reads "1_0" and non-ASCII digits
                    raise ValueError
                value = float(km.group(2))
            except ValueError:
                raise NetworkParseError(f"bad float {km.group(2)!r}", line_no, col) from None
            if not (np.isfinite(value) and value > 0):
                raise NetworkParseError(f"{key} must be finite and > 0", line_no, col)
            rates[key] = value
        missing = {"kf", "kr"} - set(rates)
        if missing:
            raise NetworkParseError(f"missing {', '.join(sorted(missing))}", line_no, tail_off)

        lhs_counts = {name: lhs[i] for name, i in species.items() if lhs[i]}
        rhs_counts = {name: rhs[i] for name, i in species.items() if rhs[i]}
        reactions.append((lhs_counts, rhs_counts, rates["kf"], rates["kr"]))
        labels.append(label)

    if not species:
        raise NetworkParseError("no species declared", 1, 1)
    if not reactions:
        raise NetworkParseError("no reactions declared", 1, 1)
    return network_from_reactions(list(species), reactions, labels)


def _format_float(v: float) -> str:
    return _FLOAT_FORMAT % v


def _complex_text(net: ReactionNetwork, vertex: int) -> str:
    comp = net.hypervertices[vertex]
    terms = []
    for name, count in zip(net.species, comp):
        if count == 1:
            terms.append(name)
        elif count > 1:
            terms.append(f"{count} {name}")
    return " + ".join(terms) if terms else "0"


def serialize_network(net: ReactionNetwork) -> str:
    """Canonical text form; parse(serialize(net)) is structurally equal."""
    out = [f"species {' '.join(net.species)}", ""]
    for e, (head, tail) in enumerate(net.edges):
        out.append(
            f"reaction {net.edge_labels[e]}: {_complex_text(net, head)} <-> "
            f"{_complex_text(net, tail)} ; kf={_format_float(net.kplus[e])} "
            f"kr={_format_float(net.kminus[e])}"
        )
    return "\n".join(out) + "\n"


def load_network(path) -> ReactionNetwork:
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


# -- scenario configs ---------------------------------------------------


def _known_keys(data: dict, keys, prefix: str = "") -> None:
    """ValueError naming the first key of data that is not in keys."""
    unknown = sorted(str(k) for k in set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {prefix}{unknown[0]}")


def _vector_from(value, net: ReactionNetwork, what: str) -> np.ndarray:
    if isinstance(value, dict):
        unknown = set(value) - set(net.species)
        if unknown:
            raise ValueError(f"{what}: unknown species {sorted(unknown)}")
        missing = set(net.species) - set(value)
        if missing:
            raise ValueError(f"{what}: missing species {sorted(missing)}")
        value = [value[s] for s in net.species]
    return _vec(_floats(value, what, 1), what, net.n_species)


@dataclass(eq=False)
class ScenarioConfig:
    """Validated simulation scenario.

    JSON schema (all paths relative to the scenario file):

        network:  path to a .crn file, or use network_text for inline
        x0:       list of floats, or {species: value}
        t_end:    final time (or t_span: [t0, t1])
        grid:     optional; list of times or {start, stop, num}
        x_ref:    optional reference state (list or dict)
        state:    optional state for pointwise commands (defaults to x0)
        schedule: optional {times, kplus, kminus} rate tables
        rtol, atol, positivity_floor: optional, rtol > 0 and the others >= 0 (as simulate)
        tol:      optional positive float, the classify tolerance (default 1e-8)

    Every number must be finite; a malformed field or an unknown key
    (top-level, grid or schedule) raises ValueError naming it.
    """

    network: ReactionNetwork
    x0: np.ndarray
    t_span: tuple[float, float]
    grid: np.ndarray | None = None
    x_ref: np.ndarray | None = None
    state: np.ndarray | None = None  # from_dict gives x0 when the scenario has none
    schedule: RateSchedule | None = None
    rtol: float = 1e-8
    atol: float = 1e-10
    positivity_floor: float = 1e-12
    tol: float = 1e-8
    network_path: str | None = None

    @classmethod
    def from_dict(cls, data: dict, base_dir=None) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("scenario must be a JSON object")
        _known_keys(data, _SCENARIO_KEYS)
        if "network_text" in data:
            if not isinstance(data["network_text"], str):
                raise ValueError("network_text must be a string")
            net = parse_network(data["network_text"])
            net_path = None
        elif "network" in data:
            if not isinstance(data["network"], str):
                raise ValueError("network must be a path string")
            net_path = str(pathlib.Path(base_dir if base_dir is not None else ".") / data["network"])
            net = load_network(net_path)
        else:
            raise ValueError("scenario needs 'network' (path) or 'network_text'")

        if "x0" not in data:
            raise ValueError("scenario needs 'x0'")
        x0 = _positive(_vector_from(data["x0"], net, "x0"), "x0")

        if "t_span" in data:
            t0, t1 = _time_span(_vec(_floats(data["t_span"], "t_span", 1), "t_span", 2))
        else:
            t0, t1 = _time_span(_floats(data.get("t_end", 10.0), "t_end", 0))

        grid = None
        if "grid" in data:
            g = data["grid"]
            if isinstance(g, dict):
                keys = ("start", "stop", "num")
                _known_keys(g, keys, "grid.")
                start, stop, num = (float(_floats(g.get(k), f"grid.{k}", 0)) for k in keys)
                if num < 0 or num != int(num):
                    raise ValueError("grid.num must be a non-negative integer")
                grid = np.linspace(start, stop, int(num))
            else:
                grid = _floats(g, "grid", 1)

        x_ref = _vector_from(data["x_ref"], net, "x_ref") if "x_ref" in data else None
        state = _vector_from(data["state"], net, "state") if "state" in data else x0

        schedule = None
        if "schedule" in data:
            s = data["schedule"]
            if not isinstance(s, dict):
                raise ValueError("schedule must be an object with times, kplus and kminus")
            ndims = {"times": 1, "kplus": 2, "kminus": 2}
            _known_keys(s, ndims, "schedule.")
            schedule = RateSchedule(**{k: _floats(s.get(k), f"schedule.{k}", n) for k, n in ndims.items()})
            schedule = _schedule_edges(schedule, net.n_edges)

        kwargs = {}
        for key in ("rtol", "atol", "positivity_floor", "tol"):
            value = data.get(key, getattr(cls, key))  # the class holds the defaults
            if value is not None:
                kwargs[key] = float(_floats(value, key, 0, positive=key == "tol"))

        scenario = cls(
            network=net,
            x0=x0,
            t_span=(t0, t1),
            grid=grid,
            x_ref=x_ref,
            state=state,
            schedule=schedule,
            network_path=net_path,
            **kwargs,
        )
        _tolerances(scenario.rtol, scenario.atol, scenario.positivity_floor)  # simulate's rule
        return scenario

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        p = pathlib.Path(path)
        with open(p, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls.from_dict(data, base_dir=p.parent)


# -- emission -----------------------------------------------------------
#
# Each artifact is a generator of text chunks, written as it is formatted
# (cli._write), so no artifact is ever held whole in memory; a CSV chunk
# is a block of up to _CSV_BLOCK rows, stacked from its columns only then,
# and a report's array is written _JSON_BLOCK entries a chunk, never listed whole.
# The emit_* functions join the same chunks for callers that want one string.


def trajectory_csv_chunks(traj: Trajectory, ledger: dict[str, np.ndarray], eta: np.ndarray):
    """CSV lines of a run and its ledger, dynamics.ledger(net, traj, x_ref)'s columns
    and eta: t, x_<name>..., D, epr, pepr, psi, psistar, eta_<i>..."""
    header = ["t"] + [f"x_{name}" for name in traj.species] + ["D", *LEDGER_KEYS[1:]]
    header += [f"eta_{i}" for i in range(eta.shape[1])]
    return _csv(header, traj.times[:, None], traj.states, *(ledger[k][:, None] for k in LEDGER_KEYS), eta)


_CSV_BLOCK = 256  # rows formatted by one %


def _csv(header: list[str], *columns: np.ndarray):
    """The CSV of the (T, k) column groups side by side, a block of rows at a time."""
    row = ",".join([_FLOAT_FORMAT] * sum(c.shape[1] for c in columns)) + "\n"  # one row's template
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):  # a chunk per block of rows, filled by one %
        block = np.hstack([c[start:start + _CSV_BLOCK] for c in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


_JSON_BLOCK = 256  # array entries formatted by one join
_ENTRY_TEXT = {"b": json.dumps, "i": int.__repr__, "u": int.__repr__, "f": float.__repr__}


def _scalar_json(v) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        v = repr(v)  # json has no nan/inf literals
    return json.dumps(v)


def _json_chunks(obj, indent: str):
    """obj's JSON text as json.dumps(indent=2, sort_keys=True) writes it, numpy values as
    Python ones and non-finite floats as their repr strings; indent is a newline and the
    current line's indent. A 1-d bool, int or float array comes _JSON_BLOCK entries at a time."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in _ENTRY_TEXT:
            yield from _bracketed("[", "]", _array_entries(obj, indent + "  "), indent)
            return
        obj = list(obj) if obj.ndim > 1 else obj.tolist()  # rows, or the entries of an object array
    if isinstance(obj, np.generic):
        obj = obj.item()
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        yield from _bracketed("{", "}", ((json.dumps(k) + ": ", _json_chunks(v, inner)) for k, v in items), indent)
    elif isinstance(obj, (list, tuple)):
        yield from _bracketed("[", "]", (("", _json_chunks(v, inner)) for v in obj), indent)
    else:
        yield _scalar_json(obj)


def _bracketed(opening: str, closing: str, entries, indent: str):
    """A JSON array or object of the (prefix, chunks) entries, one a line, indented past indent."""
    inner, first = indent + "  ", True
    for prefix, chunks in entries:
        yield (opening if first else ",") + inner + prefix
        yield from chunks
        first = False
    yield opening + closing if first else indent + closing


def _array_entries(arr: np.ndarray, inner: str):
    """A 1-d array as _bracketed entries, one per block: its entries' text, a line each."""
    for start in range(0, arr.size, _JSON_BLOCK):
        block = arr[start:start + _JSON_BLOCK]
        values = block.tolist()
        if block.dtype.kind == "f" and not np.isfinite(block).all():
            text = map(_scalar_json, values)  # one at a time: the non-finite ones become strings
        else:
            text = map(_ENTRY_TEXT[block.dtype.kind], values)
        yield "", (("," + inner).join(text),)


def report_json_chunks(report: dict):
    """Deterministic JSON text for decomposition/schedule/classification reports."""
    yield from _json_chunks(report, "\n")
    yield "\n"


def schedule_csv_chunks(schedule: RateSchedule, edge_labels):
    """CSV lines for a rate schedule: t, kf_<label>..., kr_<label>..."""
    header = ["t"] + [f"kf_{l}" for l in edge_labels] + [f"kr_{l}" for l in edge_labels]
    return _csv(header, schedule.times[:, None], schedule.kplus, schedule.kminus)


def emit_trajectory_csv(traj: Trajectory, ledger: dict[str, np.ndarray], eta: np.ndarray) -> str:
    """trajectory_csv_chunks as one string."""
    return "".join(trajectory_csv_chunks(traj, ledger, eta))


def emit_report_json(report: dict) -> str:
    """report_json_chunks as one string."""
    return "".join(report_json_chunks(report))


def emit_schedule_csv(schedule: RateSchedule, edge_labels) -> str:
    """schedule_csv_chunks as one string."""
    return "".join(schedule_csv_chunks(schedule, edge_labels))
