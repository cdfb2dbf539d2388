import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnflow import (
    NetworkParseError,
    RateSchedule,
    ScenarioConfig,
    Trajectory,
    emit_report_json,
    emit_schedule_csv,
    emit_trajectory_csv,
    networks_equal,
    parse_network,
    report_json_chunks,
    schedule_csv_chunks,
    serialize_network,
    trajectory_csv_chunks,
)
from crnflow.fileio import _csv, _format_float

BRUSSELATOR_TEXT = """\
# autocatalytic two-species model
species X1 X2

reaction r1: 0 <-> X1 ; kf=1 kr=1
reaction r2: X1 <-> X2 ; kf=3 kr=0.1
reaction r3: 2 X1 + X2 <-> 3 X1 ; kf=1 kr=0.1
"""


def test_parse_brusselator_matrices(brusselator):
    net = parse_network(BRUSSELATOR_TEXT)
    assert net.species == ("X1", "X2")
    assert net.hypervertices == ((0, 0), (1, 0), (0, 1), (2, 1), (3, 0))
    assert net.edges == ((0, 1), (1, 2), (3, 4))
    assert np.array_equal(net.stoich, [[-1, 1, -1], [0, -1, 1]])
    assert networks_equal(net, brusselator)


def test_empty_complex_on_either_side():
    net = parse_network("species X\nreaction decay: X <-> 0 ; kf=2 kr=0.5\n")
    assert net.hypervertices == ((1,), (0,))
    assert net.edges == ((0, 1),)
    assert net.kplus[0] == 2.0 and net.kminus[0] == 0.5


def test_shared_complexes_deduplicate():
    text = (
        "species A B C\n"
        "reaction r1: A <-> B ; kf=1 kr=1\n"
        "reaction r2: B <-> C ; kf=1 kr=1\n"
        "reaction r3: C <-> A ; kf=1 kr=1\n"
    )
    net = parse_network(text)
    assert net.n_hypervertices == 3
    assert net.edges == ((0, 1), (1, 2), (2, 0))


def test_roundtrip_is_structurally_identical(brusselator, cycle3, rand5):
    for net in (brusselator, cycle3, rand5):
        text = serialize_network(net)
        again = parse_network(text)
        assert networks_equal(net, again)
        # serialization is canonical: a second pass emits identical bytes
        assert serialize_network(again) == text


def test_roundtrip_preserves_invariants_up_to_vertex_order(abc):
    # head complex written second at build time; the parser renumbers
    # vertices by first appearance, so compare invariants instead
    again = parse_network(serialize_network(abc))
    assert again.species == abc.species
    assert again.edge_labels == abc.edge_labels
    assert np.array_equal(again.stoich, abc.stoich)
    assert np.array_equal(again.kplus, abc.kplus)
    assert serialize_network(again) == serialize_network(abc)


def test_roundtrip_preserves_awkward_rates():
    net = parse_network(
        "species X Y\nreaction r: X <-> Y ; kf=0.1 kr=1e-15\n"
    )
    again = parse_network(serialize_network(net))
    assert again.kplus[0] == 0.1  # exact, not 0.10000000000000001-ish drift
    assert again.kminus[0] == 1e-15


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("species A\nrxn r1: A <-> 0 ; kf=1 kr=1\n", 2, "expected 'species' or 'reaction'"),
        ("species A\nreaction r1: A <-> Q ; kf=1 kr=1\n", 2, "unknown species 'Q'"),
        ("species A\nreaction r1: A <-> A ; kf=1 kr=1\n", 2, "self-loop"),
        (
            "species A B\nreaction r1: A <-> B ; kf=1 kr=1\nreaction r1: B <-> A ; kf=1 kr=1\n",
            3,
            "duplicate reaction label 'r1'",
        ),
        ("species A\nreaction r1: A <-> 0 ; kf=oops kr=1\n", 2, "bad float"),
        ("species A B\nreaction r1: 0 A <-> B ; kf=1 kr=1\n", 2, "zero coefficient"),
        ("species A B\nreaction r1: A <-> B ; kf=1\n", 2, "missing kr"),
        ("species A\nreaction r1: A <-> 0 ; kf=1 kr=1\nspecies B\n", 3, "before reactions"),
        ("species A\nreaction r1: A <-> 0 ; kf=1 kf=2 kr=1\n", 2, "duplicate kf"),
        ("species A\nreaction r1: A <-> 0 ; kf=1 kr=-2\n", 2, "must be finite and > 0"),
        ("species A\nreaction r1: <-> A ; kf=1 kr=1\n", 2, "empty complex"),
        ("species A\nreaction r1: A + <-> 0 ; kf=1 kr=1\n", 2, "empty term"),
        ("species A B\nreaction r1: A B <-> 0 ; kf=1 kr=1\n", 2, "malformed term"),
        ("species A\nreaction r1: A 0 ; kf=1 kr=1\n", 2, "expected '<->'"),
        ("species A\nreaction r1: A <-> 0 kf=1 kr=1\n", 2, "expected ';'"),
        ("species A A\nreaction r1: A <-> 0 ; kf=1 kr=1\n", 1, "duplicate species"),
        ("species 2bad\nreaction r1: 2bad <-> 0 ; kf=1 kr=1\n", 1, "invalid species name"),
        ("# nothing here\n", 1, "no species"),
        ("species A\n", 1, "no reactions"),
    ],
)
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(NetworkParseError) as exc:
        parse_network(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)
    assert exc.value.col >= 1


def test_parse_error_column_points_at_offender():
    with pytest.raises(NetworkParseError) as exc:
        parse_network("species A B\nreaction r1: A <-> B + Qq ; kf=1 kr=1\n")
    line = "reaction r1: A <-> B + Qq ; kf=1 kr=1"
    assert exc.value.line == 2
    assert line[exc.value.col - 1 :].startswith("Qq")


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nspecies A  # trailing\n\nreaction r1: A <-> 0 ; kf=1 kr=1 # note\n"
    net = parse_network(text)
    assert net.species == ("A",)
    assert net.n_edges == 1


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=120))
def test_parser_totality_on_noise(text):
    # arbitrary input must either parse or raise the structured error
    try:
        net = parse_network(text)
    except NetworkParseError:
        return
    assert net.n_species >= 1 and net.n_edges >= 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.floats(1e-6, 1e6, allow_nan=False),
            st.floats(1e-6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_roundtrip_on_generated_two_species_networks(rows):
    lines = ["species A B"]
    seen = set()
    for i, (a, b, kf, kr) in enumerate(rows):
        lhs = " + ".join(filter(None, [f"{a} A" if a else "", f"{b} B" if b else ""])) or "0"
        rhs = f"{a + 1} A"
        if (lhs, rhs) in seen or lhs == rhs:
            continue
        seen.add((lhs, rhs))
        lines.append(f"reaction e{i}: {lhs} <-> {rhs} ; kf={kf!r} kr={kr!r}")
    if len(lines) == 1:
        return
    net = parse_network("\n".join(lines))
    assert networks_equal(net, parse_network(serialize_network(net)))


# -- trajectory CSV -------------------------------------------------------


def _tiny_trajectory():
    times = np.array([0.0, 0.5])
    states = np.array([[1.0, 2.0], [0.75, 2.25]])
    ledger = {
        "divergence": np.array([0.25, np.nan]),
        "epr": np.array([1.0, 2.0]),
        "pepr": np.array([0.5, 1.5]),
        "psi": np.array([0.125, 0.25]),
        "psistar": np.array([0.875, 1.75]),
    }
    eta = np.array([[3.0], [3.0]])
    return Trajectory(times=times, states=states, ledger=ledger, eta=eta, species=("A", "B"))


def test_trajectory_csv_golden():
    text = emit_trajectory_csv(_tiny_trajectory())
    assert text == (
        "t,x_A,x_B,D,epr,pepr,psi,psistar,eta_0\n"
        "0,1,2,0.25,1,0.5,0.125,0.875,3\n"
        "0.5,0.75,2.25,nan,2,1.5,0.25,1.75,3\n"
    )


def test_trajectory_csv_full_precision():
    traj = _tiny_trajectory()
    traj.states[0, 0] = 1 / 3
    line = emit_trajectory_csv(traj).splitlines()[1]
    assert line.split(",")[1] == "0.33333333333333331"


def test_trajectory_csv_empty_is_header_only():
    traj = Trajectory(
        times=np.empty(0),
        states=np.empty((0, 2)),
        ledger={k: np.empty(0) for k in ("divergence", "epr", "pepr", "psi", "psistar")},
        eta=np.empty((0, 1)),
        species=("A", "B"),
    )
    assert emit_trajectory_csv(traj) == "t,x_A,x_B,D,epr,pepr,psi,psistar,eta_0\n"


@pytest.mark.parametrize("n_rows", [0, 1, 3, 255, 256, 257, 513])
def test_csv_rows_match_the_per_value_format(n_rows):
    # the row-block template against the per-value join it replaced, on awkward
    # floats, for tables shorter than a block, a block long and past one or two
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, -7.0, 1 / 3, 2.0**53 + 2]
    table = np.resize(np.array(values), (n_rows, len(values) - 1))  # each row a rotation of the last
    if n_rows:
        table[-1] = table[-1][::-1]
    header = [f"c{i}" for i in range(table.shape[1])]
    oracle = "\n".join([",".join(header)] + [",".join(_format_float(v) for v in row) for row in table]) + "\n"
    chunks = list(_csv(header, table))
    assert "".join(chunks) == oracle
    assert oracle.count("\n") == n_rows + 1
    assert len(chunks) == 1 + -(-n_rows // 256)  # the header, then one chunk per block of rows


def test_simulated_trajectory_csv_parses_back(ab):
    from crnflow import simulate

    traj = simulate(ab, [1.0, 1.0], (0.0, 1.0), grid=np.linspace(0, 1, 5))
    lines = emit_trajectory_csv(traj).splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "x_A", "x_B"]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape[1] == len(header)
    assert np.all(np.diff(data[:, 0]) > 0)


# -- scenario configs ------------------------------------------------------


def _scenario_dict(**extra):
    base = {"network_text": BRUSSELATOR_TEXT, "x0": [1.0, 1.0], "t_end": 5.0}
    base.update(extra)
    return base


def test_scenario_minimal():
    sc = ScenarioConfig.from_dict(_scenario_dict())
    assert sc.t_span == (0.0, 5.0)
    assert sc.grid is None and sc.schedule is None and sc.tol is None
    assert sc.network.n_edges == 3
    assert np.array_equal(sc.x0, [1.0, 1.0])


def test_scenario_network_path(tmp_path):
    (tmp_path / "net.crn").write_text(BRUSSELATOR_TEXT)
    cfg = {"network": "net.crn", "x0": {"X1": 2.0, "X2": 0.5}, "t_span": [1.0, 4.0]}
    (tmp_path / "scen.json").write_text(json.dumps(cfg))
    sc = ScenarioConfig.load(tmp_path / "scen.json")
    assert sc.network_path == str(tmp_path / "net.crn")
    assert np.array_equal(sc.x0, [2.0, 0.5])  # dict keyed by species name
    assert sc.t_span == (1.0, 4.0)


def test_scenario_grid_forms():
    sc = ScenarioConfig.from_dict(_scenario_dict(grid=[0.0, 1.0, 2.0]))
    assert np.array_equal(sc.grid, [0.0, 1.0, 2.0])
    sc = ScenarioConfig.from_dict(_scenario_dict(grid={"start": 0, "stop": 5, "num": 11}))
    assert sc.grid.size == 11 and sc.grid[-1] == 5.0


def test_scenario_schedule():
    sched = {
        "times": [0.0, 5.0],
        "kplus": [[1, 3, 1], [2, 3, 1]],
        "kminus": [[1, 0.1, 0.1], [1, 0.1, 0.1]],
    }
    sc = ScenarioConfig.from_dict(_scenario_dict(schedule=sched))
    assert isinstance(sc.schedule, RateSchedule)
    kp, _ = sc.schedule(2.5)
    assert kp[0] == pytest.approx(1.5)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        ({"x0": None}, "x0"),
        ({"x0": [1.0]}, "length 2"),
        ({"x0": [1.0, -1.0]}, "strictly positive"),
        ({"x0": {"X1": 1.0}}, "missing species"),
        ({"x0": {"X1": 1.0, "X2": 1.0, "X9": 1.0}}, "unknown species"),
        ({"t_span": [3.0, 3.0]}, "t1 > t0"),
        ({"rtol": -1e-8}, "rtol must be positive"),
        ({"tol": 0.0}, "tol must be positive"),
        (
            {"schedule": {"times": [0, 1], "kplus": [[1, 2], [1, 2]], "kminus": [[1, 2], [1, 2]]}},
            "edge count",
        ),
        ({"grid": {"start": 0}}, "grid.stop"),
        ({"grid": {"start": 0, "stop": 1, "num": 2.5}}, "grid.num"),
        ({"grid": [0.0, float("nan")]}, "grid"),
        ({"schedule": {"times": [0, 1], "kminus": [[1, 1, 1], [1, 1, 1]]}}, "schedule.kplus"),
        ({"schedule": [0, 1]}, "schedule"),
        ({"t_end": [1]}, "t_end"),
        ({"t_span": [0.0, 1.0, 2.0]}, "t_span"),
        ({"x0": {"X1": [1], "X2": 1.0}}, "x0"),
        ({"network_text": 5}, "network_text"),
        ({"t_end": float("inf")}, "t_end"),
        ({"t_span": [float("-inf"), 1.0]}, "t_span"),
        ({"rtol": float("nan")}, "rtol"),
        ({"atol": [1e-10]}, "atol"),
        ({"tol": float("nan")}, "tol"),
        ({"state": [float("inf"), 1.0]}, "state"),
        ({"x_ref": [1.0, float("nan")]}, "x_ref"),
        (
            {"schedule": {"times": [0, float("nan"), 2], "kplus": [[1, 3, 1]] * 3, "kminus": [[1, 1, 1]] * 3}},
            "schedule.times",
        ),
        (
            {"schedule": {"times": [0, 2], "kplus": [[1, 3, 1], [1, float("inf"), 1]], "kminus": [[1, 1, 1]] * 2}},
            "schedule.kplus",
        ),
        ({"t_ned": 40}, "unknown key t_ned"),
        ({"rtoll": 1e-6}, "unknown key rtoll"),
        ({"grid": {"start": 0, "stop": 1, "num": 3, "step": 0.5}}, "unknown key grid.step"),
        (
            {"schedule": {"times": [0, 1], "kplus": [[1, 3, 1]] * 2, "kminus": [[1, 1, 1]] * 2, "kmninus": 1}},
            "unknown key schedule.kmninus",
        ),
    ],
)
def test_scenario_validation(mutate, fragment):
    data = _scenario_dict()
    data.update(mutate)
    if data.get("x0") is None:
        del data["x0"]
    with pytest.raises(ValueError, match=fragment):
        ScenarioConfig.from_dict(data)


def test_scenario_needs_network():
    with pytest.raises(ValueError, match="network"):
        ScenarioConfig.from_dict({"x0": [1.0], "t_end": 1.0})


def test_scenario_network_must_be_a_path():
    with pytest.raises(ValueError, match="network must be a path"):
        ScenarioConfig.from_dict({"network": 5, "x0": [1.0], "t_end": 1.0})


def test_scenario_null_tolerances_keep_the_defaults():
    sc = ScenarioConfig.from_dict(_scenario_dict(rtol=None, tol=None))
    assert (sc.rtol, sc.atol, sc.positivity_floor, sc.tol) == (1e-8, 1e-10, 1e-12, None)


# -- report JSON and schedule CSV ------------------------------------------


def test_report_json_deterministic_and_typed():
    report = {
        "b": np.float64(1.5),
        "a": np.array([1, 2]),
        "nested": {"flag": np.bool_(True), "n": np.int64(3)},
    }
    text = emit_report_json(report)
    assert text == emit_report_json(report)
    data = json.loads(text)
    assert data == {"a": [1, 2], "b": 1.5, "nested": {"flag": True, "n": 3}}
    assert list(data) == ["a", "b", "nested"]  # sorted keys


def test_report_json_nonfinite_values():
    data = json.loads(emit_report_json({"bad": np.nan, "worse": np.array([np.inf, 1.0])}))
    assert data["bad"] == "nan"
    assert data["worse"] == ["inf", 1.0]


def test_schedule_csv(brusselator):
    sched = RateSchedule.constant(brusselator.kplus, brusselator.kminus, 0.0, 2.0)
    text = emit_schedule_csv(sched, brusselator.edge_labels)
    lines = text.splitlines()
    assert lines[0] == "t,kf_r1,kf_r2,kf_r3,kr_r1,kr_r2,kr_r3"
    assert lines[1] == "0,1,3,1,1,0.10000000000000001,0.10000000000000001"
    assert len(lines) == 3


# -- streamed emission against the whole-string code it replaced ----------


def _old_csv(header, table):
    row = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([",".join(header), *(row % tuple(values.tolist()) for values in table), ""])


def _old_json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _old_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _old_json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _old_json_ready(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _old_report_json(report):
    return json.dumps(_old_json_ready(report), indent=2, sort_keys=True) + "\n"


_VALUES = st.one_of(st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]))


@st.composite
def _tables(draw, n_cols):
    n_rows = draw(st.integers(0, 6))
    return np.array(draw(st.lists(_VALUES, min_size=n_rows * n_cols, max_size=n_rows * n_cols))).reshape(n_rows, n_cols)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_species=st.integers(1, 3), n_cons=st.integers(0, 2))
def test_streamed_trajectory_csv_matches_the_whole_string_code(data, n_species, n_cons):
    table = data.draw(_tables(1 + n_species + 5 + n_cons))
    keys = ("divergence", "epr", "pepr", "psi", "psistar")
    traj = Trajectory(
        times=table[:, 0],
        states=table[:, 1:1 + n_species],
        ledger={k: table[:, 1 + n_species + i] for i, k in enumerate(keys)},
        eta=table[:, 1 + n_species + 5:],
        species=tuple(f"S{i}" for i in range(n_species)),
    )
    header = ["t", *(f"x_S{i}" for i in range(n_species)), "D", *keys[1:], *(f"eta_{i}" for i in range(n_cons))]
    want = _old_csv(header, table)
    assert "".join(trajectory_csv_chunks(traj)) == want
    assert emit_trajectory_csv(traj) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_edges=st.integers(1, 3))
def test_streamed_schedule_csv_matches_the_whole_string_code(data, n_edges):
    n = data.draw(st.integers(2, 6))
    kp = np.array(data.draw(st.lists(st.floats(0.125, 1e300), min_size=n * n_edges, max_size=n * n_edges)))
    sched = RateSchedule(np.arange(n) - 0.5, kp.reshape(n, n_edges), kp[::-1].reshape(n, n_edges))
    labels = [f"r{e}" for e in range(n_edges)]
    header = ["t", *(f"kf_{l}" for l in labels), *(f"kr_{l}" for l in labels)]
    want = _old_csv(header, np.hstack([sched.times[:, None], sched.kplus, sched.kminus]))
    assert "".join(schedule_csv_chunks(sched, labels)) == want
    assert emit_schedule_csv(sched, labels) == want


_SCALARS = st.one_of(
    _VALUES, st.integers(-(2**62), 2**62), st.booleans(), st.text(max_size=3), st.none(),
    _VALUES.map(np.float64), st.integers(-100, 100).map(np.int64), st.booleans().map(np.bool_),
)
_ARRAYS = st.one_of(
    st.lists(_VALUES, max_size=5).map(lambda v: np.array(v, dtype=float)),
    st.lists(_VALUES, max_size=6).map(lambda v: np.resize(np.array(v, dtype=float), (2, len(v) // 2))),
    st.lists(st.integers(-100, 100), max_size=5).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=5).map(lambda v: np.array(v, dtype=bool)),
)
_REPORTS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _REPORTS, max_size=4))
def test_streamed_report_json_matches_the_whole_string_code(report):
    want = _old_report_json(report)
    assert "".join(report_json_chunks(report)) == want
    assert emit_report_json(report) == want
