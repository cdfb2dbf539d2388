import weakref
from unittest import mock

import kinetics_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnflow import (
    ConvergenceError,
    EdgePair,
    KineticSplit,
    build_network,
    classify_state,
    entropy_production,
    find_steady_state,
    mass_action_flux,
    net_flux_raw,
    pseudo_entropy_production,
    wegscheider_check,
)
from crnflow.convex import CoshDissipation
from crnflow import kinetics
from crnflow.kinetics import map_blocks


def test_brusselator_fluxes_at_reference_state(brusselator):
    pair = mass_action_flux(brusselator, [1.0, 4.0])
    assert np.allclose(pair.jplus, [1.0, 3.0, 4.0], rtol=1e-15)
    assert np.allclose(pair.jminus, [1.0, 0.4, 0.1], rtol=1e-15)
    f, w = oracle.mass_action_force_activity(brusselator, [1.0, 4.0])
    assert np.allclose(f, [0.0, np.log(7.5), np.log(40.0)], atol=1e-14)
    assert np.allclose(w, pair.activity, rtol=1e-13)
    # flux = activity * sinh(force / 2), exactly the defining identity
    assert np.max(np.abs(w * np.sinh(f / 2) - pair.flux)) < 1e-12


def test_net_flux_raw_extends_polynomially(brusselator):
    x = np.array([0.7, 2.2])
    assert np.allclose(net_flux_raw(brusselator, x), mass_action_flux(brusselator, x).flux)
    # total on the closed orthant: no error, finite values
    v = net_flux_raw(brusselator, np.array([0.0, -1e-9]))
    assert np.all(np.isfinite(v))


def test_net_flux_raw_refuses_a_state_of_the_wrong_length():
    # A <-> B, B <-> C: a fourth component used to be ignored, a short state an IndexError
    net = build_network(["A", "B", "C"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1), (1, 2)], [1.0, 1.0], [1.0, 1.0])
    assert net_flux_raw(net, [1.0, 2.0, 3.0]).tolist() == [-1.0, -1.0]
    for bad in ([1.0, 2.0, 3.0, 99.0], [1.0, 2.0]):
        with pytest.raises(ValueError, match="state must have length 3"):
            net_flux_raw(net, bad)
    for bad in ([[1.0, 2.0, 3.0]], 1.0):
        with pytest.raises(ValueError, match="state must be a 1-d vector"):
            net_flux_raw(net, bad)


def _block_flux(net, xs, *rates):
    return map_blocks(net, xs, lambda rows, live, pair: {"flux": pair.flux}, *rates)["flux"]


def test_map_blocks_take_only_rate_tables(brusselator):
    # a scalar or a vector used to broadcast unchecked: kplus=np.inf gave infinite fluxes
    xs = np.array([[1.0, 4.0], [2.0, 1.0]])
    table = np.full((2, 3), 2.0)
    want = _block_flux(brusselator, xs)
    assert _block_flux(brusselator, xs, None, None).tobytes() == want.tobytes()
    assert np.isfinite(_block_flux(brusselator, xs, table, table)).all()
    for bad in (2.0, np.inf, np.full(3, 2.0), np.full((3, 3), 2.0), np.full((2, 2), 2.0)):
        for rates in ((bad, None), (None, bad), (bad, table)):
            with pytest.raises(ValueError, match=r"rate tables must have shape \(2, 3\)"):
                _block_flux(brusselator, xs, *rates)


def test_map_blocks_fill_columns_at_full_length(brusselator):
    """Columns come back with T entries (or rows) in fn's dtype, NaN at the
    rows with a component at or below zero, in blocks of 2 rows as in one,
    and empty with no samples; an int column needs every row live."""
    xs = np.array([[1.0, 4.0], [0.0, 1.0], [2.0, 1.0], [3.0, 2.0], [1.0, -1.0]])
    live, first = np.all(xs > 0, axis=1), mass_action_flux(brusselator, xs[0])

    def fn(rows, live, pair):
        return {"flux": pair.flux, "epr": entropy_production(pair)}

    def counts(rows, live, pair):
        return {"n": np.full(live.sum(), 4)}

    for rows in (kinetics._BATCH_ROWS, 2):
        with mock.patch.object(kinetics, "_BATCH_ROWS", rows):
            cols, ints = map_blocks(brusselator, xs, fn), map_blocks(brusselator, xs[live], counts)["n"]
            with pytest.raises(ValueError, match="NaN to integer"):
                map_blocks(brusselator, xs, counts)
        assert cols["flux"].shape == (5, 3) and cols["epr"].shape == (5,)
        assert np.isnan(cols["flux"][~live]).all() and np.isnan(cols["epr"][~live]).all()
        assert cols["flux"][0].tobytes() == first.flux.tobytes() and cols["epr"][0] == entropy_production(first)
        assert ints.dtype == int and ints.tolist() == [4, 4, 4]
    assert map_blocks(brusselator, xs[:0], fn)["flux"].shape == (0, 3)  # no samples, empty columns


def test_map_blocks_drop_each_pair_before_the_next(brusselator):
    """No block's EdgePair is alive while the next block's kinetics run."""
    pairs = []
    one_way = kinetics._one_way

    def checked(*args):
        assert all(pair() is None for pair in pairs)
        return one_way(*args)

    xs = np.exp(np.random.default_rng(1).normal(size=(7, 2)))
    with mock.patch.object(kinetics, "_BATCH_ROWS", 2), mock.patch.object(kinetics, "_one_way", checked):
        map_blocks(brusselator, xs, lambda rows, live, pair: pairs.append(weakref.ref(pair)) or {})
    assert len(pairs) == 4


def test_edge_pair_validation():
    with pytest.raises(ValueError, match="positive"):
        EdgePair(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        EdgePair(np.array([1.0]), np.array([1.0, 1.0]))


def test_kinetic_split_roundtrip():
    rng = np.random.default_rng(7)
    kp = rng.uniform(1e-3, 1e3, 50)
    km = rng.uniform(1e-3, 1e3, 50)
    split = KineticSplit.from_rates(kp, km)
    kp2, km2 = split.rates()
    assert np.max(np.abs(kp2 / kp - 1.0)) < 1e-14
    assert np.max(np.abs(km2 / km - 1.0)) < 1e-14
    assert np.allclose(split.kappa, np.sqrt(kp * km), rtol=1e-15)
    assert np.allclose(split.keq, kp / km, rtol=1e-15)


def test_epr_spot_value():
    pair = EdgePair(np.array([2.0]), np.array([1.0]))
    assert abs(entropy_production(pair) - np.log(2.0)) < 1e-12
    assert abs(pseudo_entropy_production(pair) - 2.0 / 3.0) < 1e-12


def test_epr_as_metric_pairing():
    # pEPR = <j, G j> with the cosh metric at j, since w^2 + j^2 = (jp + jm)^2
    rng = np.random.default_rng(11)
    jp = rng.uniform(0.1, 5.0, 6)
    jm = rng.uniform(0.1, 5.0, 6)
    pair = EdgePair(jp, jm)
    assert np.allclose(pair.activity**2 + pair.flux**2, (jp + jm) ** 2, rtol=1e-13)
    diss = CoshDissipation(pair.activity)
    quad = float(pair.flux @ (diss.hessian_diag(pair.flux) * pair.flux))
    assert abs(quad - pseudo_entropy_production(pair)) < 1e-12 * (1.0 + quad)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=6, max_size=6),
)
def test_epr_dominates_pseudo_epr(jps, jms):
    pair = EdgePair(np.array(jps), np.array(jms[: len(jps)]))
    epr = entropy_production(pair)
    pepr = pseudo_entropy_production(pair)
    assert pepr >= 0.0
    assert epr >= pepr - 1e-12 * (1.0 + abs(epr))


def test_wegscheider_brusselator(brusselator, brusselator_eq):
    wc = wegscheider_check(brusselator)
    assert not wc["is_equilibrium"]
    assert np.allclose(wc["cycle_affinity"], [np.log(300.0)], atol=1e-12)
    # residual force is orthogonal to the image of stoich.T
    assert np.max(np.abs(wc["residual_force"] @ brusselator.stoich.T)) < 1e-10

    wc_eq = wegscheider_check(brusselator_eq)
    assert wc_eq["is_equilibrium"]
    assert np.max(np.abs(wc_eq["cycle_affinity"])) < 1e-14
    # log K = -stoich.T y reproduced exactly
    logk = np.log(brusselator_eq.kplus / brusselator_eq.kminus)
    assert np.allclose(-brusselator_eq.stoich.T @ wc_eq["potential"], logk, atol=1e-12)


def test_steady_state_brusselator(brusselator):
    x = find_steady_state(brusselator, [2.0, 2.0])
    assert np.allclose(x, [1.0, 31.0 / 11.0], atol=1e-10)
    out = classify_state(brusselator, x)
    assert out["label"] == "steady"
    assert out["species_residual"] < 1e-8
    assert out["complex_residual"] > 1e-3  # not complex balanced


def test_detailed_balance_state(brusselator_eq):
    x = find_steady_state(brusselator_eq, [2.0, 2.0])
    assert np.allclose(x, [1.0, 3.0], atol=1e-10)
    out = classify_state(brusselator_eq, x)
    assert out["label"] == "detailed_balance"
    assert out["flux_residual"] < 1e-10


def test_complex_balanced_state(cycle3):
    # for a graph network, steady and complex balanced coincide
    x = find_steady_state(cycle3, [1.0, 1.0, 1.0])
    out = classify_state(cycle3, x)
    assert out["label"] == "complex_balanced"
    assert out["complex_residual"] < 1e-10
    assert out["flux_residual"] > 1e-3  # current still circulates


def test_classification_is_nested(brusselator):
    out = classify_state(brusselator, [1.0, 4.0])
    assert out["label"] == "transient"
    assert out["species_residual"] <= out["complex_residual"] * (
        1 + np.max(np.abs(brusselator.composition))
    ) + 1e-12


def test_steady_state_respects_conserved_leaf(abc):
    x0 = np.array([1.0, 2.0, 0.5])
    x = find_steady_state(abc, x0)
    assert np.max(np.abs(abc.conserved(x) - abc.conserved(x0))) < 1e-10
    assert classify_state(abc, x)["label"] == "detailed_balance"


def test_steady_state_reports_failure():
    from crnflow import build_network

    net = build_network(["X"], [(2,), (3,)], [(0, 1)], [1.0], [1e-12])
    with pytest.raises(ConvergenceError):
        find_steady_state(net, [1.0], max_iter=2)


def test_flux_requires_positive_state(brusselator):
    with pytest.raises(ValueError, match="positive"):
        mass_action_flux(brusselator, [1.0, 0.0])
