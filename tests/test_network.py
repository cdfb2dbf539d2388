import dataclasses
import types

import numpy as np
import pytest
from hypergraphs import chain_hypergraph

import crnflow
from crnflow import (
    CoshDissipation,
    build_network,
    force_split,
    graph_laplacian,
    mass_action_flux,
    network_from_reactions,
    networks_equal,
    simulate,
    velocity_dual,
    wegscheider_check,
)


def test_brusselator_matrices(brusselator):
    net = brusselator
    assert net.n_species == 2
    assert net.n_hypervertices == 5
    assert net.n_edges == 3
    assert net.composition.tolist() == [[0, 1, 0, 2, 3], [0, 0, 1, 1, 0]]
    assert net.stoich.tolist() == [[-1, 1, -1], [0, -1, 1]]
    assert net.cycle_basis.T.tolist() == [[0, 1, 1]]
    assert net.cons_basis.shape == (0, 2)
    assert np.array_equal(net.stoich, net.composition @ net.incidence)


def test_incidence_signs(brusselator):
    b = brusselator.incidence
    for e, (head, tail) in enumerate(brusselator.edges):
        assert b[head, e] == 1
        assert b[tail, e] == -1
        assert np.sum(b[:, e] != 0) == 2


def test_abc_conserved_pair(abc):
    assert abc.stoich.tolist() == [[-1], [-1], [1]]
    assert abc.cons_basis.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert abc.n_cycles == 0
    assert np.allclose(abc.conserved([1.0, 2.0, 3.0]), [4.0, 5.0])


def test_homology_relations_hold_exactly(brusselator, abc, rand5):
    for net in (brusselator, abc, rand5):
        assert np.all(net.cons_basis @ net.stoich == 0)
        assert np.all(net.stoich @ net.cycle_basis == 0)
        rank = np.linalg.matrix_rank(net.stoich.astype(float))
        assert net.n_conserved == net.n_species - rank
        assert net.n_cycles == net.n_edges - rank


def test_discrete_operators(brusselator):
    net = brusselator
    rng = np.random.default_rng(3)
    y = rng.normal(size=net.n_species)
    j = rng.normal(size=net.n_edges)
    # grad/div are mutually adjoint, curl annihilates gradients
    assert np.isclose(net.grad(y) @ j, y @ net.div(j))
    assert np.allclose(net.curl(net.grad(y)), 0.0, atol=1e-14)
    z = rng.normal(size=net.n_cycles)
    assert np.allclose(net.div(net.curl_adjoint(z)), 0.0, atol=1e-14)
    with pytest.raises(ValueError):
        net.grad(np.ones(net.n_species + 1))
    with pytest.raises(ValueError):
        net.div(np.ones(net.n_edges + 1))


def test_graph_laplacian_two_state():
    net = build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [2.0], [1.0])
    assert net.is_graph
    assert graph_laplacian(net).tolist() == [[2.0, -1.0], [-2.0, 1.0]]
    # linear dynamics agrees with -stoich @ flux
    x = np.array([0.3, 1.7])
    from crnflow import mass_action_flux

    assert np.allclose(-graph_laplacian(net) @ x, -net.stoich @ mass_action_flux(net, x).flux)


def test_graph_laplacian_rejects_hypergraph(brusselator):
    with pytest.raises(ValueError, match="graph"):
        graph_laplacian(brusselator)


def test_validation_errors():
    with pytest.raises(ValueError, match="duplicate species"):
        build_network(["A", "A"], [(1, 0)], [], [], [])
    with pytest.raises(ValueError, match="duplicate hypervertices"):
        build_network(["A"], [(1,), (1,)], [(0, 1)], [1.0], [1.0])
    with pytest.raises(ValueError, match="self-loop"):
        build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 0)], [1.0], [1.0])
    with pytest.raises(ValueError, match="undefined hypervertex"):
        build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 2)], [1.0], [1.0])
    with pytest.raises(ValueError, match="negative"):
        build_network(["A", "B"], [(1, -1), (0, 1)], [(0, 1)], [1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [0.0], [1.0])
    with pytest.raises(ValueError, match="entries"):
        build_network(["A", "B"], [(1, 0, 0)], [], [], [])
    with pytest.raises(ValueError, match="edge_labels"):
        build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [1.0], [1.0], ["a", "b"])


def test_validation_errors_on_missing_or_repeated_parts():
    with pytest.raises(ValueError, match="^at least one species is required$"):
        build_network([], [], [], [], [])
    with pytest.raises(ValueError, match="^species names must be non-empty$"):
        build_network([""], [(1,)], [], [], [])
    with pytest.raises(ValueError, match="^at least one hypervertex is required$"):
        build_network(["A"], [], [], [], [])
    with pytest.raises(ValueError, match="^duplicate edge labels$"):
        build_network(["A", "B"], [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)], [1.0, 1.0], [1.0, 1.0], ["r", "r"])


def test_network_without_edges_holds_its_state():
    """No edges: the image of stoich is empty, every species is conserved."""
    net = build_network(["A"], [(1,)], [], [], [])
    assert (net.n_edges, net.n_cycles, net.n_conserved) == (0, 0, 1)
    assert np.all(simulate(net, [2.0], 1.0).states == 2.0)


def test_default_edge_labels(ab):
    assert ab.edge_labels == ("r1",)


def test_with_rates_keeps_topology(brusselator):
    net2 = brusselator.with_rates([1.0, 3.0, 1.0], [1.0, 1.0, 3.0])
    assert net2.hypervertices == brusselator.hypervertices
    assert net2.edges == brusselator.edges
    assert not networks_equal(net2, brusselator)
    assert networks_equal(brusselator, brusselator)


def test_network_from_reactions_dedupes_hypervertices():
    net = network_from_reactions(
        ["X1", "X2"],
        [
            ({}, {"X1": 1}, 1.0, 1.0),
            ({"X1": 1}, {"X2": 1}, 3.0, 0.1),
            ({"X1": 2, "X2": 1}, {"X1": 3}, 1.0, 0.1),
        ],
    )
    assert net.hypervertices == ((0, 0), (1, 0), (0, 1), (2, 1), (3, 0))
    assert net.edges == ((0, 1), (1, 2), (3, 4))
    with pytest.raises(ValueError, match="unknown species"):
        network_from_reactions(["X1"], [({"Y": 1}, {"X1": 1}, 1.0, 1.0)])


def test_hypervertex_entry_beyond_int64_is_rejected():
    big = 2**63
    with pytest.raises(ValueError, match="hypervertex 0 has an entry beyond the int64 range"):
        build_network(["A", "B"], [(big, 0), (0, 1)], [(0, 1)], [1.0], [1.0])
    # the largest int64 itself is accepted
    net = build_network(["A", "B"], [(big - 1, 0), (0, 1)], [(0, 1)], [1.0], [1.0])
    assert net.head_compositions.tolist() == [[big - 1], [0]]


def test_non_integer_entries_are_rejected_not_truncated():
    """A composition, reaction count or edge index of 1.5 used to truncate to 1;
    integral floats such as 1.0 still pass."""
    with pytest.raises(ValueError, match="hypervertex 0 entries must be integers, got 1.5"):
        build_network(["A"], [[1.5], [0]], [(0, 1)], [1.0], [1.0])
    with pytest.raises(ValueError, match="edge 0 indices must be integers, got 0.5"):
        build_network(["A"], [[1], [0]], [(0.5, 1)], [1.0], [1.0])
    with pytest.raises(ValueError, match="reaction counts must be integers, got 1.5"):
        network_from_reactions(["A", "B"], [({"A": 1.5}, {"B": 1}, 1.0, 1.0)])
    net = build_network(["A"], [[1.0], [0.0]], [(0.0, 1.0)], [1.0], [1.0])
    assert net.hypervertices == ((1,), (0,)) and net.edges == ((0, 1),)
    assert network_from_reactions(["A"], [({"A": 2.0}, {}, 1.0, 1.0)]).hypervertices == ((2,), (0,))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_structure_products_go_through_the_operators(seed):
    """Solvers and checks multiply by stoich, cycle_basis and cons_basis only
    through grad/div/curl/conserved, so they round exactly as the operators
    do; a batch gives, row by row, the bytes of the 1-d call."""
    verts, edges, _ = chain_hypergraph(8, 12, seed)
    rng = np.random.default_rng(seed)
    kp, km = rng.uniform(0.5, 2.0, (2, 12))
    net = build_network([f"S{i}" for i in range(8)], verts, edges, kp, km)
    pair = mass_action_flux(net, rng.uniform(0.5, 2.0, 8))
    dissip = CoshDissipation(pair.activity)
    out = velocity_dual(net, dissip, -net.div(pair.flux))
    _same(out["force"], -net.grad(out["u"]))
    split = force_split(net, dissip, pair.force)
    _same(split["divergence_residual"], np.max(np.abs(net.div(split["flux"])), initial=0.0))
    _same(wegscheider_check(net)["cycle_affinity"], net.curl(np.log(kp / km)))
    for op, n in ((net.grad, 8), (net.div, 12), (net.curl, 12), (net.conserved, 8)):
        batch = rng.normal(size=(5, n))
        _same(op(batch), [op(row) for row in batch])


def test_caller_rate_edits_leave_the_network_as_built():
    """build_network and with_rates copy the caller's rates: an edit after
    either call moved the network's rates and fluxes (the flux -1 read 3)."""
    kp, km = np.array([1.0]), np.array([2.0])
    net = build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)], kp, km)
    kp2, km2 = np.array([3.0]), np.array([4.0])
    sibling = net.with_rates(kp2, km2)
    kp[0] = km[0] = kp2[0] = km2[0] = 5.0
    for n, want in ((net, [1.0, 2.0]), (sibling, [3.0, 4.0])):
        assert [n.kplus[0], n.kminus[0]] == want
        assert mass_action_flux(n, [1.0, 1.0]).flux[0] == want[0] - want[1]


def test_every_array_a_network_holds_is_read_only():
    """A stored array edited in place moved every with_rates sibling too:
    stoich_f[0, 0] = 0 broke A + B conservation, kminus[0] = -1 passed."""
    net = network_from_reactions(["A", "B", "C"], [({"A": 1, "B": 1}, {"C": 1}, 1.0, 2.0), ({"C": 1}, {}, 1.0, 1.0)])
    for n in (net, net.with_rates([2.0, 3.0], [4.0, 5.0])):
        held = [getattr(n, f.name) for f in dataclasses.fields(n)]
        arrays = [a for a in (*held, *n.factors, n.kplus, n.kminus) if isinstance(a, np.ndarray)]
        assert len(arrays) == 18  # 13 fields, 3 factors, kplus and kminus
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def test_rates_are_one_table_of_both_directions(brusselator):
    net = brusselator.with_rates([1.0, 2.0, 3.0], [0.5, 0.25, 4.0])
    names = {f.name for f in dataclasses.fields(net)}
    assert "rates" in names and not {"kplus", "kminus"} & names
    _same(net.rates, np.concatenate([net.kplus, net.kminus]))
    _same(net.rates, [1.0, 2.0, 3.0, 0.5, 0.25, 4.0])


def test_public_names_are_the_imported_api():
    """__all__ is read off the package's imports: every public name, no submodule."""
    assert not any(isinstance(getattr(crnflow, name), types.ModuleType) for name in crnflow.__all__)
    assert {"simulate", "ledger", "ReactionNetwork", "emit_report_json"} <= set(crnflow.__all__)
    assert len(crnflow.__all__) == len(set(crnflow.__all__)) == 52
