import numpy as np
import pytest
from hypergraphs import chain_hypergraph

from crnflow import (
    CoshDissipation,
    build_network,
    force_split,
    graph_laplacian,
    mass_action_flux,
    network_from_reactions,
    networks_equal,
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
