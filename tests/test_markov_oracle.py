"""Closed-form oracles from the paper's linear case: a graph-type network
(composition = identity) is a Markov jump process, xdot = -L x with L the
rate Laplacian, so its trajectory is expm(-L t) x0 and a detailed-balanced
chain's equilibrium on the leaf of total mass N is pi N, pi the normalized
kernel of L."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from crnflow import build_network, equilibrium_point, graph_laplacian, simulate

RATES = st.floats(0.1, 10.0)


@st.composite
def chains(draw, balanced=False):
    """(network, pi): a reversible chain on 2-5 states, a random spanning
    tree plus extra edges, so it is strongly connected. With balanced, the
    rates meet detailed balance with the drawn law pi, kplus pi_head =
    kminus pi_tail; otherwise pi is None."""
    n = draw(st.integers(2, 5))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=4)) if others else []
    edges = [(t, h) if draw(st.booleans()) else (h, t) for h, t in tree + extra]
    kplus = draw(st.lists(RATES, min_size=len(edges), max_size=len(edges)))
    if balanced:
        pi = np.array(draw(st.lists(RATES, min_size=n, max_size=n)))
        kminus = [k * pi[h] / pi[t] for k, (h, t) in zip(kplus, edges)]
    else:
        pi, kminus = None, draw(st.lists(RATES, min_size=len(edges), max_size=len(edges)))
    return build_network([f"S{i}" for i in range(n)], np.eye(n, dtype=int), edges, kplus, kminus), pi


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(chains), st.data())
def test_simulate_is_the_matrix_exponential(chain, data):
    net, _ = chain
    n = net.n_species
    x0 = np.array(data.draw(st.lists(RATES, min_size=n, max_size=n)))
    t_end = data.draw(st.floats(0.1, 3.0))
    rtol, atol = 1e-8, 1e-10
    traj = simulate(net, x0, t_end, rtol=rtol, atol=atol)
    assert not traj.halted
    laplacian = graph_laplacian(net)
    exact = np.array([scipy.linalg.expm(-laplacian * t) @ x0 for t in traj.times])
    # Each accepted step keeps its error estimate's RMS over the scales
    # atol + rtol max(|x|, |x_new|) below 1, so its l1 error is at most
    # sqrt(n) (n atol + 2 rtol total); expm(-L t) maps l1 into itself
    # without growth, so the errors of the steps add up, no more.
    # Measured: 4e-9 relative to the total on a 3-state cycle, 1.2e-8 and
    # 1.1% of the bound at most over random chains.
    total = x0.sum()
    bound = traj.stats["steps"] * np.sqrt(n) * (n * atol + 2.0 * rtol * total)
    assert np.abs(traj.states - exact).sum(axis=1).max() <= bound


@settings(max_examples=60, deadline=None)
@given(chains(balanced=True), st.data())
def test_equilibrium_point_is_the_stationary_law(chain, data):
    net, law = chain
    n = net.n_species
    x0 = np.array(data.draw(st.lists(RATES, min_size=n, max_size=n)))
    kernel = scipy.linalg.null_space(graph_laplacian(net))
    assert kernel.shape == (n, 1)  # strongly connected: one stationary law
    pi = kernel[:, 0] / kernel[:, 0].sum()
    # the reference is the law the rates were balanced with, at any scale
    got = equilibrium_point(net, x0, law * data.draw(st.floats(1e-3, 1e3)))
    # got is proportional to the reference and meets the total (0.2 or more
    # here) to tol = 1e-10, so to 5e-10 relative; the kernel's pi adds about
    # 1e-12. Measured: 2.8e-10 at most.
    assert np.allclose(got, pi * x0.sum(), rtol=1e-9, atol=0.0)
