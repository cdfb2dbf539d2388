"""Random hypergraphs shared by the scale, oracle and geometry tests: seeded
chains, and a Hypothesis strategy of small networks."""

import random

import numpy as np
from hypothesis import strategies as st

from crnflow import build_network


def chain_hypergraph(n_species, n_edges, seed):
    """Chain of edges between random 1-2 species complexes (coefficients 1-2).

    Returns the hypervertices, the (head, tail) edges and the stoichiometric
    matrix, shape (n_species, n_edges).
    """
    rng = random.Random(seed)

    def comp():
        c = [0] * n_species
        for s in rng.sample(range(n_species), rng.choice((1, 2))):
            c[s] = rng.choice((1, 2))
        return tuple(c)

    chain = [comp()]
    while len(chain) <= n_edges:
        nxt = comp()
        if nxt != chain[-1]:
            chain.append(nxt)
    verts = list(dict.fromkeys(chain))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[h], index[t]) for h, t in zip(chain, chain[1:])]
    stoich = np.array([np.subtract(h, t) for h, t in zip(chain, chain[1:])], dtype=np.int64).T
    return verts, edges, stoich


@st.composite
def networks(draw):
    n = draw(st.integers(1, 4))
    verts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=2, max_size=5, unique=True))
    vertex = st.integers(0, len(verts) - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), min_size=1, max_size=5))
    rates = st.lists(st.floats(0.05, 20.0), min_size=len(edges), max_size=len(edges))
    return build_network([f"S{i}" for i in range(n)], verts, edges, draw(rates), draw(rates))
