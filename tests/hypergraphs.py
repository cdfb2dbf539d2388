"""Seeded random hypergraphs shared by the scale and oracle tests."""

import random

import numpy as np


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
