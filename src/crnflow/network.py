"""Reaction networks as oriented hypergraphs.

A network couples three layers: species, hypervertices (complexes, i.e.
non-negative integer combinations of species), and reversible edges
between hypervertices. The composition matrix maps hypervertices to
species content, the incidence matrix maps edges to hypervertices
(+1 at the head, -1 at the tail), and their product is the
stoichiometric matrix. Plain graph dynamics is the special case where
every hypervertex is a single species (composition = identity).

Conventions: an edge's head is the reactant side, its tail the product
side, and the state equation is xdot = -stoich @ flux.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exact import kernel_basis

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class ReactionNetwork:
    """Immutable network; build_network precomputes every structure field
    once and with_rates shares them.

    Attributes:
        species: species names, length n_species.
        hypervertices: integer composition tuples, length n_hypervertices.
        edges: (head, tail) hypervertex index pairs, length n_edges.
        kplus, kminus: forward/backward rate constants per edge (> 0).
        edge_labels: display names per edge.
        composition: (n_species, n_hypervertices) int matrix.
        incidence: (n_hypervertices, n_edges) int matrix, +1 head / -1 tail.
        stoich: composition @ incidence.
        cons_basis: (n_conserved, n_species) primitive-integer rows spanning
            the left kernel of stoich (conserved quantities).
        cycle_basis: (n_edges, n_cycles) primitive-integer columns spanning
            the kernel of stoich (stoichiometric cycles).
        head_compositions, tail_compositions: (n_species, n_edges) int
            reactant/product composition per edge (monomial exponents).
        factors: the sparse (species, power) form of [head | tail] that
            the kinetics evaluate (see _factors).
        stoich_f, cons_f, cycle_f: float64 copies of stoich, cons_basis and
            cycle_basis (same layout); the operators below multiply by them.
        stoich_image: (n_species, rank) orthonormal basis of im(stoich);
            reduced_stoich = stoich_image.T @ stoich.
    """

    species: tuple[str, ...]
    hypervertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    kplus: np.ndarray
    kminus: np.ndarray
    edge_labels: tuple[str, ...]
    composition: np.ndarray
    incidence: np.ndarray
    stoich: np.ndarray
    cons_basis: np.ndarray
    cycle_basis: np.ndarray
    head_compositions: np.ndarray
    tail_compositions: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    stoich_f: np.ndarray
    cons_f: np.ndarray
    cycle_f: np.ndarray
    stoich_image: np.ndarray
    reduced_stoich: np.ndarray

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_hypervertices(self) -> int:
        return len(self.hypervertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_conserved(self) -> int:
        return self.cons_basis.shape[0]

    @property
    def n_cycles(self) -> int:
        return self.cycle_basis.shape[1]

    @property
    def is_graph(self) -> bool:
        """True when every hypervertex is one unit of one species."""
        n = self.n_species
        return self.n_hypervertices == n and np.array_equal(
            self.composition, np.eye(n, dtype=np.int64)
        )

    # -- discrete differential operators --------------------------------
    # each takes one vector or a (T, n) batch of them, one per row

    def conserved(self, x) -> np.ndarray:
        """State -> conserved quantities: cons_basis @ x."""
        return matvec_rows(self.cons_f, x)

    def grad(self, y) -> np.ndarray:
        """Species potential -> edge force: stoich.T @ y."""
        return matvec_rows(self.stoich_f.T, y)

    def div(self, j) -> np.ndarray:
        """Edge flux -> species production: stoich @ j (xdot = -div(j))."""
        return matvec_rows(self.stoich_f, j)

    def curl(self, f) -> np.ndarray:
        """Edge force -> cycle affinities: cycle_basis.T @ f."""
        return matvec_rows(self.cycle_f.T, f)

    def curl_adjoint(self, z) -> np.ndarray:
        """Cycle coordinates -> edge flux: cycle_basis @ z."""
        return matvec_rows(self.cycle_f, z)

    def with_rates(self, kplus, kminus) -> "ReactionNetwork":
        """Same topology with new rate constants."""
        kp, km = _check_rates(kplus, kminus, self.n_edges)
        return replace(self, kplus=kp, kminus=km)


def matvec_rows(mat: np.ndarray, v) -> np.ndarray:
    """mat @ v for one vector v, or for each row of a (T, n) batch: a
    stacked matmul over C-ordered rows runs the same matrix-vector product
    once per row, so each row is bit-identical to the call on a contiguous
    vector (a matrix product, or strided rows, can round differently).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != mat.shape[1]:
        raise ValueError(f"expected length-{mat.shape[1]} vector, got {v.shape}")
    return mat @ v if v.ndim == 1 else (mat @ np.ascontiguousarray(v)[:, :, None])[:, :, 0]


def _check_rates(kplus, kminus, n_edges: int) -> tuple[np.ndarray, np.ndarray]:
    kp = np.asarray(kplus, dtype=float).reshape(-1)
    km = np.asarray(kminus, dtype=float).reshape(-1)
    if kp.shape != (n_edges,) or km.shape != (n_edges,):
        raise ValueError(f"rate vectors must have length {n_edges}, got {kp.shape} and {km.shape}")
    if not (np.all(kp > 0) and np.all(km > 0) and np.all(np.isfinite(kp)) and np.all(np.isfinite(km))):
        raise ValueError("rate constants must be finite and strictly positive")
    return kp, km


def _orthonormal_image(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, via SVD."""
    m = np.asarray(mat, dtype=float)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    r = int(np.sum(s > max(m.shape) * np.finfo(float).eps * s[0]))
    return u[:, :r]


def _factors(head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse form of [head | tail]: species, float powers, column starts.

    Each column lists its nonzero (species, power) pairs in ascending
    species order, an empty complex the factor x_0 ** 0 = 1. A column's
    product then equals the dense product over all species bit for bit.
    """
    factors, starts = [], []
    for col in np.hstack([head, tail]).T:
        starts.append(len(factors))
        if head.size == 1 and col[0] == 2:  # numpy takes x ** E for a 1x1 E as x * x, not pow
            factors += [(0, 1), (0, 1)]
        else:
            factors += [(i, col[i]) for i in np.flatnonzero(col)] or [(0, 0)]
    species, powers = np.array(factors, dtype=int).reshape(-1, 2).T
    return species, powers.astype(float), np.array(starts, dtype=int)


def build_network(
    species,
    hypervertices,
    edges,
    kplus,
    kminus,
    edge_labels=None,
) -> ReactionNetwork:
    """Validate and assemble a ReactionNetwork.

    Args:
        species: sequence of distinct non-empty species names.
        hypervertices: sequence of distinct composition vectors
            (non-negative integers, one entry per species).
        edges: sequence of (head, tail) hypervertex index pairs; the head
            is the reactant complex. Self-loops are rejected.
        kplus, kminus: positive rate constants, one pair per edge.
        edge_labels: optional display names; defaults to r1, r2, ...

    Raises:
        ValueError: on any structural defect (duplicates, bad indices,
            self-loops, non-positive rates, shape mismatches, entries
            beyond the int64 range).
    """
    names = tuple(str(s) for s in species)
    if len(names) == 0:
        raise ValueError("at least one species is required")
    if any(not n for n in names):
        raise ValueError("species names must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError("duplicate species names")

    verts: list[tuple[int, ...]] = []
    for idx, comp in enumerate(hypervertices):
        row = tuple(int(c) for c in comp)
        if len(row) != len(names):
            raise ValueError(
                f"hypervertex {idx} has {len(row)} entries, expected {len(names)}"
            )
        if any(c < 0 for c in row):
            raise ValueError(f"hypervertex {idx} has negative stoichiometry")
        if any(c > _INT64_MAX for c in row):
            raise ValueError(f"hypervertex {idx} has an entry beyond the int64 range")
        verts.append(row)
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate hypervertices (identical compositions)")
    if not verts:
        raise ValueError("at least one hypervertex is required")

    pairs: list[tuple[int, int]] = []
    for idx, (head, tail) in enumerate(edges):
        h, t = int(head), int(tail)
        if not (0 <= h < len(verts) and 0 <= t < len(verts)):
            raise ValueError(f"edge {idx} references an undefined hypervertex")
        if h == t:
            raise ValueError(f"edge {idx} is a self-loop")
        pairs.append((h, t))

    kp, km = _check_rates(kplus, kminus, len(pairs))

    if edge_labels is None:
        labels = tuple(f"r{i + 1}" for i in range(len(pairs)))
    else:
        labels = tuple(str(l) for l in edge_labels)
        if len(labels) != len(pairs):
            raise ValueError("edge_labels length must match number of edges")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate edge labels")

    composition = np.array(verts, dtype=np.int64).T
    incidence = np.zeros((len(verts), len(pairs)), dtype=np.int64)
    for e, (h, t) in enumerate(pairs):
        incidence[h, e] = 1
        incidence[t, e] = -1
    stoich = composition @ incidence
    cons_basis, cycle_basis = kernel_basis(stoich.T), kernel_basis(stoich).T
    stoich_f = stoich.astype(float)
    head = composition[:, [h for h, _ in pairs]]
    tail = composition[:, [t for _, t in pairs]]
    image = _orthonormal_image(stoich_f)

    return ReactionNetwork(
        species=names,
        hypervertices=tuple(verts),
        edges=tuple(pairs),
        kplus=kp,
        kminus=km,
        edge_labels=labels,
        composition=composition,
        incidence=incidence,
        stoich=stoich,
        cons_basis=cons_basis,
        cycle_basis=cycle_basis,
        head_compositions=head,
        tail_compositions=tail,
        factors=_factors(head, tail),
        stoich_f=stoich_f,
        cons_f=cons_basis.astype(float),
        cycle_f=cycle_basis.astype(float),
        stoich_image=image,
        reduced_stoich=image.T @ stoich_f,
    )


def network_from_reactions(species, reactions, edge_labels=None) -> ReactionNetwork:
    """Build a network from reactant/product composition pairs.

    Args:
        species: species names.
        reactions: sequence of (reactant_counts, product_counts, kf, kr)
            where the count entries are dicts mapping species name to a
            positive integer (empty dict = empty complex).

    Hypervertices are deduplicated in order of first appearance.
    """
    names = [str(s) for s in species]
    index = {s: i for i, s in enumerate(names)}
    verts: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}

    def vertex_of(counts) -> int:
        comp = [0] * len(names)
        for sp, cnt in counts.items():
            if sp not in index:
                raise ValueError(f"unknown species {sp!r} in reaction")
            comp[index[sp]] += int(cnt)
        key = tuple(comp)
        if key not in seen:
            seen[key] = len(verts)
            verts.append(key)
        return seen[key]

    edges = []
    kps, kms = [], []
    for reac, prod, kf, kr in reactions:
        head = vertex_of(reac)
        tail = vertex_of(prod)
        edges.append((head, tail))
        kps.append(kf)
        kms.append(kr)
    return build_network(names, verts, edges, kps, kms, edge_labels)


def networks_equal(a: ReactionNetwork, b: ReactionNetwork) -> bool:
    """Structural equality: same species, hypervertices, edges, rates, labels."""
    return (
        a.species == b.species
        and a.hypervertices == b.hypervertices
        and a.edges == b.edges
        and a.edge_labels == b.edge_labels
        and np.array_equal(a.kplus, b.kplus)
        and np.array_equal(a.kminus, b.kminus)
    )


def graph_laplacian(net: ReactionNetwork) -> np.ndarray:
    """Rate Laplacian of a graph-type network (xdot = -L @ x).

    Only defined when the composition matrix is the identity; the linear
    dynamics then reads xdot = -L x with
    L = stoich (diag(kplus) head.T - diag(kminus) tail.T), where stoich
    is the incidence matrix and head/tail its +1/-1 parts.
    """
    if not net.is_graph:
        raise ValueError("graph_laplacian requires a graph-type network (composition = identity)")
    return net.stoich_f @ (net.kplus[:, None] * net.head_compositions.T - net.kminus[:, None] * net.tail_compositions.T)
