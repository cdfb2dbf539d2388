"""`crnflow.exact` against the previous `Fraction` implementation, its int64
guard, and its speed at scale."""

import json
import time

import numpy as np
import pytest
from exact_oracle import integer_rank as oracle_rank
from exact_oracle import kernel_basis as oracle_kernel
from hypothesis import given, settings
from hypothesis import strategies as st
from hypergraphs import chain_hypergraph

from crnflow import build_network
from crnflow.cli import main
from crnflow.exact import integer_rank, kernel_basis


def _assert_matches_oracle(m):
    got, want = kernel_basis(m), oracle_kernel(m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert integer_rank(m) == oracle_rank(m)


@st.composite
def _int_matrices(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    entries = st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=n, max_size=n)
    mat = np.array(draw(entries), dtype=np.int64).reshape(n, m)
    zero_cols = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    mat[:, np.array(zero_cols, dtype=bool)] = 0
    return mat


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_random_matrices_match_oracle(m):
    _assert_matches_oracle(m)
    _assert_matches_oracle(m.T)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 30), st.integers(1, 60), st.integers(0, 2**32))
def test_hypergraph_stoichiometry_matches_oracle(n_species, n_edges, seed):
    _, _, stoich = chain_hypergraph(n_species, n_edges, seed)
    _assert_matches_oracle(stoich)
    _assert_matches_oracle(stoich.T)


def test_benchmark_sized_hypergraph_matches_oracle():
    _, _, stoich = chain_hypergraph(40, 80, 3)
    _assert_matches_oracle(stoich)
    _assert_matches_oracle(stoich.T)


def test_entries_beyond_int64_raise_value_error():
    # kernel spanned by (1, -2**40, 2**80)
    with pytest.raises(ValueError, match="int64"):
        kernel_basis([[2**40, 1, 0], [0, 2**40, 1]])


def test_cli_reports_int64_overflow_as_invalid_scenario(tmp_path, capsys):
    text = (
        "species A B C\n"
        "reaction r1: 1099511627776 A <-> B ; kf=1 kr=1\n"
        "reaction r2: 1099511627776 B <-> C ; kf=1 kr=1\n"
    )
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"network_text": text, "x0": [1, 1, 1]}))
    code = main(["info", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:") and "int64" in err


def test_build_network_100x200_within_budget():
    verts, edges, stoich = chain_hypergraph(100, 200, 3)
    ones = np.ones(len(edges))
    start = time.perf_counter()
    net = build_network([f"S{s}" for s in range(100)], verts, edges, ones, ones)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"build_network took {elapsed:.2f}s"
    assert np.array_equal(net.stoich, stoich)
    assert not np.any(net.cons_basis @ stoich) and not np.any(stoich @ net.cycle_basis)
