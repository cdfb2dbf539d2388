import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crnflow.exact import integer_rank, kernel_basis


def test_brusselator_cycle_space():
    s = np.array([[-1, 1, -1], [0, -1, 1]])
    assert kernel_basis(s).tolist() == [[0, 1, 1]]
    assert kernel_basis(s.T).tolist() == []  # left kernel is trivial


def test_two_conserved_quantities():
    # A + B <-> C, column (-1, -1, 1)
    s = np.array([[-1], [-1], [1]])
    assert kernel_basis(s.T).tolist() == [[1, 0, 1], [0, 1, 1]]


def test_zero_matrix_gives_identity_basis():
    assert kernel_basis(np.zeros((3, 4), dtype=int)).tolist() == np.eye(4, dtype=int).tolist()


def test_no_rows_means_everything_is_kernel():
    assert kernel_basis(np.zeros((0, 3), dtype=int)).tolist() == np.eye(3, dtype=int).tolist()


def test_full_rank_gives_empty_basis():
    b = kernel_basis(np.array([[1, 0], [0, 2]]))
    assert b.shape == (0, 2)


def test_canonical_form_is_primitive_with_positive_leads():
    m = np.array([[2, 4, 6], [1, 2, 3]])  # rank 1, kernel dim 2
    basis = kernel_basis(m)
    assert basis.shape == (2, 3)
    for row in basis:
        nz = row[row != 0]
        assert nz[0] > 0
        assert np.gcd.reduce(np.abs(nz)) == 1
    assert np.all(m @ basis.T == 0)
    # leading columns strictly increase
    leads = [np.flatnonzero(r)[0] for r in basis]
    assert leads == sorted(leads)


def test_scaling_rows_does_not_change_basis():
    m = np.array([[1, 1, -1], [2, 0, 1]])
    assert kernel_basis(m).tolist() == kernel_basis(m * 7).tolist()


def test_rank():
    assert integer_rank(np.array([[1, 2], [2, 4], [0, 1]])) == 2
    assert integer_rank(np.zeros((2, 2), dtype=int)) == 0


_small_mats = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.integers(-6, 6),
)


@settings(max_examples=200, deadline=None)
@given(_small_mats)
def test_kernel_vectors_annihilate_exactly(m):
    basis = kernel_basis(m)
    # integer arithmetic end to end: the product must be exactly zero
    prod = m.astype(object) @ basis.T.astype(object)
    assert not prod.size or np.all(prod == 0)
    assert basis.shape[0] == m.shape[1] - integer_rank(m)


@settings(max_examples=100, deadline=None)
@given(_small_mats)
def test_kernel_rows_independent_and_deterministic(m):
    basis = kernel_basis(m)
    if basis.shape[0]:
        assert np.linalg.matrix_rank(basis.astype(float)) == basis.shape[0]
    assert kernel_basis(m).tolist() == basis.tolist()


def test_basis_entries_at_the_int64_limits_are_kept():
    top = 2**63 - 1
    # the kernel of [1, -c] is (c, 1); of [c, 1] it is (1, -c)
    assert kernel_basis(np.array([[1, -top]], dtype=object)).tolist() == [[top, 1]]
    assert kernel_basis(np.array([[top, 1]], dtype=object)).tolist() == [[1, -top]]
    assert kernel_basis(np.array([[top + 1, 1]], dtype=object)).tolist() == [[1, -(top + 1)]]  # int64's min
    for row in ([1, -(top + 1)], [top + 2, 1]):  # 2**63 and -(2**63 + 1)
        with pytest.raises(ValueError, match="int64"):
            kernel_basis(np.array([row], dtype=object))


def test_non_integer_entries_are_rejected_not_truncated():
    """[[0.5, 1.0]] used to truncate to [[0, 1]], whose kernel basis [[1, 0]]
    is not in the kernel of the given matrix; integral floats still pass."""
    for bad in ([[0.5, 1.0]], [[1, np.nan]], [[1, np.inf]]):
        for call in (kernel_basis, integer_rank):
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                call(bad)
    assert kernel_basis([[2.0, -1.0]]).tolist() == [[1, 2]]
    assert integer_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_kernel_basis_needs_a_matrix():
    with pytest.raises(ValueError, match=r"^expected a 2-d matrix, got shape \(2,\)$"):
        kernel_basis([1, 2])
