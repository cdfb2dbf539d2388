import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnflow.convex import (
    CoshDissipation,
    KLPotential,
    QuadraticDissipation,
    QuadraticPotential,
    legendre_gap,
    log_mean,
    stable_asinh,
)

RNG = np.random.default_rng(42)


def _families(n=4):
    ref = RNG.uniform(0.5, 2.0, n)
    m = RNG.normal(size=(n, n))
    spd = m @ m.T + n * np.eye(n)
    return [
        ("kl", KLPotential(ref), lambda: RNG.uniform(0.1, 4.0, n)),
        ("quad-potential", QuadraticPotential(spd, ref), lambda: RNG.normal(0, 2.0, n)),
        ("cosh", CoshDissipation(RNG.uniform(0.3, 3.0, n)), lambda: RNG.normal(0, 2.0, n)),
        ("quad-dissipation", QuadraticDissipation(RNG.uniform(0.3, 3.0, n)), lambda: RNG.normal(0, 2.0, n)),
    ]


def test_relative_entropy_spot_value():
    pot = KLPotential(n=2)
    d = pot.bregman([2.0 / 3.0, 4.0 / 3.0], [1.0, 2.0])
    assert abs(d - 0.18906978378367124) < 1e-15
    # reference independence of the divergence
    pot2 = KLPotential([0.3, 7.0])
    assert abs(pot2.bregman([2.0 / 3.0, 4.0 / 3.0], [1.0, 2.0]) - d) < 1e-15


def test_cosh_pair_spot_values():
    w = 2.0 * np.sqrt(2.0)
    f = np.log(2.0)
    diss = CoshDissipation([w])
    j = diss.dual_grad([f])
    assert abs(j[0] - 1.0) < 1e-14  # w sinh(f/2) = 2sqrt2 * (1/(2sqrt2)) ... = 1
    assert abs(diss.dual_value([f]) - (6.0 - 4.0 * np.sqrt(2.0))) < 1e-14
    assert abs(diss.value([1.0]) - 0.35000143005232551) < 1e-14
    # Fenchel-Young equality at the conjugate pair: psi + psistar = <j, f>
    assert abs(diss.value([1.0]) + diss.dual_value([f]) - f) < 1e-14


def test_gradient_roundtrips():
    for name, fn, draw in _families():
        for _ in range(1000):
            p = draw()
            back = fn.dual_grad(fn.grad(p))
            assert np.max(np.abs(back - p)) < 1e-12, name
            y = RNG.normal(0, 1.5, p.size)
            there = fn.grad(fn.dual_grad(y))
            assert np.max(np.abs(there - y)) < 1e-12, name


def test_fenchel_young_identity_both_directions():
    for name, fn, draw in _families():
        for _ in range(1000):
            p = draw()
            y = fn.grad(p)
            lhs = fn.value(p) + fn.dual_value(y)
            rhs = float(p @ y)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs)), name
            # and the gap is non-negative for mismatched pairs
            y2 = y + RNG.normal(0, 0.5, y.size)
            assert legendre_gap(fn, p, y2) >= -1e-10 * (1.0 + abs(fn.value(p))), name


def test_gradients_match_finite_differences():
    for name, fn, draw in _families():
        for _ in range(25):
            p = draw()
            scale = max(1.0, float(np.max(np.abs(p))))
            h = 1e-6 * scale
            g = fn.grad(p)
            for i in range(p.size):
                e = np.zeros(p.size)
                e[i] = h
                fd = (fn.value(p + e) - fn.value(p - e)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * (1.0 + abs(g[i])), name
            y = RNG.normal(0, 1.0, p.size)
            gy = fn.dual_grad(y)
            for i in range(p.size):
                e = np.zeros(p.size)
                e[i] = h
                fd = (fn.dual_value(y + e) - fn.dual_value(y - e)) / (2 * h)
                assert abs(fd - gy[i]) <= 1e-6 * (1.0 + abs(gy[i])), name


def test_hessians_match_gradient_differences():
    for name, fn, draw in _families():
        if not hasattr(fn, "hessian_diag"):
            continue
        p = draw()
        h = 1e-6
        diag = fn.hessian_diag(p)
        for i in range(p.size):
            e = np.zeros(p.size)
            e[i] = h
            fd = (fn.grad(p + e)[i] - fn.grad(p - e)[i]) / (2 * h)
            assert abs(fd - diag[i]) <= 1e-5 * (1.0 + abs(diag[i])), name


def test_bregman_positivity_and_identity():
    metric = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]]
    for pot in (KLPotential(n=3), QuadraticPotential(metric, [0.5, -1.0, 2.0])):
        for _ in range(200):
            x = RNG.uniform(0.1, 5.0, 3)
            xr = RNG.uniform(0.1, 5.0, 3)
            d = pot.bregman(x, xr)
            assert d >= 0.0
            # Bregman from the primal function directly
            direct = pot.value(x) - pot.value(xr) - float(pot.grad(xr) @ (x - xr))
            assert abs(d - direct) < 1e-10 * (1.0 + abs(d))
        assert pot.bregman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mixed_bregman_on_edges():
    diss = CoshDissipation([1.0, 2.0])
    j = np.array([0.5, -1.5])
    f = diss.grad(j)
    assert abs(diss.bregman(j, f)) < 1e-14  # zero at the conjugate point
    f2 = f + np.array([0.3, -0.2])
    assert diss.bregman(j, f2) > 0.0


def test_kl_refuses_nonpositive_states():
    pot = KLPotential(n=2)
    with pytest.raises(ValueError):
        pot.value([1.0, 0.0])
    with pytest.raises(ValueError):
        pot.grad([-1.0, 1.0])
    with pytest.raises(ValueError):
        KLPotential([1.0, -2.0])


def test_quadratic_potential_requires_spd():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticPotential([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="positive definite"):
        QuadraticPotential([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    pot = QuadraticPotential([2.0, 3.0], [1.0, 1.0])  # diagonal shorthand
    assert pot.value([2.0, 1.0]) == 1.0


def test_log_mean_reproduces_flux():
    jp = np.array([2.0, 5.0, 1.3])
    jm = np.array([1.0, 0.25, 1.3 - 1e-16])
    m = log_mean(jp, jm)
    # m * log(jp/jm) = jp - jm holds exactly by construction
    mask = np.abs(jp - jm) >= 1e-12 * (jp + jm)
    assert np.allclose(m[mask] * np.log(jp[mask] / jm[mask]), (jp - jm)[mask], rtol=1e-14)
    assert m[2] == jp[2]  # coincidence limit
    assert abs(log_mean([2.0], [1.0])[0] - 1.0 / np.log(2.0)) < 1e-15


def test_log_mean_metric_matches_flux_at_mass_action_point():
    jp = np.array([2.0, 5.0])
    jm = np.array([1.0, 0.25])
    diss = QuadraticDissipation(log_mean(jp, jm))
    f = np.log(jp / jm)
    assert np.allclose(diss.dual_grad(f), jp - jm, rtol=1e-14)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_stable_asinh_agrees_with_numpy(u):
    assert abs(stable_asinh(u) - np.arcsinh(u)) <= 1e-15 * (1.0 + abs(np.arcsinh(u)))


def test_stable_asinh_tiny_arguments():
    for u in [0.0, 1e-300, -1e-300, 1e-9, -1e-9, 9.9e-5, -9.9e-5]:
        got = float(stable_asinh(u))
        assert got == pytest.approx(np.arcsinh(u), rel=1e-15, abs=1e-320)
        if u != 0:
            assert np.sign(got) == np.sign(u)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=5),
    st.lists(st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=5, max_size=5),
)
def test_cosh_pair_inverse_maps(js, ws):
    w = np.array(ws[: len(js)])
    j = np.array(js)
    diss = CoshDissipation(w)
    back = diss.dual_grad(diss.grad(j))
    assert np.max(np.abs(back - j)) <= 1e-10 * (1.0 + np.max(np.abs(j)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_dual_side_takes_row_batches(n, rows, seed, per_row):
    """Each row of a (T, n) dual_value, dual_grad and dual_hessian_diag is
    the 1-d call on that row, bit for bit; cosh weights may be per row."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 3.0, (rows, n))
    m = rng.normal(size=(n, n))
    weights = rng.uniform(0.3, 3.0, (rows, n) if per_row else n)
    batched = [
        KLPotential(rng.uniform(0.5, 2.0, n)),
        QuadraticPotential(m @ m.T + n * np.eye(n), rng.normal(size=n)),
        CoshDissipation(weights),
        QuadraticDissipation(rng.uniform(0.3, 3.0, n)),
    ]
    for fn in batched:
        single = [fn] * rows
        if isinstance(fn, CoshDissipation) and per_row:
            single = [CoshDissipation(w) for w in weights]
        for method in ("dual_value", "dual_grad", "dual_hessian_diag"):
            if not hasattr(fn, method):
                continue
            got = np.asarray(getattr(fn, method)(y))
            assert got.shape == (rows,) + ((n,) if method != "dual_value" else ())
            for row, fn_row, y_row in zip(got, single, y):
                want = np.asarray(getattr(fn_row, method)(y_row))
                assert row.dtype == want.dtype and row.tobytes() == want.tobytes(), (type(fn).__name__, method)


def _length_cases():
    """(label, call) for every method that reads a vector argument, the
    KLPotential reference, and the three entry points that take a
    reference state: each call gets the wrong-length vector v, its other
    vector arguments the right length (3)."""
    from crnflow import build_network, equilibrium_point, lyapunov_monitor, simulate

    ok = np.full(3, 0.5)
    pair = ["value", "dual_value", "grad", "dual_grad"]
    readers = [  # QuadraticDissipation.hessian_diag ignores its argument
        (KLPotential(n=3), pair + ["hessian_diag", "dual_hessian_diag"]),
        (QuadraticPotential(np.array([1.0, 2.0, 3.0]), ok), pair),
        (CoshDissipation(np.ones(3)), pair + ["hessian_diag", "dual_hessian_diag"]),
        (QuadraticDissipation(np.ones(3)), pair + ["dual_hessian_diag"]),
    ]
    net = build_network(["A", "B", "C"], [(1, 1, 0), (0, 0, 1)], [(1, 0)], [1.0], [1.0])
    cases = [("KLPotential(ref, n)", lambda v: KLPotential(v, n=3))]
    for fn, methods in readers:
        name = type(fn).__name__
        cases += [(f"{name}.{m}", lambda v, m=getattr(fn, m): m(v)) for m in methods]
        cases.append((f"{name}.bregman(v, ok)", lambda v, fn=fn: fn.bregman(v, ok)))
        cases.append((f"{name}.bregman(ok, v)", lambda v, fn=fn: fn.bregman(ok, v)))
    cases += [
        ("equilibrium_point x_ref", lambda v: equilibrium_point(net, [1.0, 2.0, 0.5], v)),
        ("simulate x_ref", lambda v: simulate(net, [1.0, 2.0, 0.5], 0.1, x_ref=v)),
        ("lyapunov_monitor x_ref", lambda v: lyapunov_monitor(net, simulate(net, [1.0, 2.0, 0.5], 0.1), v)),
    ]
    return cases


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("call", [pytest.param(call, id=label) for label, call in _length_cases()])
def test_wrong_length_vectors_are_rejected(call, length):
    # length 1 would broadcast against 3, and 4 fail inside numpy, if at
    # all: both must be refused with the expected length named
    with pytest.raises(ValueError, match="must have length 3"):
        call(np.full(length, 2.0))


def test_potentials_refuse_an_unknown_or_mismatched_dimension():
    with pytest.raises(ValueError, match="^provide a reference state or a dimension$"):
        KLPotential()
    with pytest.raises(ValueError, match="^metric shape does not match reference state$"):
        QuadraticPotential(np.eye(2), [0, 0, 0])


def _assert_owned(held, edit, value):
    """value() does not follow an edit of the caller's arrays, and the array the
    instance holds refuses writes."""
    before = value()
    edit()
    assert value() == before
    with pytest.raises(ValueError, match="read-only"):
        held[...] = 0.0


def test_kl_potential_owns_its_reference():
    """dual_value([0, 0]) moved 3 -> 7 when the caller edited the reference."""
    r = np.array([1.0, 2.0])
    pot = KLPotential(r)
    _assert_owned(pot.ref, lambda: r.__setitem__(..., [3.0, 4.0]), lambda: pot.dual_value([0, 0]))


def test_cosh_dissipation_owns_its_weights():
    """dual_value([1]) moved 0.255 -> 2.297 when the caller edited the weights."""
    w = np.array([1.0])
    dissip = CoshDissipation(w)
    _assert_owned(dissip.weights, lambda: w.__setitem__(0, 9.0), lambda: dissip.dual_value([1]))


def test_quadratic_dissipation_owns_its_metric():
    """dual_value([1]) moved 0.5 -> 4.5 when the caller edited the metric."""
    m = np.array([1.0])
    dissip = QuadraticDissipation(m)
    _assert_owned(dissip.metric_diag, lambda: m.__setitem__(0, 9.0), lambda: dissip.dual_value([1]))


def test_quadratic_potential_owns_its_metric_and_reference():
    """value followed an edited metric and reference (1.0 -> 18.5) while the dual
    side kept the old inverse: the pair stopped being a Legendre pair."""
    metric, ref = np.eye(2), np.zeros(2)
    pot = QuadraticPotential(metric, ref)

    def edit():
        metric[...] = [[5.0, 1.0], [1.0, 5.0]]
        ref[...] = -1.0

    _assert_owned(pot.metric, edit, lambda: pot.value([1, 1]))
    with pytest.raises(ValueError, match="read-only"):
        pot.ref[0] = 1.0
    assert legendre_gap(pot, [1.0, 2.0], pot.grad([1.0, 2.0])) == pytest.approx(0.0, abs=1e-12)
