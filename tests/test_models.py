import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide.models import (
    ControlGrid,
    GammaTable,
    ModelConstants,
    RateModel,
    SamplingSpec,
    ThreeTypeRotorModel,
    TwoTypeModel,
    ZeroModel,
    build_model,
    control_surface,
    coupling_constants,
    estimate_constants,
    hamiltonian,
    isaacs_gap,
    mirrored,
    validate_rate_model,
)


def brute_force_minimax(surface):
    """Independent min-max enumeration with plain python loops."""
    best_u = None
    for row in surface:
        worst = max(row)
        if best_u is None or worst < best_u:
            best_u = worst
    best_v = None
    for col in surface.T:
        best = min(col)
        if best_v is None or best > best_v:
            best_v = best
    return best_u, best_v


class BrokenModel(RateModel):
    name = "broken"
    dimension = 2
    horizon = 1.0

    def __init__(self):
        self.u_grid = ControlGrid((0.0, 1.0))
        self.v_grid = ControlGrid((0.0, 1.0))

    def rate_matrix(self, t, x, u, v):
        return np.array([[0.1, -0.1], [0.0, 0.0]])

    def terminal_payoff(self, x):
        return float(x[0])


def test_control_grid_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        ControlGrid(())
    with pytest.raises(ValueError):
        ControlGrid((0.0, 0.0))
    g = ControlGrid((0.0, 0.5, 1.0))
    assert g.index_of(0.5) == 1


def test_validate_zero_model_exact():
    report = validate_rate_model(ZeroModel(), samples=256, seed=1)
    assert report.passed
    assert report.max_row_sum_dev == 0.0
    assert report.min_off_diagonal == 0.0


@pytest.mark.parametrize("name", ["two-type", "three-type"])
def test_validate_bundled_models(name):
    report = validate_rate_model(build_model(name), samples=2048, seed=7)
    assert report.passed, report.failure
    assert report.max_row_sum_dev <= 1e-12
    assert report.min_off_diagonal >= 0.0


def test_validate_flags_negative_off_diagonal():
    report = validate_rate_model(BrokenModel(), samples=64, seed=0)
    assert not report.passed
    assert report.failure == "negative off-diagonal"
    assert report.min_off_diagonal == -0.1


def test_drift_two_type_examples():
    m = TwoTypeModel()
    assert np.allclose(m.drift(0.0, np.array([0.5, 0.5]), 1.0, 0.0), [-0.5, 0.5])
    assert np.allclose(m.drift(0.0, np.array([0.6, 0.4]), 1.0, 1.0), [-0.2, 0.2])
    z = ZeroModel()
    assert np.allclose(z.drift(0.3, np.array([0.25, 0.75]), 1.0, 1.0), [0.0, 0.0])


def test_drift_sums_to_zero_and_speed_bound():
    rng = np.random.default_rng(5)
    for m in (TwoTypeModel(), ThreeTypeRotorModel()):
        k = m.declared_k
        d = m.dimension
        for _ in range(200):
            x = rng.dirichlet(np.ones(d))
            t = rng.uniform(0, m.horizon)
            u = rng.choice(m.u_grid.points)
            v = rng.choice(m.v_grid.points)
            vel = m.drift(t, x, u, v)
            assert abs(vel.sum()) <= 1e-12
            assert np.linalg.norm(vel) <= k * np.sqrt(d) + 1e-12


def test_hamiltonian_examples():
    m = TwoTypeModel()
    x = np.array([0.5, 0.5])
    assert hamiltonian(m, 0.0, x, np.zeros(2)) == 0.0
    # constant costate is orthogonal to every drift
    assert hamiltonian(m, 0.0, x, np.array([3.7, 3.7])) == pytest.approx(0.0, abs=1e-15)
    # enumerate the 2-point sub-games by hand: min_u max_v (-0.5u + 0.5v) = 0 at u=v=1
    assert hamiltonian(m, 0.0, x, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_constant_shift_invariance():
    m = ThreeTypeRotorModel()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.dirichlet(np.ones(3))
        xi = rng.standard_normal(3)
        t = rng.uniform(0, 1)
        c = rng.standard_normal()
        assert hamiltonian(m, t, x, xi) == pytest.approx(
            hamiltonian(m, t, x, xi + c), abs=1e-12)


def test_hamiltonian_matches_brute_force():
    m = ThreeTypeRotorModel()
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.dirichlet(np.ones(3))
        xi = rng.standard_normal(3)
        t = rng.uniform(0, 1)
        surface = control_surface(m, t, x, xi)
        minmax, maxmin = brute_force_minimax(surface)
        assert hamiltonian(m, t, x, xi) == minmax
        assert isaacs_gap(m, t, x, xi) == minmax - maxmin


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
def test_isaacs_gap_zero_for_separable_models(model):
    rng = np.random.default_rng(19)
    for _ in range(100):
        x = rng.dirichlet(np.ones(model.dimension))
        xi = rng.standard_normal(model.dimension)
        t = rng.uniform(0, model.horizon)
        gap = isaacs_gap(model, t, x, xi)
        assert gap >= 0.0
        assert gap == 0.0


def test_isaacs_gap_zero_costate():
    assert isaacs_gap(TwoTypeModel(), 0.0, np.array([0.4, 0.6]), np.zeros(2)) == 0.0


def test_vectorized_hooks_match_scalar():
    # the derived forms against plain loops over scalar calls of the two hooks
    rng = np.random.default_rng(23)
    for m in (ZeroModel(), TwoTypeModel(), ThreeTypeRotorModel()):
        xs = rng.dirichlet(np.ones(m.dimension), size=17)
        ts = rng.uniform(0, m.horizon, size=17)
        grid = m.rate_matrix_grid_multi(ts, xs)
        drifts = m.drift_grid_multi(ts, xs)
        assert grid.shape == (17, len(m.u_grid), len(m.v_grid), m.dimension, m.dimension)
        for i in (0, 5, 16):
            for a, u in enumerate(m.u_grid.points):
                for b, v in enumerate(m.v_grid.points):
                    q = m.rate_matrix(ts[i], xs[i], u, v)
                    assert np.allclose(grid[i, a, b], q, atol=1e-15)
                    assert np.allclose(drifts[i, a, b], xs[i] @ q, atol=1e-15)
        u_vals = rng.choice(m.u_grid.points, size=17)
        v_vals = rng.choice(m.v_grid.points, size=17)
        rows = m.rate_matrix_multi(ts, xs, u_vals, v_vals)
        fast = m.drift(ts, xs, u_vals, v_vals)
        for i in range(17):
            q = m.rate_matrix(ts[i], xs[i], u_vals[i], v_vals[i])
            assert np.allclose(rows[i], q, atol=1e-15)
            assert np.allclose(fast[i], xs[i] @ q, atol=1e-14)
        single = m.rate_matrix_multi(ts, xs, u_vals[0], v_vals[0])
        for i in (0, 16):
            assert np.allclose(single[i], m.rate_matrix(ts[i], xs[i], u_vals[0], v_vals[0]))
        payoffs = m.terminal_payoff(xs)
        assert payoffs.shape == (17,)
        assert all(payoffs[i] == m.terminal_payoff(xs[i]) for i in range(17))


BUNDLED_MODELS = (ZeroModel(), ZeroModel(dimension=3), TwoTypeModel(), ThreeTypeRotorModel())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_forms_equal_direct_broadcast_call(data):
    m = data.draw(st.sampled_from(BUNDLED_MODELS))
    n = data.draw(st.integers(min_value=1, max_value=4))
    weights = np.array(data.draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=m.dimension,
                 max_size=m.dimension), min_size=n, max_size=n))) + 1e-3
    xs = weights / weights.sum(axis=1, keepdims=True)
    ts = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=m.horizon),
                                     min_size=n, max_size=n)))
    d = m.dimension
    uu, vv = m.u_grid.values(), m.v_grid.values()
    nu, nv = uu.size, vv.size

    # grid forms against one direct call on the flattened (state, u, v) rows
    t_rows = np.repeat(ts, nu * nv)
    x_rows = np.repeat(xs, nu * nv, axis=0)
    u_rows = np.tile(np.repeat(uu, nv), n)
    v_rows = np.tile(vv, n * nu)
    direct = np.broadcast_to(m.rate_matrix(t_rows, x_rows, u_rows, v_rows), (n * nu * nv, d, d))
    np.testing.assert_allclose(m.rate_matrix_grid_multi(ts, xs).reshape(-1, d, d), direct,
                               rtol=0, atol=1e-15)
    reference_drift = RateModel.drift(m, t_rows, x_rows, u_rows, v_rows)
    np.testing.assert_allclose(m.drift(t_rows, x_rows, u_rows, v_rows), reference_drift,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(m.drift_grid_multi(ts, xs).reshape(-1, d), reference_drift,
                               rtol=0, atol=1e-15)

    # per-row form, with per-row and with shared controls
    us = uu[data.draw(st.lists(st.integers(0, nu - 1), min_size=n, max_size=n))]
    vs = vv[data.draw(st.lists(st.integers(0, nv - 1), min_size=n, max_size=n))]
    np.testing.assert_allclose(m.rate_matrix_multi(ts, xs, us, vs),
                               np.broadcast_to(m.rate_matrix(ts, xs, us, vs), (n, d, d)),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(m.rate_matrix_multi(ts[0], xs, us[0], vs[0]),
                               [m.rate_matrix(ts[0], x, us[0], vs[0]) for x in xs],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(m.terminal_payoff(xs), [m.terminal_payoff(x) for x in xs],
                               rtol=0, atol=0)


class StatelessRotor(RateModel):
    """Three types whose rates read only t and the controls.

    ``rate_matrix`` leaves out the state axes, so its leading shape comes
    from t, u and v alone and has fewer axes than the states it is applied to.
    """

    name = "stateless-rotor"
    dimension = 3
    horizon = 1.0

    def __init__(self):
        self.u_grid = ControlGrid((0.0, 0.3, 1.0))
        self.v_grid = ControlGrid((0.1, 0.7))

    def rate_matrix(self, t, x, u, v):
        q01 = 0.3 + u * np.cos(t)
        q12 = 0.7 * v + 0.1 * np.asarray(t)
        q20 = u * v + 0.2
        q = np.zeros(np.broadcast(q01, q12, q20).shape + (3, 3))
        q[..., 0, 1], q[..., 0, 0] = q01, -q01
        q[..., 1, 2], q[..., 1, 1] = q12, -q12
        q[..., 2, 0], q[..., 2, 2] = q20, -q20
        return q

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., 0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_drift_is_the_broadcast_einsum_byte_for_byte(data):
    # the derived drift and each model's own, closed forms included, on simplex
    # coordinates with exact zeros, where a closed form must also sign its zeros alike
    m = data.draw(st.sampled_from(BUNDLED_MODELS + (StatelessRotor(),)))
    d = m.dimension
    n = data.draw(st.integers(min_value=1, max_value=5))
    coordinate = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))
    xs = np.array(data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                     min_size=n, max_size=n)))
    ts = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=m.horizon),
                                     min_size=n, max_size=n)))
    uu, vv = m.u_grid.values(), m.v_grid.values()
    us = uu[data.draw(st.lists(st.integers(0, uu.size - 1), min_size=n, max_size=n))]
    vs = vv[data.draw(st.lists(st.integers(0, vv.size - 1), min_size=n, max_size=n))]

    def reference(t, x, u, v):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,...ij->...j", x, m.rate_matrix(t, x, u, v))

    grid_args, grid_shape = m._grid_args(ts, xs)
    for args in ((ts, xs, us, vs), (ts[0], xs, us[0], vs[0]), (ts[0], xs[0], us[0], vs[0]),
                 grid_args):
        want = reference(*args)
        for drift in (RateModel.drift, type(m).drift):
            got = drift(m, *args)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    want = np.broadcast_to(reference(*grid_args), grid_shape + (d,))
    assert m.drift_grid_multi(ts, xs).tobytes() == want.tobytes()


def test_estimate_constants_two_type():
    m = TwoTypeModel()
    report = estimate_constants(m, SamplingSpec(samples=2048, pair_samples=2048), seed=2)
    c = report.constants
    # declared exact values win
    assert c.k == 1.0
    assert c.l == 2.0
    assert c.r == 1.0
    # sampled values approach them from below
    assert report.sampled["k"] == pytest.approx(1.0, abs=1e-12)  # grid max is attained
    assert report.sampled["l"] == pytest.approx(2.0, rel=0.05)
    assert report.sampled["l"] <= 2.0 + 1e-9
    assert c.gamma.at(0.5) == 0.0


def test_estimate_constants_three_type_sampled_l():
    m = ThreeTypeRotorModel()
    report = estimate_constants(m, SamplingSpec(samples=1024, pair_samples=1024), seed=3)
    c = report.constants
    assert c.k == 1.0
    assert c.r == 1.0
    assert c.l == report.sampled["l"] > 0.0
    assert c.gamma.at(0.01) == pytest.approx(0.5 * np.pi * 0.01)
    beta, gain = coupling_constants(m, c)
    assert beta == 2 * c.l
    assert gain == 2 * 9 * 1.0


@pytest.mark.parametrize("name", ["two-type", "three-type"])
def test_mirrored_model_is_valid_with_the_base_constants(name):
    base = build_model(name)
    mirror = mirrored(base)
    assert mirrored(mirror) is base
    assert (mirror.u_grid, mirror.v_grid) == (base.v_grid, base.u_grid)
    report = validate_rate_model(mirror, samples=2048, seed=7)
    assert report.passed, report.failure
    # swapping the seats and negating the payoff change no constant
    for seed in (0, 5):
        want = estimate_constants(base, seed=seed).constants
        got = estimate_constants(mirror, seed=seed).constants
        assert (got.k, got.l, got.r) == (want.k, want.l, want.r)
        assert np.array_equal(got.gamma.deltas, want.gamma.deltas)
        assert np.array_equal(got.gamma.values, want.gamma.values)


def test_gamma_table_monotone_lookup():
    g = GammaTable(np.array([0.01, 0.1]), np.array([0.2, 0.5]))
    assert g.at(0.0) == 0.0
    assert g.at(0.005) == 0.2
    assert g.at(0.05) == 0.5
    assert g.at(0.2) >= 0.5
    with pytest.raises(ValueError):
        GammaTable(np.array([0.1, 0.01]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        ModelConstants(k=-1.0, l=0.0, r=0.0)


def test_registry_roundtrip():
    m = build_model("two-type", {"horizon": 2.0})
    assert isinstance(m, TwoTypeModel)
    assert m.horizon == 2.0
    with pytest.raises(ValueError):
        build_model("not-a-model")
