"""Noise model, Brownian paths, correction drift and the exact oracle."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.errors import (
    GridMismatch,
    LengthMismatch,
    MeshMismatch,
    NotConservative,
    OutOfRange,
    SnlsError,
    UnboundedCoefficient,
)
from snls.grid_field import (
    ComplexField,
    Grid,
    constant_field,
    gaussian_field,
    lp_norm,
    random_field,
)
from snls.noise import (
    BrownianPath,
    coarsen_increments,
    diffusion_only_exact,
    diffusion_only_exact_paths,
    euler_maruyama_diffusion,
    euler_maruyama_paths,
    make_noise_model,
    noise_term,
    sample_brownian_path,
    stratonovich_drift,
)
from snls.verify import em_strong_errors, strong_order

import reference
from reference import coarsen_path, heun_stratonovich_diffusion, zero_field

GRID = Grid(d=1, n=64, L=16.0)


def test_make_noise_model_constant_real():
    m = make_noise_model([constant_field(GRID, 1.0)], [], GRID)
    assert m.conservative
    assert m.n_modes == 1 and m.n_linear_modes == 0


def test_make_noise_model_gaussian_real():
    m = make_noise_model([gaussian_field(GRID, 1.0, 2.0)], [], GRID)
    assert m.conservative


def test_make_noise_model_imaginary_not_conservative():
    m = make_noise_model([constant_field(GRID, 0.5j)], [], GRID)
    assert not m.conservative


def test_make_noise_model_rejects_nonfinite():
    """Coefficients whose squared sup norms overflow, or that lie on another
    grid, are refused; a non-finite one cannot be a ComplexField at all."""
    for coeffs, linear in (([constant_field(GRID, 1e200)], []), ([], [constant_field(GRID, 2e154)])):
        with pytest.raises(UnboundedCoefficient):
            make_noise_model(coeffs, linear, GRID)
    with pytest.raises(GridMismatch):
        make_noise_model([constant_field(Grid(d=1, n=32, L=16.0), 1.0)], [], GRID)


def test_summability_sums():
    e1 = constant_field(GRID, 2.0)
    e2 = gaussian_field(GRID, 3.0, 1.0)
    b1 = constant_field(GRID, 0.5)
    m = make_noise_model([e1, e2], [b1], GRID)
    assert np.allclose(m.mu1, -0.5 * (4.0 + np.abs(e2.values) ** 2))
    assert np.allclose(m.mu2, -0.125)


def test_brownian_path_deterministic():
    mesh = np.linspace(0.0, 1.0, 65)
    a = sample_brownian_path(mesh, 3, seed=42, path_index=7)
    b = sample_brownian_path(mesh, 3, seed=42, path_index=7)
    assert np.array_equal(a.increments, b.increments)
    c = sample_brownian_path(mesh, 3, seed=42, path_index=8)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_address_must_be_integers():
    """A seed or path index that is not an integer raises OutOfRange instead
    of being truncated into another path's Philox key or counter; Python and
    numpy integers are one address."""
    mesh = np.linspace(0.0, 1.0, 9)
    for seed, path_index in ((3.9, 0), (3, 2.5), (True, 0), (3, False), ("3", 0), (3, "2"), (3.0, 0)):
        with pytest.raises(OutOfRange, match="integers"):
            sample_brownian_path(mesh, 2, seed, path_index)
    ref = sample_brownian_path(mesh, 2, 3, 2).increments
    for seed, path_index in ((np.int64(3), 2), (3, np.uint64(2))):
        assert np.array_equal(sample_brownian_path(mesh, 2, seed, path_index).increments, ref)


def test_brownian_mode_count_must_be_a_nonnegative_integer():
    """A mode count that is a float, a bool, a string or negative raises
    OutOfRange, not a bare TypeError or numpy's ValueError; a numpy integer
    is the same count."""
    mesh = np.linspace(0.0, 1.0, 9)
    for M in (2.5, 2.0, True, -1, "2"):
        with pytest.raises(OutOfRange, match="mode count"):
            sample_brownian_path(mesh, M, 0, 0)
    ref = sample_brownian_path(mesh, 2, 0, 0).increments
    assert np.array_equal(sample_brownian_path(mesh, np.int64(2), 0, 0).increments, ref)


def test_brownian_modes_do_not_depend_on_mode_count():
    """Mode m's stream is addressed by (seed, path, m): adding modes must
    not change existing ones."""
    mesh = np.linspace(0.0, 1.0, 33)
    a = sample_brownian_path(mesh, 2, seed=1, path_index=0)
    b = sample_brownian_path(mesh, 5, seed=1, path_index=0)
    assert np.array_equal(a.increments, b.increments[:2])


def test_brownian_empty_mesh():
    p = sample_brownian_path(np.array([]), 2, 0, 0)
    assert p.increments.shape == (2, 0)


def test_brownian_statistics():
    """Pooled standardized increments: mean within 4 stderr of 0, variance
    within 5 stderr of 1 (law of large numbers oracle)."""
    mesh = np.linspace(0.0, 1.0, 1001)
    samples = []
    for pi in range(100):
        p = sample_brownian_path(mesh, 10, seed=5, path_index=pi)
        samples.append(p.increments / math.sqrt(mesh[1] - mesh[0]))
    z = np.concatenate([s.ravel() for s in samples])
    n = z.size
    assert n == 10**6
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)


def test_brownian_variance_scales_with_dt():
    mesh = np.concatenate([[0.0], np.cumsum(np.random.default_rng(3).uniform(0.01, 0.2, 2000))])
    p = sample_brownian_path(mesh, 1, seed=9, path_index=0)
    z = p.increments[0] / np.sqrt(np.diff(p.mesh))
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / z.size)


def test_coarsen_path_sums_increments():
    mesh = np.linspace(0.0, 1.0, 17)
    p = sample_brownian_path(mesh, 2, 0, 0)
    c = coarsen_path(p, 4)
    assert c.mesh.size == 5
    assert np.allclose(c.increments[:, 0], p.increments[:, :4].sum(axis=1))
    # total displacement preserved
    assert np.allclose(c.increments.sum(axis=1), p.increments.sum(axis=1))


def test_stratonovich_drift_cases():
    model = make_noise_model([constant_field(GRID, 1.0)], [], GRID)
    assert np.max(np.abs(stratonovich_drift(zero_field(GRID).values, model, 1.0))) == 0.0

    # gamma = 1, e = 1: drift is -u/2
    u = random_field(GRID, np.random.default_rng(0))
    d = stratonovich_drift(u.values, model, 1.0)
    assert np.max(np.abs(d + 0.5 * u.values)) < 1e-14

    # gamma = 2, e = 2, u = 1: -1/2 * 4 * 1 * 1 = -2 everywhere
    model2 = make_noise_model([constant_field(GRID, 2.0)], [], GRID)
    d2 = stratonovich_drift(constant_field(GRID, 1.0).values, model2, 2.0)
    assert np.max(np.abs(d2 + 2.0)) < 1e-14


def test_stratonovich_drift_includes_linear_part():
    model = make_noise_model([], [constant_field(GRID, 3.0)], GRID)
    u = constant_field(GRID, 1.0 + 1.0j)
    d = stratonovich_drift(u.values, model, 1.0)
    assert np.max(np.abs(d + 4.5 * u.values)) < 1e-14


def test_noise_term_cases():
    model = make_noise_model([constant_field(GRID, 1.0)], [], GRID)
    u = random_field(GRID, np.random.default_rng(1))
    assert np.max(np.abs(noise_term(u.values, model, 1.0, np.array([0.0])))) == 0.0
    h = 0.3
    out = noise_term(u.values, model, 1.0, np.array([h]))
    assert np.max(np.abs(out + 1j * h * u.values)) < 1e-14
    # homogeneity in the increments
    out2 = noise_term(u.values, model, 1.0, np.array([2 * h]))
    assert np.max(np.abs(out2 - 2.0 * out)) < 1e-14


def test_noise_term_pointwise_local():
    model = make_noise_model([gaussian_field(GRID, 1.0, 2.0)], [], GRID)
    rng = np.random.default_rng(2)
    u = random_field(GRID, rng).values
    u2 = u.copy()
    u2[17] += 1.0
    a = noise_term(u, model, 2.0, np.array([0.7]))
    b = noise_term(u2, model, 2.0, np.array([0.7]))
    changed = np.nonzero(np.abs(a - b) > 1e-14)[0]
    assert np.array_equal(changed, [17])
    da = stratonovich_drift(u, model, 2.0)
    db = stratonovich_drift(u2, model, 2.0)
    assert np.array_equal(np.nonzero(np.abs(da - db) > 1e-14)[0], [17])


def test_conservative_noise_orthogonality():
    """Re <u, i e |u|^(g-1) u> integrates to zero: the discrete form of the
    phase-rotation structure for real coefficients."""
    model = make_noise_model([gaussian_field(GRID, 1.3, 2.0)], [], GRID)
    rng = np.random.default_rng(3)
    for gamma in (1.0, 1.5, 2.0):
        for _ in range(25):
            u = random_field(GRID, rng)
            kick = noise_term(u.values, model, gamma, np.array([1.0]))
            inner = np.sum(np.conj(u.values) * kick) * GRID.cell_volume
            assert abs(inner.real) < 1e-12 * lp_norm(u, 2) ** 2


def test_diffusion_only_exact_cases():
    model = make_noise_model([constant_field(GRID, 0.8)], [], GRID)
    mesh = np.linspace(0.0, 1.0, 129)
    path = sample_brownian_path(mesh, 1, 21, 0)

    out = diffusion_only_exact(zero_field(GRID), model, 1.5, path, 1.0)
    assert lp_norm(out, 2) == 0.0

    # gamma = 1, constant real e: pure phase, modulus preserved
    u0 = random_field(GRID, np.random.default_rng(4))
    out = diffusion_only_exact(u0, model, 1.0, path, 1.0)
    beta = float(path.increments[0].sum())
    assert np.max(np.abs(out.values - u0.values * np.exp(-1j * 0.8 * beta))) < 1e-13

    # gamma = 2, e = 1, u0 = 2: u(t) = 2 exp(-2 i beta(t))
    model1 = make_noise_model([constant_field(GRID, 1.0)], [], GRID)
    two = constant_field(GRID, 2.0)
    out2 = diffusion_only_exact(two, model1, 2.0, path, 1.0)
    assert np.max(np.abs(out2.values - 2.0 * np.exp(-2j * beta))) < 1e-13


def test_diffusion_only_exact_takes_only_mesh_times():
    """beta(t) is known only at the mesh times: a t between them or past the
    mesh end raises OutOfRange, and a t within 1e-12 of a mesh time gives
    that time's state."""
    model = make_noise_model([constant_field(GRID, 0.8)], [], GRID)
    path = sample_brownian_path(np.linspace(0.0, 1.0, 5), 1, 21, 0)
    u0 = random_field(GRID, np.random.default_rng(4))
    for t in (0.26, 7.0, -0.5):
        with pytest.raises(OutOfRange):
            diffusion_only_exact(u0, model, 1.5, path, t)
    half = diffusion_only_exact(u0, model, 1.5, path, 0.5).values
    assert np.array_equal(diffusion_only_exact(u0, model, 1.5, path, 0.5 + 1e-13).values, half)
    assert not np.array_equal(diffusion_only_exact(u0, model, 1.5, path, 1.0).values, half)


def test_diffusion_only_requires_conservative():
    model = make_noise_model([constant_field(GRID, 1j)], [], GRID)
    with pytest.raises(NotConservative):
        diffusion_only_exact(zero_field(GRID), model, 1.0, sample_brownian_path(np.array([0.0, 1.0]), 1, 0, 0), 1.0)


def test_diffusion_only_preserves_modulus():
    rng = np.random.default_rng(5)
    model = make_noise_model(
        [gaussian_field(GRID, 0.9, 1.5), constant_field(GRID, 0.4)], [], GRID
    )
    mesh = np.linspace(0.0, 1.0, 51)
    for pi in range(20):
        path = sample_brownian_path(mesh, 2, 31, pi)
        u0 = random_field(GRID, rng)
        for t in (0.3, 1.0):
            out = diffusion_only_exact(u0, model, 1.7, path, t)
            assert np.max(np.abs(np.abs(out.values) - np.abs(u0.values))) < 1e-13


def test_heun_reverifies_exact_solution():
    """Fine-step Stratonovich-Heun integration lands on the closed form."""
    model = make_noise_model([gaussian_field(GRID, 0.7, 2.0)], [], GRID)
    u0 = gaussian_field(GRID, 1.5, 2.5)
    errs = []
    for steps in (200, 800):
        mesh = np.linspace(0.0, 1.0, steps + 1)
        path = sample_brownian_path(np.linspace(0.0, 1.0, 801), 1, 77, 0)
        cpath = coarsen_path(path, 800 // steps)
        heun = heun_stratonovich_diffusion(u0, model, 1.5, cpath)
        exact = diffusion_only_exact(u0, model, 1.5, path, 1.0)
        errs.append(lp_norm(heun - exact, 2))
    assert errs[-1] < 2e-3
    assert errs[1] < errs[0]


def test_euler_maruyama_strong_order_to_exact():
    """EM on (Ito drift, noise term) converges to the closed form at
    strong order about 1/2; regression over four dt levels, gamma = 2,
    40 paths marched as one stack per level."""
    model = make_noise_model([gaussian_field(GRID, 0.5, 2.0)], [], GRID)
    u0 = gaussian_field(GRID, 2.0, 2.0)
    ks = [5, 6, 7, 8]
    errors = em_strong_errors(model, u0, [2.0], n_paths=40, seed=13, fine=2**9, ks=ks)
    slope = strong_order(ks, errors[2.0])
    assert 0.4 <= slope <= 0.6, f"strong order {slope} outside 0.5 +- 0.1"


def _stack_problem(n_modes: int, n_linear: int, P: int, seed: int):
    """Real bump coefficients (plus constant linear modes), a bump initial
    state and P paths of 32 steps on [0, 1] as a (P, M, K) block."""
    model = make_noise_model(
        [gaussian_field(GRID, 0.6 + 0.2 * m, 1.5 + m) for m in range(n_modes)],
        [constant_field(GRID, 0.3 + 0.1 * m) for m in range(n_linear)],
        GRID,
    )
    u0 = gaussian_field(GRID, 1.5, 2.0)
    mesh = np.linspace(0.0, 1.0, 33)
    increments = np.stack(
        [sample_brownian_path(mesh, model.total_modes, seed, i).increments for i in range(P)]
    )
    return model, u0, mesh, increments


@settings(max_examples=25, deadline=None)
@given(
    P=st.integers(1, 6),
    gamma=st.sampled_from([1.0, 1.5, 2.0]),
    n_modes=st.sampled_from([1, 2]),
    n_linear=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_stack_forms_are_bitwise_independent_of_the_batch(P, gamma, n_modes, n_linear, seed, data):
    """Row p of a stack is the solo result of path p, bitwise, for a batch
    of P, a batch of one and shuffled order; the one-path functions agree.
    The exact flow admits no linear modes and takes the model without."""
    order = data.draw(st.permutations(range(P)))
    model, u0, mesh, increments = _stack_problem(n_modes, n_linear, P, seed)
    conservative, _, _, _ = _stack_problem(n_modes, 0, P, seed)
    t = data.draw(st.sampled_from([0.3125, 1.0]))
    factor = data.draw(st.sampled_from([1, 2, 8]))
    forms = {
        "em": (lambda inc: euler_maruyama_paths(u0, model, gamma, mesh, inc), increments),
        "exact": (lambda inc: diffusion_only_exact_paths(u0, conservative, gamma, mesh, inc, t), increments[:, :n_modes]),
        "coarsen": (lambda inc: coarsen_increments(inc, factor), increments),
    }
    batches = {}
    for name, (form, block) in forms.items():
        batch = batches[name] = form(block)
        shuffled = form(block[order])
        for i, p in enumerate(order):
            assert np.array_equal(form(block[p : p + 1])[0], batch[p])
            assert np.array_equal(shuffled[i], batch[p])
    for p in range(P):
        path = BrownianPath(mesh, increments[p], seed, p)
        assert np.array_equal(euler_maruyama_diffusion(u0, model, gamma, path).values, batches["em"][p])
        assert np.array_equal(coarsen_path(path, factor).increments, batches["coarsen"][p])
        exact = diffusion_only_exact(u0, conservative, gamma, replace(path, increments=increments[p, :n_modes]), t)
        assert np.array_equal(exact.values, batches["exact"][p])


@settings(max_examples=10, deadline=None)
@given(P=st.integers(1, 6), gamma=st.sampled_from([1.0, 1.5, 2.0]), data=st.data())
def test_stack_overflow_raises_snls_error(P, gamma, data):
    """One row driven by huge increments overflows (its Brownian motion
    reaches inf): the stack forms raise the typed SnlsError of a non-finite
    field, and no RuntimeWarning."""
    bad = data.draw(st.integers(0, P - 1))
    model, u0, mesh, increments = _stack_problem(1, 0, P, 7)
    increments[bad] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SnlsError, match="non-finite") as em:
            euler_maruyama_paths(u0, model, gamma, mesh, increments)
        assert type(em.value) is SnlsError
        with pytest.raises(SnlsError, match="non-finite") as ex:
            diffusion_only_exact_paths(u0, model, gamma, mesh, increments, 1.0)
        assert type(ex.value) is SnlsError


def test_stack_forms_reject_mismatched_blocks():
    model, u0, mesh, increments = _stack_problem(2, 1, 3, 0)
    with pytest.raises(LengthMismatch):
        euler_maruyama_paths(u0, model, 1.5, mesh, increments[:, :2])
    with pytest.raises(MeshMismatch):
        euler_maruyama_paths(u0, model, 1.5, mesh[:-1], increments)
    conservative = make_noise_model([ComplexField(GRID, c) for c in model.coeffs], [], GRID)
    with pytest.raises(LengthMismatch):
        diffusion_only_exact_paths(u0, conservative, 1.5, mesh, increments, 1.0)
    with pytest.raises(OutOfRange):
        coarsen_increments(increments, 5)
    # a mesh that does not increase would pick the wrong prefix of steps
    with pytest.raises(OutOfRange):
        diffusion_only_exact_paths(u0, conservative, 1.5, mesh[::-1], increments[:, :2], 1.0)
    # NaN is no mesh time
    with pytest.raises(OutOfRange):
        diffusion_only_exact_paths(u0, conservative, 1.5, mesh, increments[:, :2], math.nan)
    with pytest.raises(OutOfRange):
        euler_maruyama_paths(u0, model, 1.5, np.zeros_like(mesh), increments)


def test_antithetic_modulus_invariance():
    model = make_noise_model([gaussian_field(GRID, 1.0, 2.0)], [], GRID)
    u0 = gaussian_field(GRID, 1.2, 1.5)
    mesh = np.linspace(0.0, 1.0, 65)
    path = sample_brownian_path(mesh, 1, 55, 4)
    a = diffusion_only_exact(u0, model, 1.5, path, 1.0)
    b = diffusion_only_exact(u0, model, 1.5, replace(path, increments=-path.increments), 1.0)
    assert np.max(np.abs(np.abs(a.values) - np.abs(b.values))) < 1e-14


@pytest.mark.parametrize("n_modes, n_linear", [(1, 0), (2, 1), (0, 2)])
def test_euler_maruyama_paths_are_bitwise_the_per_step_loop(stack_cap, n_modes, n_linear):
    """Stacks under any cap, |v| taken once per step and one finiteness
    check at the end give the per-step loop's bits; a row that overflows
    raises in both."""
    for seed in (0, 5, 11):
        model, u0, mesh, increments = _stack_problem(n_modes, n_linear, 7, seed)
        for gamma in (1.0, 1.5, 2.0):
            got = euler_maruyama_paths(u0, model, gamma, mesh, increments)
            assert got.tobytes() == reference.euler_maruyama_paths(u0, model, gamma, mesh, increments).tobytes()
    increments[3] = 1e308
    for march in (euler_maruyama_paths, reference.euler_maruyama_paths):
        with pytest.raises(SnlsError, match="non-finite"):
            march(u0, model, 2.0, mesh, increments)
