import gc
import weakref

import numpy as np
import pytest

from adwm import (
    ConfigurationError,
    DegenerateSampleError,
    DimensionError,
    NumericError,
    Tensor,
    gradcheck,
)
from adwm.cacw import (
    AttentionWeights,
    CacwModule,
    PcaWeights,
    PoolWeights,
    cacw_forward,
    centered_gram,
    compute_covariance,
    generate_weights,
    normalize_covariance,
    pca_eigendecompose,
)


# ----------------------------------------------------------------------
# oracles

def covariance_loops(X):
    """O(m n^2) double-loop sample covariance."""
    m, n = X.shape
    mu = X.mean(axis=0)
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(m):
                acc += (X[r, i] - mu[i]) * (X[r, j] - mu[j])
            C[i, j] = acc / (m - 1)
    return C


def centered_gram_oracle(X):
    """The tape composition that `centered_gram` fuses into one node."""
    centered = X - X.mean(axis=-2, keepdims=True)
    return centered.transpose(tuple(range(X.ndim - 2)) + (X.ndim - 1, X.ndim - 2)) @ centered


def mlp_rows_loops(module, corr):
    """Scalar-by-scalar evaluation of the shared row MLP."""
    W1, b1 = module.W1.data, module.b1.data
    W2, b2 = module.W2.data, module.b2.data
    n, d = module.n, module.d
    out = np.zeros(n)
    for i in range(n):
        h = np.zeros(d)
        for a in range(d):
            acc = b1[a]
            for j in range(n):
                acc += W1[a, j] * corr[i, j]
            h[a] = acc if acc > 0 else 0.01 * acc
        o = b2[0]
        for a in range(d):
            o += W2[0, a] * h[a]
        out[i] = 1.0 / (1.0 + np.exp(-o)) if module.output_activation == "sigmoid" else o
    return out


# ----------------------------------------------------------------------
# covariance

def test_covariance_worked_example():
    C = compute_covariance(Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.allclose(C.data, [[4.0, 4.0], [4.0, 4.0]], atol=1e-12)


def test_covariance_matches_double_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, 17))
        X = rng.standard_normal((m, n)) * rng.uniform(0.1, 10)
        C = compute_covariance(Tensor(X))
        assert np.abs(C.data - covariance_loops(X)).max() < 1e-10


def test_covariance_constant_column_zero():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 4))
    X[:, 2] = 3.0
    C = compute_covariance(Tensor(X)).data
    assert np.allclose(C[2, :], 0.0, atol=1e-14)
    assert np.allclose(C[:, 2], 0.0, atol=1e-14)


def test_covariance_single_sample_rejected():
    with pytest.raises(DegenerateSampleError):
        compute_covariance(Tensor(np.ones((1, 3))))


def test_covariance_batched_matches_per_sample():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 10, 3))
    C = compute_covariance(Tensor(X)).data
    for b in range(5):
        assert np.allclose(C[b], covariance_loops(X[b]), atol=1e-12)


# unbatched, batched, and the fewest samples a covariance takes; then
# larger items, which the backward walks one at a time, and two batch axes
GRAM_SHAPES = [(7, 3), (2, 6, 4), (2, 3), (3, 2, 1), (64, 4), (3, 50, 16), (2, 2, 9, 3)]


def centered_gram_backward_oracle(x, g):
    """dX_i = Xc_i (G_i + G_i^T), one numpy item at a time, with Xc
    centred as `centered_gram` centres it: the analytic backward."""
    m = x.shape[-2]
    xc = x + (x.sum(axis=-2, keepdims=True) * (1.0 / m)) * -1.0
    dx = np.empty_like(x)
    for i in np.ndindex(x.shape[:-2]):
        dx[i] = xc[i] @ (g[i] + g[i].T)
    return dx


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("second_consumer", [False, True])
@pytest.mark.parametrize("shape", GRAM_SHAPES)
def test_centered_gram_matches_composition(shape, second_consumer, poisoned,
                                           poisoned_empty):
    # the forward has the composition's bytes; the analytic backward drops
    # the centering's own term, whose column sums vanish up to rounding
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(52)
    x = rng.standard_normal(shape) * 3.0 + 1.0
    x.flat[::4] = 0.0
    g = Tensor(rng.standard_normal(shape[:-2] + (shape[-1], shape[-1])))
    w = Tensor(rng.standard_normal(shape))
    results = []
    for gram in (centered_gram, centered_gram_oracle):
        X = Tensor(x.copy(), requires_grad=True)
        out = gram(X)
        loss = (out * g).sum()
        if second_consumer:
            # the tape reaches X * w after the Gram, so X already holds a
            # gradient when the Gram's backward adds into it
            loss = loss + (X * w).sum()
        loss.backward()
        results.append((out.data, X.grad))
    (out, grad), (want_out, want_grad) = results
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes(), shape
    assert grad.shape == want_grad.shape
    np.testing.assert_allclose(grad, want_grad, rtol=0,
                               atol=1e-13 * shape[-2] * np.abs(want_grad).max())


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("shape", GRAM_SHAPES)
def test_centered_gram_backward_is_the_analytic_one_bitwise(shape, poisoned, poisoned_empty):
    if poisoned:
        poisoned_empty()
    rng = np.random.default_rng(54)
    x = rng.standard_normal(shape) * 3.0 + 1.0
    g = rng.standard_normal(shape[:-2] + (shape[-1], shape[-1]))
    X = Tensor(x.copy(), requires_grad=True)
    (centered_gram(X) * Tensor(g)).sum().backward()
    # (out * g).sum() hands the Gram g * 1.0, which is g
    assert X.grad.tobytes() == centered_gram_backward_oracle(x, g).tobytes(), shape


def test_centered_gram_keeps_no_centered_copy_on_the_tape(monkeypatch):
    # the node holds X and a (1, n) mean; the (m, n) centered copy that
    # the forward's product reads frees as soon as the op returns
    seen = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.extend(weakref.ref(t) for t in (a, b) if t.base is None)
        return matmul(a, b, *args, **kwargs)

    X = Tensor(np.random.default_rng(53).standard_normal((64, 4)), requires_grad=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        monkeypatch.setattr(np, "matmul", spy)
        out = centered_gram(X)
        monkeypatch.undo()
        assert out.requires_grad and seen
        assert all(ref() is None for ref in seen)
        out.sum().backward()
    finally:
        if enabled:
            gc.enable()
    # the backward's rebuilt copy gives the analytic gradient
    ones = np.ones((4, 4))
    assert X.grad.tobytes() == centered_gram_backward_oracle(X.data, ones).tobytes()


# ----------------------------------------------------------------------
# normalization

def test_normalize_worked_example():
    out = normalize_covariance(Tensor([[4.0, 4.0], [4.0, 4.0]]))
    assert np.allclose(out.data, 1.0, atol=1e-6)


def test_normalize_zero_matrix():
    out = normalize_covariance(Tensor(np.zeros((3, 3))))
    assert np.array_equal(out.data, np.zeros((3, 3)))


def test_correlation_contract_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(3, 64))
        n = int(rng.integers(2, 12))
        X = rng.standard_normal((m, n)) * rng.uniform(0.5, 20)
        R = normalize_covariance(compute_covariance(Tensor(X))).data
        assert np.abs(R.diagonal() - 1.0).max() <= 1e-6
        assert R.min() >= -1.0 - 1e-9 and R.max() <= 1.0 + 1e-9
        assert np.allclose(R, R.T, atol=1e-12)


# ----------------------------------------------------------------------
# weight generation

def test_zero_network_gives_half():
    mod = CacwModule(n=4, seed=0)
    mod.W1.data[:] = 0.0
    w = generate_weights(mod, Tensor(np.eye(4)))
    assert np.array_equal(w.data, np.full(4, 0.5))


def test_generate_weights_hand_evaluation():
    rng = np.random.default_rng(4)
    mod = CacwModule(n=5, seed=7)
    mod.W2.data[:] = rng.standard_normal((1, mod.d))
    mod.b2.data[:] = 0.3
    corr = normalize_covariance(compute_covariance(Tensor(rng.standard_normal((12, 5))))).data
    w = generate_weights(mod, Tensor(corr))
    assert np.allclose(w.data, mlp_rows_loops(mod, corr), atol=1e-12)


def test_row_sharing_gives_equivariance_for_symmetric_first_layer():
    # With a coordinate-symmetric first layer (all W1 columns equal) the
    # shared row MLP is fully equivariant: permuting features permutes
    # the weights. A general W1 distinguishes input coordinates, so full
    # equivariance cannot hold architecture-wide; the attainable duplicate-
    # feature consequence is covered below.
    rng = np.random.default_rng(5)
    mod = CacwModule(n=6, seed=1)
    mod.W1.data[:] = rng.standard_normal((mod.d, 1))  # broadcast: equal columns
    mod.W2.data[:] = rng.standard_normal((1, mod.d))
    corr = normalize_covariance(compute_covariance(Tensor(rng.standard_normal((30, 6))))).data
    perm = rng.permutation(6)
    w = generate_weights(mod, Tensor(corr)).data
    w_perm = generate_weights(mod, Tensor(corr[np.ix_(perm, perm)])).data
    assert np.allclose(w_perm, w[perm], atol=1e-12)


def test_duplicate_features_get_equal_weights():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 4))
    X[:, 3] = X[:, 0]
    mod = CacwModule(n=4, seed=2)
    mod.W2.data[:] = rng.standard_normal((1, mod.d))
    w = cacw_forward(mod, Tensor(X)).data
    assert abs(w[0] - w[3]) < 1e-9


def test_cacw_forward_gradcheck():
    rng = np.random.default_rng(7)
    mod = CacwModule(n=4, seed=3)
    mod.W2.data[:] = rng.standard_normal((1, mod.d)) * 0.5
    X = Tensor(rng.standard_normal((9, 4)))

    def fn(x, w1, b1, w2, b2):
        return (cacw_forward(mod, x) * cacw_forward(mod, x)).sum()

    err = gradcheck(fn, [X, mod.W1, mod.b1, mod.W2, mod.b2])
    assert err < 1e-4


def test_positive_rescale_invariance():
    rng = np.random.default_rng(8)
    mod = CacwModule(n=5, seed=4)
    mod.W2.data[:] = rng.standard_normal((1, mod.d))
    X = rng.standard_normal((50, 5)) + 2.0
    w1 = cacw_forward(mod, Tensor(X)).data
    w10 = cacw_forward(mod, Tensor(10.0 * X)).data
    assert np.abs(w1 - w10).max() < 1e-6


def test_iid_columns_report_only():
    # Monte-Carlo: independent columns should sit near the zero-correlation response
    rng = np.random.default_rng(9)
    mod = CacwModule(n=2, seed=5)
    mod.W2.data[:] = rng.standard_normal((1, mod.d))
    X = rng.standard_normal((4096, 2))
    corr = normalize_covariance(compute_covariance(Tensor(X))).data
    w = generate_weights(mod, Tensor(corr)).data
    w_ref = generate_weights(mod, Tensor(np.eye(2))).data
    print(f"iid columns: |corr12|={abs(corr[0, 1]):.4f}, max weight drift={np.abs(w - w_ref).max():.4f}")
    assert abs(corr[0, 1]) < 0.1
    assert np.abs(w - w_ref).max() < 0.05


def test_generate_weights_size_mismatch():
    with pytest.raises(DimensionError):
        generate_weights(CacwModule(n=4), Tensor(np.eye(3)))


# ----------------------------------------------------------------------
# PCA

def test_eigendecompose_diagonal_input():
    res = pca_eigendecompose(np.diag([2.0, 1.0]))
    assert np.allclose(res.eigenvalues, [2.0, 1.0])
    assert np.allclose(np.abs(res.eigenvectors), np.eye(2), atol=1e-12)


def test_eigendecompose_takes_arrays_only():
    # as in the data layer, a stray Tensor is not read as a 0-d object array
    with pytest.raises(TypeError):
        pca_eigendecompose(Tensor(np.eye(2)))


def test_eigendecompose_closed_form_2x2():
    res = pca_eigendecompose(np.array([[4.0, 4.0], [4.0, 4.0]]))
    assert np.allclose(res.eigenvalues, [8.0, 0.0], atol=1e-12)
    assert np.allclose(res.eigenvectors[:, 0], np.ones(2) / np.sqrt(2), atol=1e-12)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        A = rng.standard_normal((n, n))
        C = A @ A.T
        res = pca_eigendecompose(C)
        rec = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.abs(rec - C).max() < 1e-9


def test_eigendecompose_against_library_oracle():
    # the solver is built on np.linalg.eigh, so the eigvalsh comparison
    # only pins the descending order; the residual and Gram checks below
    # are the independent ones
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        X = rng.standard_normal((int(rng.integers(n + 1, 50)), n))
        C = covariance_loops(X)
        res = pca_eigendecompose(C)
        lam_ref = np.linalg.eigvalsh(C)[::-1]
        assert np.abs(res.eigenvalues - lam_ref).max() < 1e-9 * max(1.0, lam_ref[0])
        # eigenpair residuals and orthonormality
        r = C @ res.eigenvectors - res.eigenvectors * res.eigenvalues
        assert np.linalg.norm(r, axis=0).max() < 1e-6 * max(1.0, res.eigenvalues[0])
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.abs(gram - np.eye(n)).max() < 1e-8


def test_eigendecompose_rejects_non_finite():
    for bad in (np.nan, np.inf):
        C = np.eye(3)
        C[0, 1] = C[1, 0] = bad
        with pytest.raises(NumericError):
            pca_eigendecompose(C)


def eigendecompose_oracle(C):
    """One matrix at a time, as `pca_eigendecompose` ran before it took stacks."""
    lam, V = np.linalg.eigh((C + C.T) / 2.0)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = V[:, order]
    top = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[top, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return lam, V


@pytest.mark.parametrize("lead", [(16,), (2, 3)])
@pytest.mark.parametrize("n", [4, 16])
def test_eigendecompose_stack_matches_each_matrix_bitwise(lead, n):
    rng = np.random.default_rng(15)
    for _ in range(5):
        A = rng.standard_normal(lead + (n + 3, n))
        C = np.matmul(np.swapaxes(A, -1, -2), A) / (n + 2)
        # a rank-one matrix: its n - 1 zero eigenvalues tie up to rounding
        C[(0,) * len(lead)] = np.outer(A[(0,) * len(lead)][0], A[(0,) * len(lead)][0])
        res = pca_eigendecompose(C)
        assert res.eigenvalues.shape == lead + (n,)
        assert res.eigenvectors.shape == lead + (n, n)
        for idx in np.ndindex(*lead):
            lam, V = eigendecompose_oracle(C[idx])
            assert res.eigenvalues[idx].tobytes() == lam.tobytes(), idx
            assert res.eigenvectors[idx].tobytes() == V.tobytes(), idx


@pytest.mark.parametrize("lead", [(), (3,)])
def test_pca_weights_decompose_once_per_forward(lead, monkeypatch):
    # one stacked call gives the bytes of the per-sample loop it replaced
    from adwm import cacw

    rng = np.random.default_rng(16)
    gen = PcaWeights(n=5, seed=3)
    gen.W2.data[...] = rng.standard_normal(gen.W2.shape)
    X = rng.standard_normal(lead + (20, 5))
    g = rng.standard_normal(lead + (5,))
    calls = []
    eig = cacw.pca_eigendecompose
    monkeypatch.setattr(cacw, "pca_eigendecompose", lambda C: calls.append(C.shape) or eig(C))

    def per_sample(X):
        cov = compute_covariance(X).data
        flat = cov.reshape((-1,) + cov.shape[-2:])
        basis = np.stack([eigendecompose_oracle(c)[1][:, :gen.k] for c in flat])
        return gen._mlp_rows(Tensor(basis.reshape(cov.shape[:-2] + basis.shape[-2:])))

    results = []
    for forward in (gen.forward, per_sample):
        for p in gen.params():
            p.requires_grad = True
            p.zero_grad()
        out = forward(Tensor(X))
        (out * Tensor(g)).sum().backward()
        results.append([out.data] + [p.grad for p in gen.params()])
    assert calls == [lead + (5, 5)]
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_pca_project_full_basis_preserves_variance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m, n = int(rng.integers(8, 40)), int(rng.integers(2, 10))
        X = rng.standard_normal((m, n)) * rng.uniform(0.5, 5)
        C = compute_covariance(Tensor(X)).data
        res = pca_eigendecompose(C)
        Y = res.eigenvectors.T @ (X - X.mean(axis=0)).T
        var_y = (Y * Y).sum() / (m - 1)
        assert abs(var_y - np.trace(C)) < 1e-8 * max(1.0, np.trace(C))


def test_pca_project_top1_captures_lambda1():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    res = pca_eigendecompose(compute_covariance(Tensor(X)).data)
    Y = res.basis(1).T @ (X - X.mean(axis=0)).T
    captured = (Y * Y).sum() / (X.shape[0] - 1)
    assert abs(captured - 8.0) < 1e-9


def test_scree_energy_dominates_random_projections():
    rng = np.random.default_rng(14)
    m, n = 60, 8
    X = rng.standard_normal((m, n)) @ np.diag(rng.uniform(0.2, 3.0, n))
    C = compute_covariance(Tensor(X)).data
    res = pca_eigendecompose(C)
    for k in range(1, n + 1):
        top_k = res.eigenvalues[:k].sum()
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            captured = np.trace(Q.T @ C @ Q)
            assert captured <= top_k + 1e-9


# ----------------------------------------------------------------------
# comparison generators

@pytest.mark.parametrize("cls", [CacwModule, PoolWeights, AttentionWeights, PcaWeights])
def test_generator_shape_contract(cls):
    rng = np.random.default_rng(15)
    gen = cls(n=8, seed=3)
    w = gen.forward(Tensor(rng.standard_normal((64, 8))))
    assert w.shape == (8,)
    assert np.all(np.isfinite(w.data))
    for bad in (dict(n=8, output_activation="softmax"), dict(n=0), dict(n=8, d=0)):
        with pytest.raises(ConfigurationError):
            cls(**bad)


@pytest.mark.parametrize("cls", [CacwModule, PoolWeights, AttentionWeights, PcaWeights])
def test_generator_rejects_other_widths(cls):
    # a generator built for n = 4 must not score 3 or 8 features, nor a
    # vector without a sample axis
    rng = np.random.default_rng(17)
    gen = cls(n=4, seed=5)
    for shape in ((16, 3), (16, 8), (2, 16, 8), (4,)):
        with pytest.raises(DimensionError):
            gen.forward(Tensor(rng.standard_normal(shape)))


@pytest.mark.parametrize("cls", [CacwModule, PoolWeights, AttentionWeights, PcaWeights])
def test_generator_zero_head_constant(cls):
    rng = np.random.default_rng(16)
    gen = cls(n=6, seed=4)  # heads are zero-initialized
    w = gen.forward(Tensor(rng.standard_normal((32, 6)))).data
    assert np.allclose(w, w[0])


def test_generator_param_counts():
    n = 8
    for cls, expect in [
        (CacwModule, lambda g: g.d * n + 2 * g.d + 1),
        (PoolWeights, lambda g: 2 * g.d * n + g.d + n),
        (AttentionWeights, lambda g: g.d * n + 2 * g.d + 1),
        (PcaWeights, lambda g: g.d * g.k + 2 * g.d + 1),
    ]:
        gen = cls(n=n)
        assert gen.param_count() == expect(gen)
        assert sum(p.size for p in gen.params()) == gen.param_count()


def test_default_hidden_width_is_ceil_080_n():
    assert CacwModule(n=16).d == 13  # ceil(0.8 * 16)
    assert CacwModule(n=4).d == 4    # ceil(3.2)
