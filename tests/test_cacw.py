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
    compute_covariance,
    generate_weights,
    normalize_covariance,
    pca_eigendecompose,
    pca_project,
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


def test_pca_project_full_basis_preserves_variance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m, n = int(rng.integers(8, 40)), int(rng.integers(2, 10))
        X = rng.standard_normal((m, n)) * rng.uniform(0.5, 5)
        C = compute_covariance(Tensor(X)).data
        res = pca_eigendecompose(C)
        Y = pca_project(X, res.eigenvectors)
        var_y = (Y * Y).sum() / (m - 1)
        assert abs(var_y - np.trace(C)) < 1e-8 * max(1.0, np.trace(C))


def test_pca_project_top1_captures_lambda1():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    res = pca_eigendecompose(compute_covariance(Tensor(X)).data)
    Y = pca_project(X, res.basis(1))
    captured = (Y * Y).sum() / (X.shape[0] - 1)
    assert abs(captured - 8.0) < 1e-9


def test_pca_project_identity_columns():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((7, 5))
    P = np.eye(5)[:, :2]
    Y = pca_project(X, P)
    centered = X - X.mean(axis=0)
    assert np.allclose(Y, centered.T[:2], atol=1e-12)


def test_pca_project_oversized_basis():
    with pytest.raises(DimensionError):
        pca_project(np.ones((4, 3)), np.ones((3, 4)))


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
