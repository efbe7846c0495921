"""Covariance-correlation weight generation and PCA reference machinery.

The central operator turns an observation matrix X (m samples of n
features) into a per-feature weight vector: covariance, normalization to
a correlation matrix, then a small learned map applied to each row. Three
alternative weight generators (pooling, self-attention relevance, PCA
coordinates) share the same calling convention so they can be swapped
into the same slots for comparison runs.

All ops accept an optional leading batch axis; the documented contracts
are the unbatched shapes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateSampleError, DimensionError, NumericError
from .tensor import Tensor, softmax


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def compute_covariance(X):
    """Sample covariance of the columns of X, with Bessel correction.

    X: (m, n) observation matrix, m >= 2. Returns the symmetrized
    (n, n) covariance (X-mean)^T (X-mean) / (m-1).
    """
    X = _as_tensor(X)
    if X.ndim < 2:
        raise DimensionError(f"observation matrix must be 2-D, got shape {X.shape}")
    m = X.shape[-2]
    if m < 2:
        raise DegenerateSampleError(f"covariance needs at least 2 samples, got m={m}")
    centered = X - X.mean(axis=-2, keepdims=True)
    perm = tuple(range(X.ndim - 2)) + (X.ndim - 1, X.ndim - 2)
    cov = centered.transpose(perm) @ centered * (1.0 / (m - 1))
    # exact symmetry, not just up-to-roundoff
    return (cov + cov.transpose(perm)) * 0.5


def normalize_covariance(C, eps=1e-8):
    """Rescale a covariance to a correlation matrix.

    C_ij / (sqrt(C_ii + eps) * sqrt(C_jj + eps)): unit diagonal for
    variances well above eps, entries bounded by [-1, 1], zero-variance
    features degrade gracefully to zero rows instead of dividing by zero.
    """
    C = _as_tensor(C)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise DimensionError(f"covariance must be square, got shape {C.shape}")
    n = C.shape[-1]
    batch = C.shape[:-2]
    s = (C.diagonal() + eps).sqrt()
    denom = s.reshape(batch + (n, 1)) * s.reshape(batch + (1, n))
    return C / denom


class _MlpHead:
    """Learned perceptron n_in -> d -> n_out, leaky_relu hidden, shared by
    every weight generator.

    The head starts at zero, so weights start neutral (0.5 gates or a
    uniform softmax). `output_activation` is "sigmoid" for bounded gates
    or "identity" when a softmax is applied downstream. Subclasses set
    the head's input and output widths and map observations to rows.
    """

    def __init__(self, n, d=None, d_fraction=0.8, output_activation="sigmoid", seed=0):
        if d is None:
            d = math.ceil(d_fraction * n)
        if n < 1 or d < 1:
            raise ConfigurationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if output_activation not in ("sigmoid", "identity"):
            raise ConfigurationError(f"unknown output activation {output_activation!r}")
        self.n = n
        self.d = d
        self.output_activation = output_activation
        n_in, n_out = self._head_widths()
        rng = np.random.default_rng(seed)
        self.W1 = Tensor(rng.standard_normal((d, n_in)) / np.sqrt(n_in), requires_grad=True)
        self.b1 = Tensor(np.zeros(d), requires_grad=True)
        self.W2 = Tensor(np.zeros((n_out, d)), requires_grad=True)
        self.b2 = Tensor(np.zeros(n_out), requires_grad=True)

    def _head_widths(self):
        """(n_in, n_out): one scalar per n-wide row by default."""
        return self.n, 1

    def params(self):
        return [self.W1, self.b1, self.W2, self.b2]

    def param_count(self):
        return sum(p.size for p in self.params())

    def _mlp(self, x):
        """The head over the last axis: (..., n_in) -> (..., n_out)."""
        h = (x @ self.W1.T + self.b1).leaky_relu()
        return h @ self.W2.T + self.b2

    def _activate(self, out):
        return out.sigmoid() if self.output_activation == "sigmoid" else out

    def _mlp_rows(self, rows):
        """One weight per row of (..., r, n_in): shape (..., r)."""
        out = self._mlp(rows)
        return self._activate(out.reshape(out.shape[:-1]))


class CacwModule(_MlpHead):
    """Learned map from correlation rows to feature weights.

    The head is applied to every row of the correlation matrix, which
    makes the output equivariant to feature permutations.
    """

    method = "cacw"

    def forward(self, X):
        return cacw_forward(self, X)


def generate_weights(module, corr):
    """Apply the module's shared row MLP to a correlation matrix.

    corr: (n, n) with n matching module.n. Returns weights of length n.
    """
    corr = _as_tensor(corr)
    if corr.shape[-1] != module.n or corr.shape[-2] != module.n:
        raise DimensionError(
            f"correlation shape {corr.shape} does not match module n={module.n}"
        )
    return module._mlp_rows(corr)


def cacw_forward(module, X):
    """Full weight generation: covariance -> correlation -> learned map."""
    return generate_weights(module, normalize_covariance(compute_covariance(X)))


# ----------------------------------------------------------------------
# PCA reference machinery

@dataclass
class PcaResult:
    eigenvalues: np.ndarray   # sorted descending
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, i] <-> eigenvalues[i]

    def basis(self, k):
        if k > self.eigenvectors.shape[1]:
            raise DimensionError(
                f"requested basis size {k} exceeds dimension {self.eigenvectors.shape[1]}"
            )
        return self.eigenvectors[:, :k]


def pca_eigendecompose(C):
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    Each eigenvector's largest-magnitude component is made positive, so
    the result is deterministic up to ties.
    """
    C = C.data if isinstance(C, Tensor) else np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionError(f"eigendecomposition needs a square matrix, got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NumericError("eigendecomposition of a matrix with non-finite entries")
    lam, V = np.linalg.eigh((C + C.T) / 2.0)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = V[:, order]
    top = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[top, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return PcaResult(lam, V)


def pca_project(X, P):
    """Project centered observations onto a basis: Y = P^T (X - mean)^T.

    X: (m, n); P: (n, k) with orthonormal columns, k <= n. Returns (k, m).
    """
    X = X.data if isinstance(X, Tensor) else np.asarray(X, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if P.shape[0] != X.shape[1]:
        raise DimensionError(f"basis rows {P.shape[0]} do not match features {X.shape[1]}")
    if P.shape[1] > P.shape[0]:
        raise DimensionError(f"basis size {P.shape[1]} exceeds dimension {P.shape[0]}")
    centered = X - X.mean(axis=0, keepdims=True)
    return P.T @ centered.T


# ----------------------------------------------------------------------
# comparison weight generators

class PoolWeights(_MlpHead):
    """Global-average-pooling generator: column means -> MLP n -> d -> n."""

    method = "pool"

    def _head_widths(self):
        return self.n, self.n

    def forward(self, X):
        means = _as_tensor(X).mean(axis=-2)
        out = self._activate(self._mlp(means.reshape(-1, self.n)))
        return out.reshape(means.shape)


class AttentionWeights(_MlpHead):
    """Self-attention relevance generator.

    R = row-softmax(Z Z^T / sqrt(m)) with Z the centered features
    (n x m); rows of R go through the same shared head as the covariance
    generator.
    """

    method = "attention"

    def forward(self, X):
        X = _as_tensor(X)
        m = X.shape[-2]
        centered = X - X.mean(axis=-2, keepdims=True)
        perm = tuple(range(X.ndim - 2)) + (X.ndim - 1, X.ndim - 2)
        Z = centered.transpose(perm)
        scores = (Z @ centered) * (1.0 / np.sqrt(m))
        return self._mlp_rows(softmax(scores, axis=-1))


class PcaWeights(_MlpHead):
    """Eigenbasis-coordinate generator.

    Takes the top ceil(n/2) eigenvectors of the covariance; feature i's
    coordinate row goes through the shared head to a scalar weight. The
    eigenbasis is computed outside the tape: gradients reach the head
    only, the decomposition itself is treated as a constant per input.
    """

    method = "pca"

    @property
    def k(self):
        return math.ceil(self.n / 2)

    def _head_widths(self):
        return self.k, 1

    def forward(self, X):
        cov = compute_covariance(_as_tensor(X)).data
        flat = cov.reshape((-1,) + cov.shape[-2:])
        basis = np.stack([pca_eigendecompose(c).basis(self.k) for c in flat])
        return self._mlp_rows(Tensor(basis.reshape(cov.shape[:-2] + basis.shape[-2:])))


WEIGHT_GENERATORS = {
    "cacw": CacwModule,
    "pool": PoolWeights,
    "attention": AttentionWeights,
    "pca": PcaWeights,
}
