"""Covariance-correlation weight generation and PCA reference machinery.

The central operator turns an observation matrix X (m samples of n
features) into a per-feature weight vector: covariance, normalization to
a correlation matrix, then a small learned map applied to each row. Three
alternative weight generators (pooling, self-attention relevance, PCA
coordinates) share the same calling convention so they can be swapped
into the same slots for comparison runs.

Width contract: a generator built for n features takes observations of
shape (..., m, n), m samples of exactly n features, and returns one
weight per feature, shape (..., n); any other width is a DimensionError.
`weighting.aggregate` is the one entry point that plugs generators into
a feature stack, at n = C for channel gates and n = N for layer scores.

All ops accept an optional leading batch axis; the documented contracts
are the unbatched shapes.

`centered_gram` is one tape node that keeps no centered copy of X: its
backward rebuilds that copy from X's data, one (m, n) item at a time
into one reused buffer, so X must not be written between the forward
and the backward, as with every op, and the only X-sized array the
backward makes is the gradient it hands to X.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateSampleError, DimensionError, NumericError
from .tensor import Tensor, _empty, _node, as_tensor, softmax


# default hidden-width fraction of every generator head, at both weighting levels
D_FRACTION = 0.8
CORRELATION_EPS = 1e-8  # variance floor of `normalize_covariance`


def reduced_width(frac, n):
    """Hidden width of a generator head over n features: max(1, ceil(frac*n))."""
    return max(1, math.ceil(frac * n))


def _swap_last(ndim):
    return tuple(range(ndim - 2)) + (ndim - 1, ndim - 2)


def centered_gram(X):
    """(X - mean)^T (X - mean) over the sample axis: (.., m, n) -> (.., n, n).

    The one centering-plus-Gram composition; the covariance and the
    attention scores differ only in how they scale it.

    One tape node with the bytes of `Xc.T @ Xc`, Xc = `X - X.mean(axis=-2,
    keepdims=True)`, forward and backward. The node keeps only the
    (.., 1, n) negated mean: the backward rebuilds the centered copy from
    X's data, which therefore must not be written between the forward
    and the backward, as with every op. The backward then replays the
    composition's own arithmetic in its order, one (m, n) item at a time
    and each GEMM the one the batched product makes for that item, and
    accumulates into X twice, as the composition's add and sum nodes did,
    so that a gradient X already holds rounds as it would there.
    """
    X = as_tensor(X)
    m, n = X.shape[-2:]
    swap = _swap_last(X.ndim)
    neg = (X.data.sum(axis=-2, keepdims=True) * (1.0 / m)) * -1.0
    xc = X.data + neg
    gram = np.matmul(xc.transpose(swap), xc)

    def backward(g):
        # one (m, n) item at a time, each GEMM the one the batched product
        # makes for that item: xc rebuilt, dc = xc @ g, ga = g @ xc^T, and
        # dc += ga^T, so only dc is X-sized
        dc = _empty(X.shape)
        xc = _empty((m, n))
        ga = _empty((n, m))
        for i in np.ndindex(X.shape[:-2]):
            np.add(X.data[i], neg[i], out=xc)
            np.matmul(xc, g[i], out=dc[i])
            np.matmul(g[i], xc.T, out=ga)
            dc[i] += ga.T
        gsum = (dc.sum(axis=(X.ndim - 2,), keepdims=True) * -1.0) * (1.0 / m)
        X._accumulate(dc, owned=True)
        X._accumulate(np.broadcast_to(gsum, X.shape))

    return _node(gram, (X,), backward)


def compute_covariance(X):
    """Sample covariance of the columns of X, with Bessel correction.

    X: (m, n) observation matrix, m >= 2. Returns the symmetrized
    (n, n) covariance (X-mean)^T (X-mean) / (m-1).
    """
    X = as_tensor(X)
    if X.ndim < 2:
        raise DimensionError(f"observation matrix must be 2-D, got shape {X.shape}")
    m = X.shape[-2]
    if m < 2:
        raise DegenerateSampleError(f"covariance needs at least 2 samples, got m={m}")
    cov = centered_gram(X) * (1.0 / (m - 1))
    # exact symmetry, not just up-to-roundoff
    return (cov + cov.transpose(_swap_last(X.ndim))) * 0.5


def normalize_covariance(C):
    """Rescale a covariance to a correlation matrix.

    C_ij / (sqrt(C_ii + eps) * sqrt(C_jj + eps)), eps = CORRELATION_EPS:
    unit diagonal for variances well above eps, entries bounded by [-1, 1],
    zero-variance features degrade to zero rows instead of dividing by zero.
    """
    C = as_tensor(C)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise DimensionError(f"covariance must be square, got shape {C.shape}")
    n = C.shape[-1]
    batch = C.shape[:-2]
    s = (C.diagonal() + CORRELATION_EPS).sqrt()
    denom = s.reshape(batch + (n, 1)) * s.reshape(batch + (1, n))
    return C / denom


class _MlpHead:
    """Learned perceptron n_in -> d -> n_out, leaky_relu hidden, shared by
    every weight generator.

    The head starts at zero, so weights start neutral (0.5 gates or a
    uniform softmax). `output_activation` is "sigmoid" for bounded gates
    or "identity" when a softmax is applied downstream. Subclasses set
    the head's input and output widths and map observations to rows.
    Parameters start outside the gradient tape, like the backbone's, so
    evaluation records none; `train` switches gradients on.
    """

    def __init__(self, n, d=None, output_activation="sigmoid", seed=0):
        if d is None:
            d = reduced_width(D_FRACTION, n)
        if n < 1 or d < 1:
            raise ConfigurationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if output_activation not in ("sigmoid", "identity"):
            raise ConfigurationError(f"unknown output activation {output_activation!r}")
        self.n = n
        self.d = d
        self.output_activation = output_activation
        n_in, n_out = self._head_widths()
        rng = np.random.default_rng(seed)
        self.W1 = Tensor(rng.standard_normal((d, n_in)) / np.sqrt(n_in))
        self.b1 = Tensor(np.zeros(d))
        self.W2 = Tensor(np.zeros((n_out, d)))
        self.b2 = Tensor(np.zeros(n_out))

    def _head_widths(self):
        """(n_in, n_out): one scalar per n-wide row by default."""
        return self.n, 1

    def _observations(self, X):
        """X as a Tensor of shape (..., m, n), or a DimensionError."""
        X = as_tensor(X)
        if X.ndim < 2 or X.shape[-1] != self.n:
            raise DimensionError(
                f"observations of shape {X.shape} do not match generator n={self.n}"
            )
        return X

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

    def forward(self, X):
        return cacw_forward(self, self._observations(X))


def generate_weights(module, corr):
    """Apply the module's shared row MLP to a correlation matrix.

    corr: (n, n) with n matching module.n. Returns weights of length n.
    """
    corr = as_tensor(corr)
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
    eigenvalues: np.ndarray   # (..., n), sorted descending
    eigenvectors: np.ndarray  # (..., n, n), orthonormal columns, [..., :, i] <-> eigenvalues[..., i]

    def basis(self, k):
        """The top k eigenvectors of each matrix, (..., n, k), C-contiguous."""
        if k > self.eigenvectors.shape[-1]:
            raise DimensionError(
                f"requested basis size {k} exceeds dimension {self.eigenvectors.shape[-1]}"
            )
        return np.ascontiguousarray(self.eigenvectors[..., :k])


def pca_eigendecompose(C):
    """Symmetric eigendecomposition of each matrix of an (..., n, n)
    stack, eigenvalues sorted descending.

    Each eigenvector's largest-magnitude component is made positive, so
    the result is deterministic up to ties. One batched `np.linalg.eigh`
    call gives each matrix the bytes that a call on it alone gives.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise DimensionError(f"eigendecomposition needs square matrices, got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NumericError("eigendecomposition of a matrix with non-finite entries")
    lam, V = np.linalg.eigh((C + np.swapaxes(C, -1, -2)) / 2.0)
    order = np.argsort(-lam, axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    V = np.take_along_axis(V, order[..., None, :], axis=-1)
    top = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
    V = V * np.where(top < 0, -1.0, 1.0)
    return PcaResult(lam, V)


# ----------------------------------------------------------------------
# comparison weight generators

class PoolWeights(_MlpHead):
    """Global-average-pooling generator: column means -> MLP n -> d -> n."""

    def _head_widths(self):
        return self.n, self.n

    def forward(self, X):
        means = self._observations(X).mean(axis=-2)
        out = self._activate(self._mlp(means.reshape(-1, self.n)))
        return out.reshape(means.shape)


class AttentionWeights(_MlpHead):
    """Self-attention relevance generator.

    R = row-softmax(Z Z^T / sqrt(m)) with Z the centered features
    (n x m); rows of R go through the same shared head as the covariance
    generator.
    """

    def forward(self, X):
        X = self._observations(X)
        scores = centered_gram(X) * (1.0 / np.sqrt(X.shape[-2]))
        return self._mlp_rows(softmax(scores))


class PcaWeights(_MlpHead):
    """Eigenbasis-coordinate generator.

    Takes the top ceil(n/2) eigenvectors of the covariance; feature i's
    coordinate row goes through the shared head to a scalar weight. The
    eigenbasis is computed outside the tape: gradients reach the head
    only, the decomposition itself is treated as a constant per input.
    """

    @property
    def k(self):
        return math.ceil(self.n / 2)

    def _head_widths(self):
        return self.k, 1

    def forward(self, X):
        cov = compute_covariance(self._observations(X)).data
        return self._mlp_rows(Tensor(pca_eigendecompose(cov).basis(self.k)))


WEIGHT_GENERATORS = {
    "cacw": CacwModule,
    "pool": PoolWeights,
    "attention": AttentionWeights,
    "pca": PcaWeights,
}
