"""Dense float32 and float64 tensors with reverse-mode automatic differentiation.

Small define-by-run engine in the micrograd tradition. Every op builds
its result through `_node(data, parents, backward)`, the one route onto
the tape: when some parent requires grad, the result records its parents
and a closure that pushes its gradient back through `backward`; other
results keep neither. `as_tensor` is the one coercion of raw arrays.

A tensor keeps its array's dtype: a float32 or float64 array stays as it
is, and anything else becomes float64. Every op computes in the dtype of
its inputs, and every buffer it makes takes that dtype. A scalar operand,
a Python or a numpy one, takes the other operand's dtype, so no constant
upcasts a float32 op under either of numpy's scalar rules (NEP 50 from
numpy 2, value-based casting before it). `backbone.PansharpenModel.forward`
picks the dtype: float32 for every forward, training steps included, and
float64 only for a finite-difference check through the model's inputs.
A training forward runs on float32 copies of float64 parameters, which
are restored before the sweep, so every backward reads the arrays its
forward read, captured when the forward ran, never a parent's current
``data``.

The sweep releases each intermediate's gradient as its node runs, so an
op can hand that array to a parent as the parent's own gradient rather
than a copy: after `Tensor.backward()` leaves keep their ``grad`` and
intermediates have None. A tensor's gradient is one array, its
``grad``, or None until the first one arrives. A gradient handed over
as a view, such as a sum's broadcast gradient, is copied on its first
write and added in place after that, as is any array that is not the
op's own (`_accumulate`).

Shapes follow numpy. Image tensors are channels-last, (H, W, C), with an
optional leading batch axis (B, H, W, C) accepted by the image ops. The
backbone's images are C-contiguous in that order, so no image op
transposes them.

Two fused ops make one tape node of what would be three or four generic
ones. `bias_act(x, b, leaky, residual)` is a conv epilogue: a per-channel
bias add, then optionally leaky ReLU or a residual add, written over x,
so a conv and its epilogue keep one buffer on the tape.
`channel_scale(f, alpha)` gates a map by per-channel weights. Each gives
the bytes of the composition it replaces, forward and backward. The
per-channel operand is tiled along W, so numpy runs one flat loop over
the merged W*C axis instead of a C-long inner loop. A gated map is kept
as its two factors, f's data and the tiled weights, and never stored
whole: its ``data`` forms the map afresh on each read, so a write to
that array is lost, and `_formed(buf, item, rows)` forms it, or one
item's block of image rows, into a caller's buffer. Its backward sums
the weights' gradient one item at a time, through one item-sized
scratch, and gates its own released gradient in place for f.
Leaky ReLU has one kernel, `_leaky`, shared by `Tensor.leaky_relu` and
`bias_act`, and one negative slope, `LEAKY_SLOPE`.

Every buffer that an op fills piecewise or reuses comes from `_empty`, a
plain `np.empty`; the tests swap it for NaN-filled arrays to show that no
op reads such a buffer before it writes it. A result that one ufunc
writes whole is left to numpy to allocate.

`conv2d` builds no patch matrix. It reads the batch as one flat padded
(B*Hp*Wp, C_in) grid, where every kernel tap is a constant shift of
rows, and adds up one GEMM per tap over row slices of that grid: the
kn2row family of Anderson et al. 2017, "Low-memory GEMM-based
convolution algorithms for deep neural networks", over an HWC layout.
Each tap GEMM is a tall (rows, C_in) @ (C_in, C_out) product, and the
result is a C-contiguous array that owns its memory, which its epilogue
then writes over. Both gradients are the same shifted GEMMs run as
adjoints; the `conv2d` docstring has the index arithmetic. Its input
gradient goes into x's gradient a block at a time: into a fresh array,
or added into the one x already holds, so no whole dX exists beside it.
"""

import numpy as np

from .errors import DimensionError, UsageError

# the dtypes a Tensor keeps; any other array becomes float64
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _empty(shape, dtype):
    """An uninitialised array of `shape` and `dtype`, for a buffer that
    its caller fills piecewise or reuses."""
    return np.empty(shape, dtype)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum away prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were broadcast from size 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


LEAKY_SLOPE = 0.01


def _leaky(pre, out=None):
    """Leaky ReLU's one kernel, into `out` (which may be `pre`) or a fresh array.

    LEAKY_SLOPE lies in [0, 1], so max(pre, slope*pre) picks pre where
    pre > 0 and slope*pre elsewhere, signed zeros included: the bytes of
    `np.where(pre > 0, pre, slope * pre)`, without its slower select.
    """
    return np.maximum(pre, LEAKY_SLOPE * pre, out=out)


def _leaky_grad(out, g):
    """The gradient through `_leaky`, from its output: g times a factor
    that is 1.0 where out > 0, which is exactly where pre > 0, and slope
    elsewhere.

    The factor is formed without a branch, in the one array the result
    then takes: the comparison out > 0 written in g's dtype, times
    1 - slope, plus slope, which is slope at 0 and rounds to 1.0 at 1 in
    float32 and float64. As g * 1.0 == g, this is
    `g * np.where(pre > 0, 1.0, slope)` byte for byte.
    """
    f = np.greater(out, 0, out=_empty(g.shape, g.dtype))
    f *= 1 - LEAKY_SLOPE
    f += LEAKY_SLOPE
    return np.multiply(g, f, out=f)


def as_tensor(x):
    """`x` itself when it is a Tensor, else a constant Tensor over it."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward):
    """The result of an op over `parents`; the one route onto the tape.

    `data` is the result's array, or the result itself when it is a
    Tensor that keeps its data as factors (`channel_scale`'s gated map).
    When some parent requires grad, the result links its parents and the
    sweep calls `backward(grad)` with its gradient, which accumulates into
    each parent that requires grad. The sweep first takes the result's
    ``grad`` from it and leaves None, so `backward` holds the only
    reference to that array and may hand it to one parent as the parent's
    own (`_accumulate(grad, owned=True)`), as PyTorch's AccumulateGrad
    does. Otherwise the result keeps neither, so a forward with no tape
    frees each intermediate once its consumer exists.
    """
    out = data if isinstance(data, Tensor) else Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)

            def release_and_push():
                g, out.grad = out.grad, None
                backward(g)

            out._backward_fn = release_and_push
            break
    return out


class Tensor:
    """A numpy array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "__weakref__")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype in _DTYPES else data.astype(np.float64)
        self._off_tape(requires_grad)

    def _off_tape(self, requires_grad=False):
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    # ------------------------------------------------------------------
    # plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def detach(self):
        """A view of the same data, cut off from the tape."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _formed(self, buf, item=(), rows=slice(None)):
        """This tensor's data, or its part ``data[item][rows]``. A tensor
        that keeps its data as factors forms that part into `buf`, an
        array of the part's shape, and returns `buf`; any other
        returns a view of ``data`` and leaves `buf` as it was. Of a map
        (B, H, W, C), item (b,) and a slice of rows name image rows of
        one map; a gated map takes no other parts."""
        return self.data[item][rows]

    def _accumulate(self, g, owned=False):
        """Add `g`, an array of exactly this tensor's shape, into ``grad``.

        An `owned` g is an array that nothing else holds and its op never
        reads again: a fresh one made for this tensor alone, or the op's
        own released gradient; its first write keeps it as the gradient.
        Any other first write takes a straight copy: one memory pass
        instead of the zeros-then-add two, and never aliases the source.
        """
        if self.grad is None:
            self.grad = g if owned else np.array(g, order="C")
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar output.

        Populates ``grad`` on every leaf with ``requires_grad`` that this
        output depends on. An intermediate's ``grad``, this output's
        included, is None afterwards: its node releases it before pushing
        it on, often as a parent's own gradient. The tape is single-use:
        the sweep drops each node's closure, parent links and its own
        reference as it passes, so an intermediate and its gradient free
        by refcount as soon as every consumer is done with them, without
        waiting for the cyclic collector. Run a fresh forward pass for
        another gradient.
        """
        if self.data.shape != ():
            raise UsageError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        # iterative post-order DFS; a self-referencing inner function
        # would keep `topo`, and with it the whole graph, alive until the
        # cyclic collector runs
        topo = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        self.grad = np.ones_like(self.data)
        while topo:
            t = topo.pop()
            if t._backward_fn is not None:
                t._backward_fn()
            t._backward_fn = None
            t._parents = ()

    # ------------------------------------------------------------------
    # elementwise arithmetic

    def _operand(self, other):
        """`other` as the second operand of an elementwise op: a Tensor or
        an array as it is, and a scalar in this tensor's dtype."""
        if isinstance(other, (Tensor, np.ndarray)):
            return as_tensor(other)
        return Tensor(np.asarray(other, dtype=self.dtype))

    @staticmethod
    def _check_broadcast(a, b):
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DimensionError(
                f"shapes {a.shape} and {b.shape} do not broadcast"
            ) from None

    def __add__(self, other):
        other = self._operand(other)
        self._check_broadcast(self, other)

        def backward(g):
            # g is this node's released gradient: the first parent of its
            # shape takes it, a second one a copy; a summed-down one is fresh
            handed = False
            for p in (self, other):
                if not p.requires_grad:
                    continue
                if p.shape == g.shape:
                    p._accumulate(g, owned=not handed)
                    handed = True
                else:
                    p._accumulate(_unbroadcast(g, p.shape), owned=True)

        return _node(self.data + other.data, (self, other), backward)

    def __mul__(self, other):
        other = self._operand(other)
        self._check_broadcast(self, other)
        a, b = self.data, other.data

        def backward(g):
            # each product is fresh, and so is its sum when it is summed down
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * b, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * a, other.shape), owned=True)

        return _node(a * b, (self, other), backward)

    def __truediv__(self, other):
        other = self._operand(other)
        self._check_broadcast(self, other)
        a, b = self.data, other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / b, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * a / b**2, other.shape), owned=True)

        return _node(a / b, (self, other), backward)

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._operand(other))

    # ------------------------------------------------------------------
    # nonlinearities

    def leaky_relu(self):
        out = _leaky(self.data)

        def backward(g):
            self._accumulate(_leaky_grad(out, g), owned=True)

        return _node(out, (self,), backward)

    def sigmoid(self):
        # guard both tails so exp never overflows
        x = self.data
        e = np.exp(-np.abs(x))
        denom = 1.0 + e
        s = np.where(x >= 0, 1.0 / denom, e / denom)

        def backward(g):
            self._accumulate(g * s * (1.0 - s), owned=True)

        return _node(s, (self,), backward)

    def sqrt(self):
        root = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / root, owned=True)

        return _node(root, (self,), backward)

    def abs(self):
        x = self.data

        def backward(g):
            # subgradient 0 at exact ties
            self._accumulate(g * np.sign(x), owned=True)

        return _node(np.abs(x), (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # a view: the first write copies it, a later one adds it in place
            self._accumulate(np.broadcast_to(g, self.shape))

        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            self._accumulate(g.reshape(self.shape))

        return _node(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return _node(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def diagonal(self):
        """Diagonal of the last two axes, shape (..., n)."""
        if self.ndim < 2 or self.shape[-1] != self.shape[-2]:
            raise DimensionError(f"diagonal needs square trailing axes, got {self.shape}")
        n = self.shape[-1]
        idx = np.arange(n)

        def backward(g):
            full = np.zeros(self.shape, g.dtype)
            full[..., idx, idx] = g
            self._accumulate(full, owned=True)

        return _node(self.data[..., idx, idx], (self,), backward)

    # ------------------------------------------------------------------
    # linear algebra

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other):
        a, b = self, as_tensor(other)
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError(
                f"matmul needs at least 2-D operands, got {a.shape} and {b.shape}"
            )
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
            )
        ad, bd = a.data, b.data
        try:
            out_data = np.matmul(ad, bd)
        except ValueError:
            raise DimensionError(
                f"matmul batch dimensions do not broadcast: {a.shape} x {b.shape}"
            ) from None

        def backward(g):
            # each product is fresh, and so is its sum when it is summed down
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(bd, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape), owned=True)
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape), owned=True)

        return _node(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# free functions


def softmax(v):
    """Numerically stable softmax along the last axis (max subtraction):
    a length-n vector, or each last-axis row of a higher-rank input."""
    v = as_tensor(v)
    if v.size == 0:
        raise DimensionError("softmax of an empty tensor")
    shifted = v.data - v.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        v._accumulate(y * (g - dot), owned=True)

    return _node(y, (v,), backward)


def spatial_mean(f):
    """Per-channel mean over the spatial axes.

    (H, W, C) -> (C,), or (B, H, W, C) -> (B, C).
    """
    f = as_tensor(f)
    if f.ndim not in (3, 4):
        raise DimensionError(f"spatial_mean expects (H,W,C) or (B,H,W,C), got {f.shape}")
    return f.mean(axis=(-3, -2))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(out_data, tensors, backward)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("stack of an empty sequence")

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _node(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


# ----------------------------------------------------------------------
# fused per-channel ops

def bias_act(x, b, leaky=False, residual=None):
    """x + b over the last axis, then leaky_relu() when `leaky` is set, or
    + residual when a residual is given, written over x.

    x: (..., H, W, C) with at least 3 axes; b: (C,); residual: x's shape.
    One tape node with the bytes of `x + b.reshape((1, 1, C))`, followed
    by `.leaky_relu()` or by `residual + ...`, forward and backward;
    the residual add would overwrite what the activation's gradient reads,
    so a call takes one of the two at most. The bias is added tiled
    along W over the merged W*C axis, which gives the same sums. Its
    gradient is summed as a (1, 1, C) operand's: the batch axis first and
    H, W second, which a plain (C,) operand would round differently.

    The result shares x's buffer, so a conv and its epilogue keep one
    map on the tape. So x must be a fresh result that nothing else reads,
    such as a `conv2d` output or a sum, whose own backward never reads
    it. A leaf that requires grad, data that is not a C-contiguous,
    writable array owning its memory, or a residual that shares x's
    memory raises `UsageError`. Every check runs before the first write,
    so a call that raises leaves x as it was.
    """
    x, b = as_tensor(x), as_tensor(b)
    if x.ndim < 3:
        raise DimensionError(f"bias_act needs (..., H, W, C), got {x.shape}")
    w, c = x.shape[-2], x.shape[-1]
    if b.shape != (c,):
        raise DimensionError(f"bias of shape {b.shape} does not match {c} channels")
    out = x.data
    if residual is not None:
        if leaky:
            raise UsageError("bias_act takes leaky or a residual, not both")
        residual = as_tensor(residual)
        if residual.shape != x.shape:
            raise DimensionError(
                f"residual of shape {residual.shape} does not match {x.shape}")
        if np.may_share_memory(residual.data, out):
            raise UsageError("bias_act's residual shares memory with the x it writes over")
    if x.requires_grad and not x._parents:
        raise UsageError("bias_act writes over x, which is a leaf that requires grad")
    if not (out.flags.c_contiguous and out.flags.writeable and out.flags.owndata):
        raise UsageError(
            "bias_act writes over x, whose data must be a C-contiguous, "
            "writable array that owns its memory")
    rows = x.shape[:-2] + (w * c,)
    np.add(out.reshape(rows), np.tile(b.data, w), out=out.reshape(rows))
    if leaky:
        _leaky(out, out=out)
    if residual is not None:
        np.add(out, residual.data, out=out)

    def backward(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        if leaky:
            g = _leaky_grad(out, g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, (1, 1, c)).reshape(c), owned=True)
        if x.requires_grad:
            # with an activation g is fresh; without one it is this node's
            # released gradient, read for the last time above
            x._accumulate(g, owned=True)

    parents = (x, b) if residual is None else (x, b, residual)
    return _node(out, parents, backward)


class _GatedMap(Tensor):
    """`channel_scale`'s result, kept as its two factors: the map's data
    and the gate tiled along W. ``data`` forms the product afresh on each
    read, so a write to that array is lost; `_formed(buf)` forms it into
    a caller's buffer instead."""

    __slots__ = ("_src", "_gate")

    def __init__(self, src, gate):
        self._src, self._gate = src, gate
        self._off_tape()

    @property
    def data(self):
        return self._formed(np.empty(self._src.shape, self.dtype))

    @property
    def shape(self):
        return self._src.shape

    @property
    def ndim(self):
        return self._src.ndim

    @property
    def size(self):
        return self._src.size

    @property
    def dtype(self):
        return np.result_type(self._src, self._gate)

    def detach(self):
        """The same two factors, cut off from the tape; nothing is formed."""
        return _GatedMap(self._src, self._gate)

    def _formed(self, buf, item=(), rows=slice(None)):
        return np.multiply(self._src[item][rows], self._gate[item], out=buf)


def channel_scale(f, alpha):
    """Scale each channel of a map by its own weight.

    f: (..., H, W, C) with at least 3 axes; alpha: f's leading axes plus
    (C,), so (C,) for one map and (B, C) for a batch. One tape node with
    the bytes of `f * alpha.reshape(alpha.shape[:-1] + (1, 1, C))`,
    forward and backward: the weights are tiled along W, as a
    (..., 1, W, C) operand whose W and C axes numpy reads as one merged
    W*C axis, and their gradient is summed as that (..., 1, 1, C)
    operand's.

    The node stores no product: it keeps f's data and the tiled weights,
    and its ``data`` forms the gated map afresh on each read, so a write
    to that array is lost. A consumer that reads the map once per pass,
    as `weighting.weighted_sum` does, forms it into a buffer of its own
    with `_formed`. So f's data must not be written while the node is
    read, as with every op's inputs between the forward and the backward.
    """
    f, alpha = as_tensor(f), as_tensor(alpha)
    if f.ndim < 3 or alpha.shape != f.shape[:-3] + f.shape[-1:]:
        raise DimensionError(
            f"channel weights {alpha.shape} do not match a map of shape {f.shape}"
        )
    lead = f.shape[:-3]
    h, w, c = f.shape[-3:]
    fd = f.data
    gate = np.tile(alpha.data, w).reshape(lead + (1, w, c))

    def backward(g):
        if alpha.requires_grad:
            # each map's (1, 1, C) sum on its own: the rows a batched sum
            # adds, in its order, through one map-sized scratch
            ga = _empty(alpha.shape, g.dtype)
            prod = _empty((h, w, c), g.dtype)
            for i in np.ndindex(lead):
                np.multiply(g[i], fd[i], out=prod)
                prod.sum(axis=(0, 1), out=ga[i])
            alpha._accumulate(ga, owned=True)
        if f.requires_grad:
            # g is this node's released gradient, read for the last time
            # above, so it is gated in place
            f._accumulate(np.multiply(g, gate, out=g), owned=True)

    return _node(_GatedMap(fd, gate), (f, alpha), backward)


# ----------------------------------------------------------------------
# convolution

# rows per block of a shifted GEMM: with 16 channels one block of the
# result, its partial product and the source rows stay in L2
_BLOCK = 2048


def _grid_rows(a, lead, p, hp, wp):
    """rows(s0, s1): rows s0:s1 of a flat (lead + B*hp*wp, C) padded grid
    of `a`, (B, h, w, C), built on demand and never whole.

    The grid holds `lead` zero rows, then each image in its own hp x wp
    cell of rows at offset (p, p); the cells are laid out back to back,
    and everything outside the images, rows past the grid included, is
    zero. Each call builds only the
    grid rows it returns, into one buffer that the next call reuses, so
    a block's rows stay in cache while every tap reads them and the
    padded copy costs no pass over memory. A C-contiguous source, as
    every `conv2d` output and the elementwise ops on it are, copies as
    runs of contiguous rows.
    """
    b, h, w, c = a.shape
    buf = _empty((0, wp, c), a.dtype)

    def rows(s0, s1):
        nonlocal buf
        # the grid rows that hold s0:s1; those before row 0 are the lead
        g0, g1 = (s0 - lead) // wp, -(-(s1 - lead) // wp)
        if g1 - g0 > len(buf):
            buf = _empty((g1 - g0, wp, c), a.dtype)
        cells = buf[:g1 - g0]
        done = g0  # grid rows before this one are written
        for img in range(max(g0, 0) // hp, min(-(-g1 // hp), b)):
            top = img * hp + p
            lo, hi = max(g0, top), min(g1, top + h)
            if lo < hi:
                cells[done - g0:lo - g0] = 0.0
                rows_in = cells[lo - g0:hi - g0]
                rows_in[:, :p] = 0.0
                rows_in[:, p:p + w] = a[img, lo - top:hi - top]
                rows_in[:, p + w:] = 0.0
                done = hi
        cells[done - g0:] = 0.0
        first = s0 - lead - g0 * wp
        return cells.reshape(-1, c)[first:first + s1 - s0]

    return rows


def _grid_store(dest, p, hp, wp, add=False):
    """store(g0, block): copy the image part of whole grid rows g0 onward,
    `block` read flat as (rows, C), into dest, (B, h, w, C), where each
    image sits at offset (p, p) of its hp x wp cell, or with `add` add it
    to what dest holds. The inverse of `_grid_rows`, a block at a time:
    `conv2d` stores its output with p = 0 and its input gradient with
    p = padding, so neither grid is ever built whole."""
    b, h, w, c = dest.shape

    def store(g0, block):
        cells = block.reshape(-1, wp, c)
        g1 = g0 + len(cells)
        for img in range(g0 // hp, min(-(-g1 // hp), b)):
            top = img * hp + p
            lo, hi = max(g0, top), min(g1, top + h)
            if lo < hi:
                part = cells[lo - g0:hi - g0, p:p + w]
                if add:
                    dest[img, lo - top:hi - top] += part
                else:
                    dest[img, lo - top:hi - top] = part

    return store


def _shifted_gemm(taps, offsets, rows, wp, n, store):
    """Y[q] = sum_t X[q + offsets[t]] @ taps[t] for q < n, n a multiple
    of wp, where rows(s0, s1) gives X[s0:s1], walked in blocks of whole
    grid rows. Each block of Y is handed to store(first grid row, block)
    in a buffer that the next block reuses. Each row of Y is the same sum
    whatever the blocks, so the result does not depend on them."""
    step = max(1, _BLOCK // wp) * wp
    part_buf = _empty((min(n, step), taps.shape[2]), taps.dtype)
    block_buf = _empty(part_buf.shape, taps.dtype)
    for q0 in range(0, n, step):
        q1 = min(q0 + step, n)
        src = rows(q0, q1 + offsets[-1])
        acc = block_buf[:q1 - q0]
        part = part_buf[:q1 - q0]
        np.matmul(src[offsets[0]:offsets[0] + q1 - q0], taps[0], out=acc)
        for w, o in zip(taps[1:], offsets[1:]):
            np.matmul(src[o:o + q1 - q0], w, out=part)
            acc += part
        store(q0 // wp, acc)


def _tap_products(a_rows, x_rows, n, offsets, shape, dtype):
    """g[t] = A[:n].T @ X[offsets[t]:offsets[t] + n], of shape (taps,) +
    `shape` and `dtype`, where a_rows(s0, s1) gives A[s0:s1] and x_rows
    X[s0:s1].
    Each product sums over rows, so its blocks are fixed `_BLOCK` runs of
    rows: other blocks would round the sums differently."""
    g = np.zeros((len(offsets),) + shape, dtype)
    part = _empty(shape, dtype)
    for q0 in range(0, n, _BLOCK):
        q1 = min(q0 + _BLOCK, n)
        at = a_rows(q0, q1).T
        src = x_rows(q0, q1 + offsets[-1])
        for gt, o in zip(g, offsets):
            np.matmul(at, src[o:o + q1 - q0], out=part)
            gt += part
    return g


def conv2d(x, k, padding=1):
    """2-D cross-correlation with zero padding, as shifted GEMMs.

    x: (H, W, C_in) or (B, H, W, C_in); k: (C_out, C_in, kh, kw) with odd
    square spatial size; `padding` must preserve H and W. Returns a
    C-contiguous (..., H, W, C_out) result that owns its memory.
    Gradients are defined for both operands.

    The input is read as its zero-padded (B, Hp, Wp, C_in) grid, flat as
    X, shape (L, C_in) with L = B*Hp*Wp. Output pixel
    (b, r, c) is row q = b*Hp*Wp + r*Wp + c, and kernel tap (i, j) reads X
    at row q + o with o = i*Wp + j. So one GEMM per tap,

        Y[:M] += X[o:o+M] @ K[:, :, i, j].T,  M = L - (kh-1)*Wp - (kw-1),

    covers the whole batch, and the output is the valid (H, W) corner of
    each Hp x Wp cell of Y. Rows outside that corner, including the ones
    whose taps straddle two images, are computed in a reused block buffer
    and dropped. Each block's corner rows go straight into the result
    (`_grid_store` at offset 0), so an epilogue can write over it and
    the next conv's padded rows are runs of row copies. The backward
    pass places the output gradient in the same corners with zeros
    elsewhere, dY, and runs the adjoint of each tap:

        gk[:, :, i, j] = dY[:M].T @ X[o:o+M]
        dX[o:o+M]     += dY[:M] @ K[:, :, i, j]

    The zeros keep the unread rows out of both sums. dX is computed as
    the forward sum with the kernel flipped, over dY preceded by L - M
    zero rows, so every row of dX is written once. The rows are walked in
    blocks of about `_BLOCK`, and neither X nor dY is ever built whole:
    each block builds the grid rows it reads (`_grid_rows`), which stay
    in cache for every tap. So the backward rebuilds X's padded rows from
    x's data, which the tape holds anyway, and no grid lives from the
    forward to the backward. dX is not built whole either: each block's
    rows inside the images go straight into x's contiguous gradient
    (`_grid_store`), or, when x already holds a gradient, are added into
    it there: the elementwise add `_accumulate` would make of a whole dX,
    which is therefore never built. The tap matrices are copied
    contiguous, and every other operand is a slice of rows that BLAS
    reads in place, so no patch matrix is built either.
    """
    x, k = as_tensor(x), as_tensor(k)
    if k.ndim != 4:
        raise DimensionError(f"kernel must be 4-D (C_out,C_in,kh,kw), got {k.shape}")
    cout, cin, kh, kw = k.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"kernel spatial size must be odd and square, got {kh}x{kw}")
    if padding != kh // 2:
        raise DimensionError(
            f"padding {padding} does not preserve spatial dims for a {kh}x{kw} kernel"
        )
    batched = x.ndim == 4
    if x.ndim not in (3, 4):
        raise DimensionError(f"input must be (H,W,C) or (B,H,W,C), got {x.shape}")
    xd = x.data if batched else x.data[None]
    if xd.shape[-1] != cin:
        raise DimensionError(
            f"input channels {xd.shape[-1]} do not match kernel C_in {cin}"
        )
    b, h, w, _ = xd.shape
    p = padding
    hp, wp = h + 2 * p, w + 2 * p
    n = b * hp * wp
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    span = offsets[-1]  # L - M

    kd = k.data
    dtype = np.result_type(xd, kd)
    taps = np.ascontiguousarray(kd.transpose(2, 3, 1, 0), dtype)
    taps = taps.reshape(kh * kw, cin, cout)
    y = _empty(x.shape[:-1] + (cout,), dtype)
    _shifted_gemm(taps, offsets, _grid_rows(xd, 0, p, hp, wp), wp, n,
                  _grid_store(y if batched else y[None], 0, hp, wp))

    def backward(g):
        gd = g if batched else g[None]
        if k.requires_grad:
            gk = _tap_products(_grid_rows(gd, 0, 0, hp, wp), _grid_rows(xd, 0, p, hp, wp),
                               n - span, offsets, (cout, cin), dtype)
            k._accumulate(gk.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
        if x.requires_grad:
            flipped = kd[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
            flipped = np.ascontiguousarray(flipped, dtype).reshape(kh * kw, cout, cin)
            # a gradient x already holds takes each block's dX as it comes,
            # the elementwise add that `_accumulate` would make of a whole dX
            held = x.grad is not None
            if not held:
                x.grad = _empty(x.shape, dtype)
            gx = x.grad if batched else x.grad[None]
            _shifted_gemm(flipped, offsets, _grid_rows(gd, span, 0, hp, wp), wp, n,
                          _grid_store(gx, p, hp, wp, add=held))

    return _node(y, (x, k), backward)


# ----------------------------------------------------------------------
# verification

GRADCHECK_EPS = 1e-5  # the central-difference step


def gradcheck(fn, x):
    """Compare analytic gradients of a scalar-valued `fn` to central differences.

    `x` is a Tensor or a sequence of Tensors; all of them are perturbed.
    Returns the max over coordinates of |a - n| / max(1, |a|, |n|).
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    for t in xs:
        t.requires_grad = True
        t.zero_grad()
    out = fn(*xs)
    if not isinstance(out, Tensor) or out.shape != ():
        raise UsageError("gradcheck requires a scalar-valued function")
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in xs]

    worst = 0.0
    for ti, t in enumerate(xs):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            fp = float(fn(*xs).data)
            flat[i] = orig - GRADCHECK_EPS
            fm = float(fn(*xs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2 * GRADCHECK_EPS)
            a = analytic[ti].reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
