"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus an optional graph node recording how it was
produced. Ops build the graph eagerly; backward() walks it once in reverse
topological order and accumulates into .grad of the leaves only (tensors no
op produced, such as parameters and inputs); gradients of intermediates live
only for the pass. Repeated backward calls keep accumulating, so callers
zero grads explicitly between steps.

linear() is the fused projection op: x @ weight + bias with x's leading
axes folded into one 2-D GEMM, forward and backward. matmul() is the
general broadcasting batched product.

Float32 is the working precision; pass float64 arrays in (e.g. for finite
difference checks) and every op stays in 64-bit.

On glibc, importing this module makes malloc keep freed memory resident. A
forward frees its whole graph at once, and the next would otherwise fault the
same pages in again: ~76k minor faults per table1 blocks=8 batch of 64.
"""

import ctypes
import dataclasses
import math
import os
import platform
import typing

import numpy as np

__all__ = [
    "Tensor", "Parameter", "ShapeError", "ConfigError", "NumericError", "check_field_types",
    "config_from_dict", "write_atomic", "matmul", "linear", "add", "mul", "scale", "gelu",
    "softmax_rows", "standardize", "layer_norm", "mean_axis", "dropout", "reshape", "swap_axes",
    "cross_entropy_label_smoothed", "backward",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _keep_freed_heap():
    libc = ctypes.CDLL(None) if platform.libc_ver()[0] == "glibc" else None
    if hasattr(libc, "mallopt"):   # either setting alone still faults 83k-112k times a batch
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD, glibc's 64-bit maximum: all from the heap
        libc.mallopt(-1, 1 << 30)      # M_TRIM_THRESHOLD, above the ~480 MiB table1 blocks=8 frees


_keep_freed_heap()


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the op requires finite input."""


_ALSO_ACCEPTED = {float: (int,), tuple: (list,)}


def check_field_types(cls, d, what, error=ConfigError):
    """Raise error unless each value in d fits its field's annotation in dataclass
    cls: an int passes for a float, a list for a tuple, a bool for nothing, and
    a float must be finite. Range checks are left to the caller."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in d.items():
        ok = typing.get_args(types[name]) or (types[name],)
        ok += tuple(t for o in ok for t in _ALSO_ACCEPTED.get(o, ()))
        if isinstance(value, bool) or not isinstance(value, ok):
            expected = getattr(types[name], "__name__", types[name])
            raise error(f"{name} must be {expected} in {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite in {what}, got {value!r}")


def write_atomic(path, data):
    """Write bytes, or a list of byte chunks, to `<path>.tmp` and rename it over
    path: a write that fails leaves path as it was and no temp file. The one
    writer of every file the package makes."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(data if isinstance(data, list) else [data])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def config_from_dict(cls, d, what):
    """cls(**d) for a dataclass that checks itself; ConfigError if d is not a
    dict or has a key cls lacks."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**d)


class _Node:
    """Graph record: which tensors fed an op and how to push grads back."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


class Parameter(Tensor):
    """A named trainable leaf."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, inputs, backward_fn):
    """Wrap an op result, attaching a node only if something upstream needs grads."""
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Node(inputs, backward_fn)
    return out


def _accumulate(tensor, grad):
    if tensor.grad is None:
        # a pass-local gradient may alias another gradient or a forward buffer
        tensor.grad = grad.copy()
    else:
        tensor.grad = tensor.grad + grad


def _reduce_to(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _check_suffix_broadcast(name, a, b):
    """Elementwise ops allow equal shapes or one operand matching the other's suffix."""
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(f"{name}: shapes {sa} and {sb} do not match as a trailing suffix")


# ---------------------------------------------------------------------------
# ops

def matmul(a, b):
    """Batched matrix product; leading axes broadcast, inner extents must agree."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: batch axes of {a.shape} and {b.shape} do not broadcast") from e

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _reduce_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), bwd)


def linear(x, weight, bias=None):
    """x @ weight + bias over x's last axis, as one 2-D GEMM on the folded leading axes.

    x: [..., k]; weight: [k, n]; bias: [n] or None. Returns [..., n].
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if weight.ndim != 2 or x.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: need x [..., k] and weight [k, n], got {x.shape} x {weight.shape}")
    k, n = weight.shape
    inputs = (x, weight)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (n,):
            raise ShapeError(f"linear: bias must have shape ({n},), got {bias.shape}")
        inputs += (bias,)
    x2 = x.data.reshape(-1, k)
    out = x2 @ weight.data
    if bias is not None:
        out += bias.data

    def bwd(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if weight.requires_grad else None
        if bias is None:
            return gx, gw
        return gx, gw, (g2.sum(axis=0) if bias.requires_grad else None)

    return _make(out.reshape(x.shape[:-1] + (n,)), inputs, bwd)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix_broadcast("add", a, b)
    out = a.data + b.data

    def bwd(g):
        ga = _reduce_to(g, a.shape) if a.requires_grad else None
        gb = _reduce_to(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix_broadcast("mul", a, b)
    out = a.data * b.data

    def bwd(g):
        ga = _reduce_to(g * b.data, a.shape) if a.requires_grad else None
        gb = _reduce_to(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bwd)


def scale(a, s):
    """Multiply by a python scalar."""
    a = _as_tensor(a)
    s = float(s)
    out = a.data * s

    def bwd(g):
        return (g * s,)

    return _make(out, (a,), bwd)


def gelu(a):
    """Exact gelu, 0.5 * x * (1 + erf(x / sqrt(2)))."""
    from scipy.special import erf       # here, not at import: scipy costs ~0.35 s to load
    a = _as_tensor(a)
    x = a.data
    inner = erf(x * _INV_SQRT2)
    out = 0.5 * x * (1.0 + inner)

    def bwd(g):
        local = 0.5 * (1.0 + inner) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * local,)

    return _make(out, (a,), bwd)


def softmax_rows(a):
    """Softmax over the last axis, stabilised by subtracting the row max."""
    a = _as_tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax_rows: input contains NaN or Inf")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (a,), bwd)


def _standardize(x, eps):
    """(xhat, inv): the last axis centred and scaled by inv = 1 / sqrt(var + eps)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv, inv


def _standardize_grad(gh, xhat, inv):
    """dx from gh = d(xhat), fused: inv * (gh - mean(gh) - xhat * mean(gh * xhat))."""
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    return inv * (gh - m1 - xhat * m2)


def standardize(x, eps=1e-5):
    """Normalise the last axis to zero mean / unit variance: layer_norm with no affine."""
    x = _as_tensor(x)
    xhat, inv = _standardize(x.data, eps)

    def bwd(g):
        return (_standardize_grad(g, xhat, inv),)

    return _make(xhat, (x,), bwd)


def layer_norm(x, gain, bias, eps=1e-5):
    """standardize, then the affine xhat * gain + bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xhat, inv = _standardize(x.data, eps)
    out = xhat * gain.data + bias.data

    def bwd(g):
        gx = gg = gb = None
        if gain.requires_grad:
            gg = (g * xhat).reshape(-1, d).sum(axis=0)
        if bias.requires_grad:
            gb = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            gx = _standardize_grad(g * gain.data, xhat, inv)
        return gx, gg, gb

    return _make(out, (x, gain, bias), bwd)


def mean_axis(x, axis):
    """Mean over one axis (the axis is removed)."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    out = x.data.mean(axis=axis)

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy(),)

    return _make(out, (x,), bwd)


def dropout(x, rate, training, rng=None):
    """Inverted dropout. Identity when not training or rate is 0."""
    x = _as_tensor(x)
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout: an rng is required when training with rate > 0")
    # float32 uniforms: half the generator work of float64, and ample for a mask;
    # a bool mask takes 1 byte an element, and masking before scaling cannot overflow
    keep = rng.random(x.shape, dtype=np.float32) >= rate
    scale = np.ones((), x.dtype) / (1.0 - rate)
    out = x.data * keep * scale

    def bwd(g):
        return (g * keep * scale,)

    return _make(out, (x,), bwd)


def reshape(x, shape):
    x = _as_tensor(x)
    try:
        out = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from e

    def bwd(g):
        return (g.reshape(x.shape),)

    return _make(out, (x,), bwd)


def swap_axes(x, axis1, axis2):
    x = _as_tensor(x)
    out = np.swapaxes(x.data, axis1, axis2)      # a view; no op writes into its input

    def bwd(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _make(out, (x,), bwd)


def cross_entropy_label_smoothed(logits, labels, smoothing=0.0):
    """Mean NLL against smoothed targets q = (1-s)*onehot + s/n_classes.

    logits: [b, n_classes]; labels: int array [b].
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: labels must be 1-d of length {logits.shape[0]}, got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"cross_entropy: labels must be integers, got dtype {labels.dtype}")
    b, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"cross_entropy: labels out of range [0, {c})")
    s = float(smoothing)
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"cross_entropy: smoothing must be in [0, 1), got {s}")

    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    q = np.full((b, c), s / c, dtype=logits.dtype)
    q[np.arange(b), labels] += 1.0 - s
    loss = -(q * logp).sum(axis=-1).mean()

    def bwd(g):
        p = np.exp(logp)
        return ((p - q) * (g / b),)

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Accumulate d(loss)/d(leaf) into the .grad of every leaf below loss."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: root must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # iterative post-order topo sort; recursion would overflow on long graphs
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))

    # the pass-local gradients live in their own map so that repeated
    # backward calls each contribute exactly one d(loss)/d(leaf); an
    # intermediate's gradient is dropped as soon as its op has consumed it
    local = {id(loss): np.ones_like(loss.data)}
    for t in reversed(order):
        g = local.pop(id(t))
        if t.node is None:
            _accumulate(t, g)
            continue
        for inp, gi in zip(t.node.inputs, t.node.backward_fn(g)):
            if gi is None:
                continue
            if id(inp) in local:
                local[id(inp)] = local[id(inp)] + gi
            else:
                local[id(inp)] = gi
