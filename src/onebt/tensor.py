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

The model's eval forward records no graph (_replayed); a backward through its
result runs it again with one. Its chunks run on as many threads as numpy's
OpenBLAS may use, with OpenBLAS itself at one thread meanwhile.

On glibc, importing this module makes malloc keep freed memory resident. Else
the pages a step's graph or a graph-free forward's ops free would fault in again:
~190k minor faults per table1 blocks=8 step at batch 32, ~95k per eval batch of 64.
"""

import ctypes
import dataclasses
import math
import os
import platform
import sys
import threading
import typing

import numpy as np

__all__ = [
    "Tensor", "Parameter", "ShapeError", "ConfigError", "NumericError", "check_field_types",
    "config_from_dict", "write_atomic", "matmul", "linear", "add", "mul", "scale", "gelu",
    "softmax_rows", "layer_norm", "cross_attention", "mean_axis", "dropout", "reshape", "swap_axes",
    "cross_entropy_label_smoothed", "backward",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# float32 erf(x) = x * P(x^2) / Q(x^2), coefficients from the highest power down
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_ERF64 = np.frompyfunc(math.erf, 1, 1)
# gelu works through its input in flat blocks of this many elements, so that its ~30
# elementwise passes stay in cache: 64k (256 KiB of float32 per buffer) beat 4k, 16k and
# 256k on 1M-element inputs
_GELU_BLOCK = 1 << 16


def _keep_freed_heap():
    libc = ctypes.CDLL(None) if platform.libc_ver()[0] == "glibc" else None
    if hasattr(libc, "mallopt"):   # either setting alone still faults 48k-99k times a batch
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD, glibc's 64-bit maximum: all from the heap
        libc.mallopt(-1, 1 << 30)      # M_TRIM_THRESHOLD, above the ~280 MiB table1 blocks=8 steps free


_keep_freed_heap()


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the op requires finite input."""


_ALSO_ACCEPTED = {float: (int,), tuple: (list,)}


def _inside(v, interval):
    """Whether v is a number, not a bool, in an interval such as "[1, inf)" or "(0, 1]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (lo < v if interval[0] == "(" else lo <= v)
            and (v < hi if interval[-1] == ")" else v <= hi))


def check_field_types(cls, d, what, error=ConfigError):
    """Raise error unless each value in d fits its field's annotation in dataclass
    cls: an int passes for a float, a list for a tuple, a bool for nothing, and
    a value in a float field must be finite as a float. A field annotated
    Annotated[type, interval] must also hold a value, or for a tuple only items,
    in that interval; None, where allowed, is in every interval."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in d.items():
        tp, interval = types[name], None
        if typing.get_origin(tp) is typing.Annotated:
            tp, interval = typing.get_args(tp)
        ok = typing.get_args(tp) or (tp,)
        ok += tuple(t for o in ok for t in _ALSO_ACCEPTED.get(o, ()))
        if isinstance(value, bool) or not isinstance(value, ok):
            raise error(f"{name} must be {getattr(tp, '__name__', tp)} in {what}, got {value!r}")
        if float in ok and value is not None and not abs(value) <= sys.float_info.max:
            raise error(f"{name} must be finite in {what}, got {value!r}")
        items = value if isinstance(value, (tuple, list)) else (value,)
        if interval and value is not None and not all(_inside(v, interval) for v in items):
            raise error(f"{name} must be in {interval} in {what}, got {value!r}")


def write_atomic(path, data):
    """Write bytes, or a list of bytes-like chunks, to `<path>.<pid>.<thread id>.tmp`
    and rename it over path: a write that fails leaves path as it was and no temp
    file. The temp name is the writer's own, so two writers of one path never
    rename each other's. The one writer of every file the package makes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
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


_graph = True        # False while _replayed runs its function: ops then attach no node


def _records(*inputs):     # whether an op records a node; one that does not keeps only its output
    return _graph and any(t.requires_grad for t in inputs)


def _make(data, inputs, backward_fn):
    """Wrap an op result, attaching a node only if something upstream needs grads."""
    out = Tensor(data)
    if _records(*inputs):
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


def _flat_blocks(*arrays):
    """Matching flat slices of at most _GELU_BLOCK elements; an output must be C-contiguous
    so that its slices are views, and one shorter than the first is scratch, from its start."""
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, flat[0].size, _GELU_BLOCK):
        n = min(_GELU_BLOCK, flat[0].size - i)
        yield [f[i:i + n] if f.size == flat[0].size else f[:n] for f in flat]


def _erf(t, out, s, q):
    """out = erf(t). float64 calls math.erf; float32 takes the rational erf of
    Eigen and XLA on t clamped to [-4, 4], within 5e-7 of erf. Clobbers t, s, q."""
    if t.dtype == np.float64:
        out[...] = _ERF64(t)
        return
    np.clip(t, -4.0, 4.0, out=t)
    np.multiply(t, t, out=s)
    for poly, coefs in ((out, _ERF_P), (q, _ERF_Q)):
        np.multiply(s, coefs[0], out=poly)
        for c in coefs[1:-1]:
            poly += c
            poly *= s
        poly += coefs[-1]
    out *= t
    out /= q
    np.clip(out, -1.0, 1.0, out=out)    # the rational overshoots 1 by up to 4e-7 on [3.62, 4)


def gelu(a):
    """gelu, 0.5 * x * (1 + erf(x / sqrt(2))). The erf is exact to rounding in
    float64 and within 5e-7 of it in float32 (see _erf)."""
    a = _as_tensor(a)
    x = a.data
    t, s = np.empty((2, min(x.size, _GELU_BLOCK)), x.dtype)
    e = np.empty(x.shape if _records(a) else t.size, x.dtype)   # erf(x / √2), for the backward
    out = np.empty(x.shape, x.dtype)
    for xb, eb, ob in _flat_blocks(x, e, out):
        n = xb.size
        _erf(np.multiply(xb, _INV_SQRT2, out=t[:n]), eb, s[:n], ob)  # ob: scratch until here
        np.add(eb, 1.0, out=ob)
        ob *= xb
        ob *= 0.5

    def bwd(g):
        gx = np.empty(x.shape, x.dtype)
        s = np.empty(min(x.size, _GELU_BLOCK), x.dtype)
        for xb, eb, gb, ob in _flat_blocks(x, e, g, gx):
            sb = np.multiply(xb, xb, out=s[:xb.size])
            sb *= -0.5
            np.exp(sb, out=sb)
            sb *= xb
            sb *= _INV_SQRT2PI
            np.add(eb, 1.0, out=ob)             # 0.5 * (1 + erf) + x * phi(x)
            ob *= 0.5
            ob += sb
            ob *= gb
        return (gx,)

    return _make(out, (a,), bwd)


def softmax_rows(a):
    """Softmax over the last axis, stabilised by subtracting the row max."""
    a = _as_tensor(a)
    top = a.data.max(axis=-1, keepdims=True)       # NaN and +inf show in it, -inf in the min
    if not (np.isfinite(top).all() and np.isfinite(a.data.min(initial=0.0))):
        raise NumericError("softmax_rows: input contains NaN or Inf")
    p = a.data - top
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (a,), bwd)


def _standardize_grad(gh, xhat, inv):
    """dx from gh = d(xhat), fused: inv * (gh - mean(gh) - xhat * mean(gh * xhat))."""
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    return inv * (gh - m1 - xhat * m2)


def layer_norm(x, gain, bias, eps=1e-5):
    """The last axis centred and scaled by inv = 1 / sqrt(var + eps), then the affine
    xhat * gain + bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
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


def _token_moments(xt, pos, eps):
    """Mean and sqrt(var + eps) in float64 of each token [x, pos], from the channel rows
    xt [..., C, n] and the shared columns pos [n, c - C]. One pass of float64 sums: float32
    squares are exact in float64, and E[t²] - μ² cancels about c·1e-16·E[t²], far below
    var + eps unless a token's values are all nearly equal and ~1e4 or larger."""
    s1, s2, r = np.zeros((3,) + xt.shape[:-2] + xt.shape[-1:])
    for row in np.moveaxis(xt, -2, 0):      # contiguous [..., n] rows
        np.copyto(r, row)
        s1 += r
        r *= r
        s2 += r
    c = xt.shape[-2] + pos.shape[1]
    mu = (s1 + pos.sum(axis=1, dtype=np.float64)) / c
    var = (s2 + np.einsum("nk,nk->n", pos, pos, dtype=np.float64)) / c - mu * mu
    return mu, np.sqrt(np.maximum(var, 0.0) + eps)


def cross_attention(q, x, pos, gain, bias, rate=0.0, training=False, rng=None, eps=1e-5):
    """dropout(softmax(q t̃ᵀ)) t̃ for queries q [..., h, m, c] over the tokens t = [x, pos],
    with t̃ = layer_norm(t, gain, bias); returns [..., h, m, c].

    x is [..., n, C]; pos [n, c - C] holds the columns every window shares, or is None
    when x is the whole token. No [..., n, c] array is built: with A = q⊙γ and
    p′ = dropout(probs) ⊘ σᵀ (the draw dropout() makes on the [..., h, m, n] probs),

        scores = (A_x xᵀ + A_P posᵀ - rowsum(A) μᵀ) ⊘ σᵀ      (softmax drops q·β)
        out    = ([p′ x, p′ pos] - (p′ μ) 𝟙ᵀ)⊙γ + (p′ σ) ⊗ β

    μ and σ ride as two extra rows of a [..., C + 2, n] copy of x, so the rank-1 terms
    and rowsum(dropout(probs)) = p′σ come out of the GEMMs with x. Executed MACs:
    h·m·n·(2(C + 2) + c - C) per window and h·m·n·(c - C) per call, as many again in
    the backward (more when x needs a gradient); at the paper default (h 1, m 16, n 1280,
    C 14, c 39) 1,167,360 per window and 512,000 per call, against 1,597,440 per window
    over [B, n, c] tokens.
    """
    q, x, gain, bias = map(_as_tensor, (q, x, gain, bias))
    dt = x.dtype
    n, C = x.shape[-2:]
    P = np.zeros((n, 0), dt) if pos is None else np.asarray(pos, dt)
    c = C + P.shape[1]
    if q.ndim < 3 or q.shape[-1] != c or P.shape[0] != n or q.dtype != dt:
        raise ShapeError(f"cross_attention: queries {q.shape} {q.dtype} do not match tokens "
                         f"{x.shape} {dt} with {P.shape[1]} position columns")
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"cross_attention: gain/bias must have shape ({c},), "
                         f"got {gain.shape} and {bias.shape}")
    a = q.data * gain.data
    xt = np.empty(x.shape[:-2] + (C + 2, n), dt)    # channels, then mu and sigma
    xt[..., :C, :] = np.swapaxes(x.data, -1, -2)
    xh = xt[..., None, :, :]                         # [..., 1, C + 2, n], one per head
    a_ext = np.zeros(a.shape[:-1] + (C + 2,), dt)
    a_ext[..., :C] = a[..., :C]
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite input ends in s
        xt[..., C:, :] = np.stack(_token_moments(xt[..., :C, :], P, eps), axis=-2)
        inv = 1.0 / xt[..., C + 1, None, None, :]
        a_ext[..., C] = -a.sum(axis=-1)
        s = np.matmul(a_ext, xh)                     # [..., h, m, n]
        s += np.matmul(a[..., C:], P.T)
        s *= inv
    top = s.max(axis=-1, keepdims=True)              # as softmax_rows checks, with no bool array
    if not (np.isfinite(top).all() and np.isfinite(s.min(initial=0.0))):
        raise NumericError("cross_attention: scores contain NaN or Inf")
    s -= top
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    probs = s
    p2 = np.empty_like(probs) if _records(q, x, gain, bias) else probs   # the backward reads both
    mask = _dropout_mask(probs.shape, dt, rate, training, rng)
    if mask is not None:                             # p′ = probs ⊙ keep ⊙ (inv ⊙ scale)
        keep, scale = mask
        np.multiply(probs, keep, out=p2)
        p2 *= inv * scale
    else:
        np.multiply(probs, inv, out=p2)
    ce = np.matmul(p2, np.swapaxes(xh, -1, -2))      # [..., h, m, C + 2]
    ctx = np.empty(ce.shape[:-1] + (c,), dt)
    ctx[..., :C] = ce[..., :C]
    ctx[..., C:] = (p2.reshape(-1, n) @ P).reshape(ce.shape[:-1] + (c - C,))
    ctx -= ce[..., C:C + 1]
    out = ctx * gain.data + ce[..., C + 1:] * bias.data

    def bwd(g):
        gq = gx = gg = gb = None
        dctx = g * gain.data
        d_ext = np.empty(g.shape[:-1] + (C + 2,), dt)
        d_ext[..., :C] = dctx[..., :C]
        d_ext[..., C] = -dctx.sum(axis=-1)
        d_ext[..., C + 1] = g @ bias.data
        ds = np.matmul(d_ext, xh)                    # d loss / d p′
        ds += (np.ascontiguousarray(dctx[..., C:]).reshape(ds.size // n, c - C)
               @ P.T).reshape(ds.shape)
        ds *= p2                                     # softmax through p′
        ds -= probs * ds.sum(axis=-1, keepdims=True)
        ds *= inv                                    # d loss / d(A ĥᵀ σ)
        if q.requires_grad or gain.requires_grad:
            e = _reduce_to(np.matmul(ds, np.swapaxes(xh, -1, -2)), a.shape[:-1] + (C + 2,))
            da = np.empty(a.shape, dt)
            da[..., :C] = e[..., :C]
            da[..., C:] = np.matmul(_reduce_to(ds, a.shape[:-1] + (n,)), P)
            da -= e[..., C:C + 1]
        if x.requires_grad:
            # ĥ's gradient is σ ⊙ gt, and LayerNorm's backward cancels the σ
            gt = _reduce_to((np.matmul(np.swapaxes(ds, -1, -2), a) +
                             np.matmul(np.swapaxes(p2, -1, -2), dctx)).sum(axis=-3),
                            x.shape[:-1] + (c,))
            t = np.concatenate([x.data, np.broadcast_to(P, x.shape[:-1] + P.shape[1:])], -1)
            xhat = (t - xt[..., C, :, None]) / xt[..., C + 1, :, None]
            gx = _standardize_grad(gt, xhat, 1.0)[..., :C]
        if q.requires_grad:
            gq = da * gain.data
        if gain.requires_grad:
            gg = (da * q.data).reshape(-1, c).sum(axis=0) + (g * ctx).reshape(-1, c).sum(axis=0)
        if bias.requires_grad:
            gb = ce[..., C + 1].reshape(-1) @ g.reshape(-1, c)
        return gq, gx, gg, gb

    return _make(out, (q, x, gain, bias), bwd)


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


def _dropout_mask(shape, dtype, rate, training, rng):
    """(keep, scale) of an inverted dropout draw over shape, or None for the identity."""
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ConfigError("dropout: an rng is required when training with rate > 0")
    # float32 uniforms: half the generator work of float64, and ample for a mask;
    # a bool mask takes 1 byte an element, and masking before scaling cannot overflow
    return rng.random(shape, dtype=np.float32) >= rate, np.ones((), dtype) / (1.0 - rate)


def dropout(x, rate, training, rng=None):
    """Inverted dropout. Identity when not training or rate is 0."""
    x = _as_tensor(x)
    mask = _dropout_mask(x.shape, x.dtype, rate, training, rng)
    if mask is None:
        return x
    keep, scale = mask
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
    _backward_from(loss, np.ones_like(loss.data))


def _backward_from(root, seed):
    """Push seed = d(loss)/d(root) down to the .grad of every leaf below root."""
    if not root.requires_grad:
        return

    # iterative post-order topo sort; recursion would overflow on long graphs
    order = []
    visited = set()
    stack = [(root, False)]
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
    local = {id(root): seed}
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


_openblas = None     # [(get, set)] thread-count functions of numpy's OpenBLAS, found on first use


def _blas_threads(n=None):
    """Numpy's OpenBLAS thread count, after setting it to n when n is given; 1 where
    numpy's BLAS is not an OpenBLAS mapped into this process."""
    global _openblas
    if _openblas is None:
        with open("/proc/self/maps" if os.path.exists("/proc/self/maps") else os.devnull) as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})  # none off Linux
        _openblas = []
        for lib in map(ctypes.CDLL, libs):      # numpy 2's, numpy 1's or a system build's
            for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                         "openblas_%s_num_threads"):
                if hasattr(lib, name % "get"):
                    get, put = getattr(lib, name % "get"), getattr(lib, name % "set")
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    _openblas.append((get, put))
    for _, put in _openblas if n is not None else ():
        put(n)
    return min((get() for get, _ in _openblas), default=1)


def _run_all(fns, most):
    """[fn().data for fn in fns] on T = min(most, numpy's OpenBLAS threads, usable
    CPUs, len(fns)) threads: this one and T - 1 made for the call and joined before
    it returns, each running every T-th fn under the caller's np.errstate (numpy 1
    keeps it per thread, numpy 2 per context; a new thread starts at the default).
    OpenBLAS runs one thread meanwhile, so that the callers' GEMMs do not
    oversubscribe the CPUs. Raises what the first fn that raised did."""
    blas = _blas_threads()
    t = min(len(fns), most, blas, len(os.sched_getaffinity(0))) if blas > 1 else 1  # Linux only
    if t <= 1:
        return [fn().data for fn in fns]
    out, errors, err = [None] * len(fns), {}, np.geterr()

    def run(first):
        with np.errstate(**err):
            for i in range(first, len(fns), t):
                try:
                    out[i] = fns[i]().data
                except BaseException as e:      # raised in the caller's thread below
                    errors[i] = e
                    return

    threads = [threading.Thread(target=run, args=(j,)) for j in range(1, t)]
    _blas_threads(1)
    try:
        for th in threads:
            th.start()
        run(0)
    finally:
        for th in threads:
            if th.ident is not None:
                th.join()
        _blas_threads(blas)
    if errors:
        raise errors[min(errors)]
    return out


def _replayed(fns, threads=1):
    """The outputs of fns, each run with no graph (on up to `threads` threads, _run_all),
    joined along axis 0 as a Tensor whose node has no inputs. Its backward runs
    each fn again with the graph, one at a time, and passes that output's rows of
    the gradient on through it, so only a backward holds a graph, and one fn's at
    most. Each second run must give the first's output bit for bit, or a weight or
    an input has changed in between: the RuntimeError leaves the gradients of the
    fns before it accumulated. The flag is the process's: an op another thread
    runs meanwhile records no graph either."""
    global _graph
    graph, _graph = _graph, False
    try:
        saved = _run_all(fns, threads)
    finally:
        _graph = graph

    def bwd(g):
        lo = 0
        for fn, y in zip(fns, saved):
            y2 = fn()
            if (y2.dtype, y2.shape, y2.data.tobytes()) != (y.dtype, y.shape, y.tobytes()):
                raise RuntimeError("backward: the forward's weights or input changed after it ran")
            _backward_from(y2, g[lo:lo + len(y)])
            lo += len(y)
            del y2                  # this fn's graph, before the next one's is built
        return ()

    out = Tensor(np.concatenate(saved), requires_grad=True)
    out.node = _Node((), bwd)
    return out
