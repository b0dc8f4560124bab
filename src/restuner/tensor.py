"""Dense float64 tensors with reverse-mode autodiff.

The graph is define-by-run, and its vertices hold no values. An op that
records returns a ``Tensor`` holding its output array, and gives it a
*vertex*: a ``Tensor`` whose ``data`` is one shared zero-size array, which
receives the output's grad and carries the op's parents and backward
closure. The output carries the same parents and closure, so a walk from a
loss reaches the whole graph. A leaf is its own vertex. ``_make`` records
the parents as vertices, and ``backward`` calls each closure as
``closure(grad, *parent_vertices)``: an op's closure takes ``(g, va, ...)``
and adds into the vertices it is handed with ``_accumulate``. A closure
therefore holds no tensor, only the shapes, flags and arrays it reads, so
an op output that no backward reads is freed as soon as its consumers have
run, and a recorded graph holds only the arrays its backward passes need.
No closure refers to an output, so a graph has no reference cycle and is
freed by reference counting as soon as its loss dies. An op records exactly
when ``_records`` says so: outside ``no_grad()``, with an input that
requires grad. No other module builds a graph node.

``backward`` on a scalar walks the vertices once in reverse topological
order. It fills ``grad`` on leaves only: a vertex's grad is complete when
the walk reaches it, only its op's closure reads it, and the walk releases
it as soon as that closure returns, so a step's memory is its saved arrays
plus the grads in flight. Every grad follows one rule: ``backward`` drops
each reachable grad, a tensor takes its first contribution as is (often an
array another tensor also holds) and adds later ones out of place. No grad
array is written in place once a tensor holds it, so a grad is never
copied or zero-filled to make that safe.

The module holds only the ops the model records, the ``cross_entropy``
loss included. The hot paths are fused ops, one graph node each:
``linear`` (with GELU as an optional epilogue), ``layer_norm`` and
``attention``. Each repeats, expression for expression and in the same
order, the numpy arithmetic of the primitive chain it replaces, so its
values and grads equal that chain's bit for bit. Their forward passes write
in place only into arrays they allocated themselves, never into an input,
an upstream grad or an array a tensor holds; GELU overwrites its own
product, keeping only its derivative for backward. An op runs on the
whole of its input whether it records or not; a forward that records
nothing bounds its arrays by streaming blocks of whole items through the
model (``backbone.STREAM_VALUES``). The chains, and the reference
primitives (``matmul``, ``gelu``, ``softmax_lastdim`` and so on), live in
the test suite's ``tests/primitives.py``.

GELU's ``erf`` is a numpy port of Cephes ``ndtr.c``, the algorithm behind
``scipy.special.erf``, and equals it bit for bit; numpy is the only
dependency. It runs one ``_ERF_CHUNK`` slice at a time in two scratch
arrays beside the slice, which it overwrites.

A finite-difference oracle (`finite_diff_grad`) is provided for
independent gradient verification; it never touches autodiff state.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_GRAD_ENABLED = True
_NO_DATA = np.empty(0)  # every vertex's ``data``: a vertex holds no value
_NO_DATA.flags.writeable = False


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: op outputs get no parents or closure."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Whether ops record a graph: False inside ``no_grad()``."""
    return _GRAD_ENABLED


class ShapeError(ValueError):
    pass


class GradientError(RuntimeError):
    pass


class Tensor:
    """N-d float64 value, optionally participating in the gradient graph.

    ``_vertex`` is the recorded op output's vertex, or None for a leaf (and a
    vertex), which is its own vertex.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_vertex")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._vertex = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- graph plumbing -------------------------------------------------

    def backward(self) -> None:
        """Fill ``grad`` on every requires_grad leaf this scalar depends on.

        The walk runs over vertices, from this scalar's. A vertex's grad is
        released once its op's backward has used it, and an op output itself
        never takes a grad, so after the call every reachable op output and
        vertex, this scalar included, has ``grad`` None. A tensor the loss
        does not reach keeps ``grad`` as it was. The graph itself, closures
        and their saved arrays included, is kept, so repeated calls without
        re-recording produce identical grads: each call drops every
        reachable tensor's grad before accumulating.
        """
        if self.data.size != 1:
            raise GradientError(f"backward requires a scalar loss, got shape {self.data.shape}")
        root = self._vertex or self
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
        for node in topo:
            node.grad = None
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad, *node._parents)
                node.grad = None

    # -- operator sugar: the two that the model uses -----------------

    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _records(parents: tuple) -> bool:
    """Whether an op over ``parents`` records a graph node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """The op output holding ``data``; when it records, its parents are the
    inputs' vertices, which ``backward`` takes after the output's grad, and
    its own vertex takes the same parents and closure."""
    out = Tensor(data)
    if _records(parents):
        vertex = out._vertex = Tensor(_NO_DATA, requires_grad=True)
        out.requires_grad = True
        out._parents = vertex._parents = tuple(p._vertex or p for p in parents)
        out._backward = vertex._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to vertex ``t``'s grad, never writing into an array: the
    first contribution is stored as is, even when other tensors hold it or
    a view of it, and each later one makes a new sum."""
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise --------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g, va, vb):
        if va.requires_grad:
            _accumulate(va, _unbroadcast(g, a_shape))
        if vb.requires_grad:
            _accumulate(vb, _unbroadcast(g, b_shape))

    return _make(a.data + b.data, (a, b), backward)


def _gelu_in_place(y: np.ndarray, deriv: np.ndarray | None) -> None:
    """Overwrite the C-contiguous ``y`` with GELU, x * Phi(x) with Phi(x) =
    0.5 * (1 + erf(x / sqrt(2))), one ``_ERF_CHUNK`` slice at a time, and
    write GELU's derivative into ``deriv``, shaped like ``y``, unless it is
    None; erf's first scratch array is then the derivative's slice. It
    takes three slice-sized scratch arrays, two when ``deriv`` is given."""
    scratch = [np.empty(min(_ERF_CHUNK, y.size)) for _ in range(3 if deriv is None else 2)]
    flat = y.reshape(-1)
    dflat = None if deriv is None else deriv.reshape(-1)
    for lo in range(0, flat.size, _ERF_CHUNK):
        xs = flat[lo : lo + _ERF_CHUNK]
        ns, c, *zs = (buf[: xs.size] for buf in scratch)
        zs = zs[0] if dflat is None else dflat[lo : lo + xs.size]
        np.divide(xs, math.sqrt(2.0), out=c)
        _erf_chunk(c, zs, ns)
        c += 1.0
        c *= 0.5
        if dflat is not None:  # reads x, so before x goes; zs is this slice of the derivative
            _gelu_grad(xs, c, zs)
        xs *= c


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU derivative Phi(x) + x * phi(x), given the forward pass's Phi(x):
    x * phi(x) is built in ``out``, Phi(x) added into it, and ``out`` returned."""
    np.multiply(x, -0.5, out=out)  # pdf = exp(-0.5 * x * x) / sqrt(2 pi)
    out *= x
    np.exp(out, out=out)
    out /= math.sqrt(2.0 * math.pi)
    out *= x
    out += cdf
    return out


# Cephes ndtr.c coefficients: erf = x*T(x^2)/U(x^2) for |x| <= 1, and
# erfc = exp(-x^2)*P(x)/Q(x) below 8, exp(-x^2)*R(x)/S(x) from 8 on. U, Q
# and S lead with the 1 that Cephes' p1evl implies: 1 * x + c is x + c.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)
_ERF_CHUNK = 1 << 15  # elements per scratch array, so erf allocates no full-size temporary


def _horner(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """Cephes' polevl in ``out``, shaped like ``x``, in place: coef[0] * x +
    coef[1], then ``out * x + c`` for each later coefficient c. A leading 1
    is not multiplied: x + coef[1], as Cephes' p1evl starts."""
    if coef[0] == 1.0:
        np.add(x, coef[1], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf where |x| > 1, as Cephes computes it: sign(x) * (1 - erfc(|x|)).

    erfc(a) is exp(-a^2) * P(a)/Q(a) below 8 and R(a)/S(a) from 8 on, or 0
    where -a^2 < -MAXLOG. exp is libm's (``math.exp``), which Cephes calls;
    numpy's SIMD exp differs from it in the last bit on some inputs.
    """
    a = np.abs(x)
    low = a < 8.0
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite a, zeroed below
        z = -a * a
        num, den = (np.where(low, _horner(a, near, np.empty(a.shape)), _horner(a, far, np.empty(a.shape)))
                    for near, far in ((_ERFC_P, _ERFC_R), (_ERFC_Q, _ERFC_S)))
        y = np.fromiter(map(math.exp, z.tolist()), np.float64, z.size) * num / den
    y[z < -_MAXLOG] = 0.0
    return np.copysign(1.0 - y, x)


def _erf_chunk(xs: np.ndarray, zs: np.ndarray, ns: np.ndarray) -> None:
    """Overwrite the 1-d ``xs`` with erf(xs), using ``zs`` and ``ns``, each
    shaped like ``xs``, as scratch.

    Elements with |x| <= 1 (and NaN) take x*T(x^2)/U(x^2) in Cephes' Horner
    order: z = x^2 in ``zs``, x*T(z) in ``ns``, then U(z) in ``xs`` itself,
    which no later step reads as x. The rare |x| > 1 go to ``_erf_tail``. A
    slice without them (NaN fails the test) skips the gather and scatter.
    """
    tail = None if np.abs(xs, out=zs).max() <= 1.0 else np.flatnonzero(zs > 1.0)
    if tail is not None:
        tail_x = xs[tail]
        xs[tail] = 0.0  # keeps huge and infinite values out of the polynomials
    np.multiply(xs, xs, out=zs)
    _horner(zs, _ERF_T, ns)
    ns *= xs  # the last read of x
    _horner(zs, _ERF_U, xs)
    np.divide(ns, xs, out=xs)
    if tail is not None and tail.size:
        xs[tail] = _erf_tail(tail_x)


# -- structural ---------------------------------------------------------


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner-dim mismatch: {a.shape} @ {b.shape}")


def getitem(a: Tensor, idx) -> Tensor:
    """A basic index (ints, slices, None, Ellipsis) selects each element at
    most once, so the grad scatters with ``+=``; an advanced index is refused."""
    for i in idx if isinstance(idx, tuple) else (idx,):
        if not (i is None or i is Ellipsis or isinstance(i, slice)
                or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))):
            raise ShapeError(f"getitem takes basic indices only, got {type(i).__name__}")
    a_shape = a.data.shape

    def backward(g, va):
        buf = np.zeros(a_shape)
        buf[idx] += g
        _accumulate(va, buf)

    return _make(a.data[idx], (a,), backward)


def concat(tensors: list, axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g, *vertices):
        for v, lo, hi in zip(vertices, offsets[:-1], offsets[1:]):
            if v.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                _accumulate(v, g[tuple(sl)])

    return _make(data, tuple(tensors), backward)


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    a_shape = a.data.shape

    def backward(g, va):
        _accumulate(va, _unbroadcast(g, a_shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


# -- softmax ------------------------------------------------------------


def _softmax(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` over the last axis, shifted by the row max, into
    ``out``, which may be ``x`` itself when the caller owns it."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """y * (g - sum(g * y)) over the last axis, written into the caller's ``g``."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    return np.multiply(g, y, out=g)


# -- fused ops ----------------------------------------------------------
#
# Each backward adds into its inputs in the order the primitive chain's
# nodes would, and a parent tuple ordered like that chain keeps backward's
# topological order, hence every grad sum, unchanged.


def linear(x: Tensor, W: Tensor, b: Tensor | None = None, gelu: bool = False) -> Tensor:
    """x @ W (+ b): ``matmul`` then ``add``, then with ``gelu`` GELU in the
    product's own buffer; backward first multiplies by GELU's derivative,
    then adds the grads in the chain's order: b's, x's (it reads W), W's (x)."""
    _check_matmul(x.data, W.data)
    y = x.data @ W.data
    if b is not None:
        y += b.data
    parents = (x, W) if b is None else (x, W, b)
    deriv = np.empty(y.shape) if gelu and _records(parents) else None
    if gelu:
        _gelu_in_place(y, deriv)
    x_shape, W_shape = x.data.shape, W.data.shape
    b_shape = None if b is None else b.data.shape
    W_data = W.data if x.requires_grad else None  # read by x's grad
    x_data = x.data if W.requires_grad else None  # read by W's grad

    def backward(g, vx, vW, vb=None):
        if deriv is not None:
            g = g * deriv
        if vb is not None and vb.requires_grad:
            _accumulate(vb, _unbroadcast(g, b_shape))
        if vx.requires_grad:
            _accumulate(vx, _unbroadcast(g @ W_data.swapaxes(-1, -2), x_shape))
        if vW.requires_grad:
            _accumulate(vW, _unbroadcast(x_data.swapaxes(-1, -2) @ g, W_shape))

    return _make(y, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    The chain it fuses: mu = mean(x); xc = x - mu; var = mean(xc * xc);
    inv = (var + 1e-6) ** -0.5; out = xc * inv * gamma + beta.
    """
    scale = 1.0 / x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * scale
    xc = x.data - mu
    normed = np.multiply(xc, xc)  # xc * xc, then overwritten with xc * inv
    var_eps = normed.sum(axis=-1, keepdims=True) * scale + 1e-6
    inv = var_eps**-0.5
    np.multiply(xc, inv, out=normed)
    if _GRAD_ENABLED and gamma.requires_grad:  # gamma's grad reads normed
        out = normed * gamma.data
    else:  # the same ops in normed's own buffer, which no backward reads
        out, normed = np.multiply(normed, gamma.data, out=normed), None
    out += beta.data
    gamma_shape, beta_shape = gamma.data.shape, beta.data.shape
    gamma_data = gamma.data if x.requires_grad else None  # read by x's grad

    def backward(g, vx, vgamma, vbeta):
        if vbeta.requires_grad:
            _accumulate(vbeta, _unbroadcast(g, beta_shape))
        if normed is not None:
            _accumulate(vgamma, _unbroadcast(g * normed, gamma_shape))
        if gamma_data is None:
            return
        g_normed = g * gamma_data
        g_xc = g_normed * inv
        g_normed *= xc  # g_normed's buffer then holds g_normed * xc and sq_term
        g_var = _unbroadcast(g_normed, inv.shape) * -0.5 * var_eps**-1.5
        sq_term = np.multiply(g_var * scale, xc, out=g_normed)
        g_xc += sq_term  # xc * xc adds into xc twice, one term at a time
        g_xc += sq_term
        _accumulate(vx, g_xc)  # the centred path, then the mean path
        g_mu = _unbroadcast(g_xc, inv.shape) * -1.0  # mu is shaped like inv
        _accumulate(vx, np.broadcast_to(g_mu * scale, xc.shape))

    return _make(out, (x, gamma, beta), backward)


def attention(qkv: Tensor, heads: int, scale: float, kv: tuple | None = None) -> Tensor:
    """Multi-head softmax(q @ k^T * scale) @ v.

    Without ``kv``, ``qkv`` is a fused [B, N, 3*heads*d] projection whose
    thirds are q, k and v. Given ``kv = (K, V)``, broadcast over the batch,
    ``qkv`` is q alone, [B, N, heads*d]. K and V come in one of two
    layouts: [heads, L, d] (prefix's parameters), or [L, heads*d], as
    ``linear`` writes them (prompt's projections), whose grads go back in
    that layout. Heads are split as numpy views, and the value product
    writes each head straight into its columns of the [B, N, heads*d]
    output. The grads of ``qkv``'s parts reach it as one contribution: a
    zero-filled buffer that each part is added into once.
    """
    parts = 3 if kv is None else 1
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (parts * heads):
        raise ShapeError(f"attention: qkv {qkv.shape} is not [B, N, {parts}*{heads}*d]")
    B, N, width = qkv.data.shape
    d = width // (parts * heads)
    q, *k_v = qkv.data.reshape(B, N, parts, heads, d).transpose(2, 0, 3, 1, 4)
    own = qkv.requires_grad  # q, and without kv also k and v, are slices of qkv
    parents, need_k, need_v = (qkv,), own, own
    if kv is None:
        k, v = k_v
    else:
        K, V = kv
        kv_shape, flat = K.shape, K.data.ndim == 2
        want = (kv_shape[0], heads * d) if flat else (heads, *kv_shape[1:2], d)
        if kv_shape != want or V.shape != kv_shape:
            raise ShapeError(f"attention: K {kv_shape} and V {V.shape} must be "
                             f"[L, {heads * d}] or [{heads}, L, {d}]")
        k, v = (t.data.reshape(-1, heads, d).swapaxes(0, 1) if flat else t.data for t in kv)
        parents, need_k, need_v = (qkv, K, V), K.requires_grad, V.requires_grad
    kt = k.swapaxes(-1, -2)
    probs = q @ kt  # scaled, shifted, exponentiated and normalised in place
    probs *= scale
    _softmax(probs, probs)
    y = np.empty((B, N, heads, d))
    np.matmul(probs, v, out=y.transpose(0, 2, 1, 3))  # heads merged without a copy
    y = y.reshape(B, N, heads * d)
    kt_shape, v_shape = kt.shape, v.shape
    # each grad keeps only what it reads: k's reads q, q's reads k, both read v
    q, kt, v = (q if need_k else None), (kt if own else None), (v if own or need_k else None)

    def unsplit(g):  # a [heads, L, d] K or V grad, in that tensor's layout
        return g.swapaxes(0, 1).reshape(kv_shape) if flat else g

    def backward(g, vqkv, vK=None, vV=None):
        g = g.reshape(B, N, heads, d).transpose(0, 2, 1, 3)  # undo the merge
        if own:
            buf = np.zeros((B, N, parts, heads, d))
            slots = buf.transpose(2, 0, 3, 1, 4)
        # v, then q, then k: the order in which the split chain added them
        if need_v:
            g_v = probs.swapaxes(-1, -2) @ g
            if vK is None:
                slots[2] += g_v
            else:
                _accumulate(vV, unsplit(_unbroadcast(g_v, v_shape)))
        if own or need_k:
            g_probs = _unbroadcast(g @ v.swapaxes(-1, -2), probs.shape)
            g_scores = _softmax_grad(probs, g_probs)  # both in the fresh product
            g_scores *= scale
            if own:
                slots[0] += g_scores @ kt.swapaxes(-1, -2)
            if need_k:
                g_k = _unbroadcast(q.swapaxes(-1, -2) @ g_scores, kt_shape).swapaxes(-1, -2)
                if vK is None:
                    slots[1] += g_k
                else:
                    _accumulate(vK, unsplit(g_k))
        if own:
            _accumulate(vqkv, buf.reshape(B, N, width))

    return _make(y, parents, backward)


def cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean batch cross-entropy of softmax(logits) vs (smoothed) labels."""
    B, K = logits.shape
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= K:
        raise ValueError(f"labels out of range [0, {K})")
    target = np.full((B, K), smoothing / K)
    target[np.arange(B), labels] += 1.0 - smoothing

    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    logsumexp = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    log_probs = z - logsumexp
    loss_val = -(target * log_probs).sum() / B

    def backward(g, vlogits):
        probs = np.exp(log_probs)
        _accumulate(vlogits, g * (probs - target) / B)

    return _make(np.asarray(loss_val), (logits,), backward)


# -- oracle -------------------------------------------------------------


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``, elementwise.

    Independent of autodiff: only perturbs x.data and reads f's value.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    x_flat = x.data.reshape(-1)
    for i in range(base.size):
        orig = x_flat[i]
        x_flat[i] = orig + h
        f_plus = _scalar_value(f(x))
        x_flat[i] = orig - h
        f_minus = _scalar_value(f(x))
        x_flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise GradientError("non-finite evaluation in finite-difference oracle")
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    x.data[...] = base
    return grad


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| scaled by the largest magnitude present in either array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), 1e-12)
    return float(np.abs(a - b).max(initial=0.0)) / denom
