"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The tape is implicit: each differentiable op returns a :class:`Tensor` that
records its parent tensors and a closure producing their gradient
contributions. Calling ``backward()`` on a scalar output walks the recorded
graph once in reverse topological order, accumulates gradients into the
leaves, and frees the graph, so a graph lives for exactly one batch.

Everything is 64-bit. Values are checked to be finite on construction,
except where the producer knows them to be (``checked=True``): the GRU's
states, the representation built from them, the static outputs and unit
rows, and copies of checked tensors. NaN/Inf anywhere is an error state,
never a value.

Ownership: gradient accumulation never updates arrays in place, which keeps
views produced by backward closures safe to hand out. The one exception is a
gradient buffer (:func:`gradient_buffers`): while the training loop runs,
each parameter it owns holds one array, and a leaf's first gradient
contribution of a backward pass is formed in it with ``out=`` and becomes
its ``.grad``, so a step allocates no parameter-sized array. A later
contribution of the same pass, as from a weight both GRU directions share,
is a fresh array, and so is every gradient outside the loop.

Three places write into arrays a tensor already holds.
``model.represent`` writes the static columns and the normalization into
the block ``model.gru_layer`` returned, before any op reads it; no
backward closure reads the block's values from before normalization (the
GRU's BPTT reads its own cached states). :func:`adam_step` overwrites
``.data`` of every tensor in the parameter set it is given and the moment
arrays of its :class:`OptimizerState`, and only reads the gradients; for a
tensor of at least ``ADAM_SPLIT`` elements it writes two disjoint block
ranges at once, the second from a short-lived thread (:func:`run_pair`).
Projected fine-tuning copies the projection into the tensors it trains.
The caller of either must own that parameter set: ``train._train`` trains the set it is
handed in place, pretraining and the baseline hand it the set they drew,
and fine-tuning a copy of theta0, so a pretrained set, theta0 and any
tensor they share stay fixed. :func:`detach` shares arrays, so a detached
set sees later updates.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from threading import Thread

import numpy as np

from .errors import InputError, NumericError, ShapeError

Array = np.ndarray

# A parameter set is an ordered name -> Tensor map; gradients mirror its keys.
ParamSet = dict[str, "Tensor"]
Gradients = dict[str, Array]


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "grad_buffer", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, checked: bool = False):
        # ``checked``: data its producer knows to be finite, such as a copy
        # of a tensor that was checked when it was built or the GRU's
        # states, so the finiteness scan would find nothing new
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not checked and not np.isfinite(arr).all():
            raise NumericError("non-finite values in tensor")
        self.data = arr
        self.grad: Array | None = None
        self.grad_buffer: Array | None = None  # see gradient_buffers
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of dims {self.dims}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar, then free the graph."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        if not self.requires_grad:
            return
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
        for node in topo:
            node._parents = ()
            node._backward = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(dims={self.dims}, requires_grad={self.requires_grad})"


def accumulate(t: Tensor, g: Array) -> None:
    # No in-place adds: closures may hand out views of a consumer's grad.
    t.grad = g if t.grad is None else t.grad + g


def grad_arrays(tensors) -> list[Array]:
    """An array to form each tensor's gradient contribution in, in order: its
    gradient buffer when it holds one and no contribution of this backward
    pass has reached it, nor been handed its buffer earlier in ``tensors``;
    else a fresh array. The array becomes the tensor's ``.grad`` when
    :func:`accumulate` receives it first."""
    arrays, handed = [], set()
    for t in tensors:
        free = t.grad is None and t.grad_buffer is not None and id(t) not in handed
        handed.add(id(t))
        arrays.append(t.grad_buffer if free else np.empty(t.dims))
    return arrays


@contextmanager
def gradient_buffers(params: ParamSet):
    """Give every tensor of ``params`` one gradient buffer while the block
    runs, and leave each with neither a buffer nor a gradient after it. A
    backward pass in the block forms each leaf's first gradient contribution
    in its buffer, so the gradients it returns are overwritten by the next
    pass."""
    for p in params.values():
        p.grad_buffer = np.empty(p.dims)
    try:
        yield
    finally:
        for p in params.values():
            p.grad = p.grad_buffer = None


def attach(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Two threads
# ---------------------------------------------------------------------------

# the number of processes that split this process's CPUs between them: a
# fold worker of ``evaluation.cross_validate`` shares them with its siblings
_cpu_sharers = 1


def share_cpus(n_processes: int) -> None:
    """Count only an ``n_processes``-th of the CPUs as this process's own;
    each worker of a pool of ``n_processes`` calls it when it starts."""
    global _cpu_sharers
    _cpu_sharers = n_processes


def usable_cpus() -> int:
    """This process's share of the CPUs it may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus // _cpu_sharers


def run_pair(first, second) -> tuple:
    """Call ``first`` on this thread while a short-lived thread calls
    ``second``, and return both results. The second runs under this
    thread's floating-point error handling (np.errstate is thread-local).
    If both raise, the error of ``first`` is the one raised, as in the
    serial order.

    The two must write disjoint arrays, all allocated by this thread before
    the call: an array the second thread allocated would come from a second
    malloc arena and raise peak memory."""
    errstate = np.geterr()
    results, failed = [None, None], []

    def work():
        try:
            with np.errstate(**errstate):
                results[1] = second()
        except BaseException as exc:
            failed.append(exc)

    worker = Thread(target=work)
    worker.start()
    try:
        results[0] = first()
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return tuple(results)


# ---------------------------------------------------------------------------
# Differentiable ops
# ---------------------------------------------------------------------------

# m * k * p from which an affine backward that needs the gradients of both x
# and w forms them on two threads; a smaller pair costs more to start
AFFINE_SPLIT = 2**25


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x of dims (m, k), w (k, p), b (p,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"affine expects 2-d x, 2-d w, 1-d b, got {x.dims}, {w.dims}, {b.dims}"
        )
    if x.dims[1] != w.dims[0] or w.dims[1] != b.dims[0]:
        raise ShapeError(f"affine dims mismatch: {x.dims} @ {w.dims} + {b.dims}")
    out = Tensor(x.data @ w.data + b.data)

    def _bw():
        g = out.grad
        both = x.requires_grad and w.requires_grad
        if both and x.data.size * w.dims[1] >= AFFINE_SPLIT and usable_cpus() >= 2:
            d_x, d_w = grad_arrays((x, w))
            run_pair(partial(np.matmul, g, w.data.T, out=d_x), partial(np.matmul, x.data.T, g, out=d_w))
            accumulate(x, d_x)
            accumulate(w, d_w)
        else:
            if x.requires_grad:
                accumulate(x, g @ w.data.T)
            if w.requires_grad:
                accumulate(w, np.matmul(x.data.T, g, out=grad_arrays((w,))[0]))
        if b.requires_grad:
            accumulate(b, np.sum(g, axis=0, out=grad_arrays((b,))[0]))

    return attach(out, (x, w, b), _bw)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); backward passes the gradient where x > 0."""
    out = Tensor(np.maximum(x.data, 0.0))

    def _bw():
        accumulate(x, out.grad * (x.data > 0.0))

    return attach(out, (x,), _bw)


NORM_BLOCK = 32768  # elements of x * x that row_norms squares at once


def row_norms(x: Array) -> Array:
    """The bits of ``np.linalg.norm(x, axis=1, keepdims=True)`` for a
    C-contiguous 2-d x, squaring a block of rows at a time, not all of x:
    each row's squares are summed on their own, so no sum changes."""
    rows, width = x.shape
    step = max(1, NORM_BLOCK // max(width, 1))
    squares, sums = np.empty((min(step, rows), width)), np.empty(rows)
    for lo in range(0, rows, step):
        block = x[lo : lo + step]
        np.add.reduce(np.multiply(block, block, out=squares[: len(block)]), axis=1, out=sums[lo : lo + len(block)])
    return np.sqrt(sums, out=sums).reshape(rows, 1)


def normalize_rows_(a: Array) -> Array:
    """Scale each row of ``a`` (C-contiguous, 2-d, finite) to unit euclidean
    norm in place, with the bits of ``a / norms``; returns the (rows, 1)
    norms. Finite rows over positive norms are finite, so the result needs
    no finiteness rescan."""
    norms = row_norms(a)
    if np.any(norms == 0.0):
        raise NumericError("cannot normalize a zero row")
    np.divide(a, norms, out=a)
    return norms


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

LOG_CLAMP = 1e-12


def softmax(logits: Array) -> Array:
    """Row-wise softmax of a 2-d array, stabilized by row-max subtraction."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def softmax_xent(
    logits: Array, labels, weights: Array | None = None
) -> tuple[float, Array]:
    """Mean (optionally class-weighted) softmax cross-entropy and its gradient.

    loss = (1/m) * sum_i w[y_i] * (-log softmax(logits_i)[y_i]), stabilized by
    row-max subtraction, with the log argument clamped at ``LOG_CLAMP``.
    Returns ``(loss, dlogits)`` where dlogits is the exact gradient of the
    unclamped loss.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got dims {arr.shape}")
    y = np.asarray(labels, dtype=np.int64)
    m, n_classes = arr.shape
    if y.shape != (m,):
        raise ShapeError(f"labels must have length {m}, got {y.shape}")
    if m == 0:
        raise InputError("empty batch")
    if y.min() < 0 or y.max() >= n_classes:
        raise InputError(f"label out of range [0, {n_classes})")
    if weights is None:
        w = np.ones(m)
    else:
        wv = np.asarray(weights, dtype=np.float64)
        if wv.shape != (n_classes,):
            raise ShapeError(f"weights must have length {n_classes}, got {wv.shape}")
        w = wv[y]
    p = softmax(arr)
    rows = np.arange(m)
    py = np.maximum(p[rows, y], LOG_CLAMP)
    loss = float(np.mean(w * -np.log(py)))
    dlogits = p * (w / m)[:, None]
    dlogits[rows, y] -= w / m
    return loss, dlogits


def cross_entropy(logits: Tensor, labels, weights: Array | None = None) -> Tensor:
    """Tape node wrapping :func:`softmax_xent`; returns a scalar tensor."""
    loss, dlogits = softmax_xent(logits.data, labels, weights)
    out = Tensor(np.asarray(loss))

    def _bw():
        accumulate(logits, out.grad * dlogits)

    return attach(out, (logits,), _bw)


def collect_grads(params: ParamSet) -> Gradients:
    """Read accumulated leaf gradients, substituting zeros for unused leaves."""
    return {
        name: (p.grad if p.grad is not None else np.zeros(p.dims))
        for name, p in params.items()
    }


def detach(params: ParamSet) -> ParamSet:
    """The same arrays held by leaves off the tape, for forward-only passes:
    ops on them record no graph and keep no backward state."""
    return {name: Tensor(p.data) for name, p in params.items()}


def reset_grads(params: ParamSet) -> None:
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# Adaptive-moment optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Adam state. Its moment arrays belong to the optimizer: :func:`adam_step`
    updates them in place and advances ``step_count``."""

    step_count: int
    first_moment: dict[str, Array]
    second_moment: dict[str, Array]
    learning_rate: float


def init_adam(params: ParamSet, learning_rate: float) -> OptimizerState:
    if not learning_rate > 0.0:
        raise InputError(f"learning rate must be positive, got {learning_rate}")
    zeros = lambda: {name: np.zeros(p.dims) for name, p in params.items()}
    return OptimizerState(0, zeros(), zeros(), learning_rate)


# Elements per block of the in-place update: the block of p, m, v, g and the
# two scratch arrays (6 x 256 KiB) stay in cache across the update's passes.
ADAM_BLOCK = 32768
# Elements from which a tensor is updated as two block ranges, the second on
# a second thread; a smaller tensor costs more to start a thread for.
ADAM_SPLIT = 2**18


def _adam_scratch(size: int) -> tuple[Array, Array, Array]:
    """Two float blocks for the update's intermediates and one bool block
    for its finiteness check."""
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _adam_range(flat_p, flat_g, flat_m, flat_v, scratch, consts) -> bool:
    """Update one run of a raveled tensor block by block; returns whether
    every updated value is finite. Writes only the arrays it is given."""
    b1, b2, lr, eps, c1, c2 = consts
    finite = True
    for lo in range(0, flat_p.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, flat_p.size)
        p, g, m, v = flat_p[lo:hi], flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
        a, b, flags = (s[: hi - lo] for s in scratch)
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a
        finite &= bool(np.isfinite(p, out=flags).all())
    return finite


def adam_step(
    params: ParamSet, grads: Gradients, state: OptimizerState
) -> tuple[ParamSet, OptimizerState]:
    """One bias-corrected adaptive-moment update, in place.

    Overwrites every ``params[name].data`` and both moments of ``state``, and
    returns the same ``(params, state)`` objects. The arithmetic runs in the
    order of the out-of-place formula, so results are bit-identical to it:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps).

    A tensor of at least ``ADAM_SPLIT`` elements, on a process with two
    CPUs, is updated as two runs of whole blocks, the second on a second
    thread with its own scratch blocks. Every update is elementwise, so the
    split changes no result.
    """
    if set(params) != set(grads) or set(params) != set(state.first_moment):
        raise ShapeError("parameter, gradient and moment key sets differ")
    for name, p in params.items():
        if grads[name].shape != p.dims:
            raise ShapeError(f"gradient shape {grads[name].shape} != param {p.dims} for {name!r}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    consts = b1, b2, state.learning_rate, ADAM_EPSILON, 1.0 - b1**t, 1.0 - b2**t
    largest = max((p.data.size for p in params.values()), default=0)
    scratch = _adam_scratch(min(largest, ADAM_BLOCK))
    split = largest >= ADAM_SPLIT and usable_cpus() >= 2
    worker_scratch = _adam_scratch(ADAM_BLOCK) if split else None
    for name, p in params.items():
        # params and moments are C-contiguous, so these are views; a strided
        # gradient is copied once here, by this thread
        flat = (
            p.data.reshape(-1),
            grads[name].reshape(-1),
            state.first_moment[name].reshape(-1),
            state.second_moment[name].reshape(-1),
        )
        size = p.data.size
        mid = -(-size // (2 * ADAM_BLOCK)) * ADAM_BLOCK  # half the blocks, rounded up
        if split and size >= ADAM_SPLIT and mid < size:
            finite = all(run_pair(
                partial(_adam_range, *(a[:mid] for a in flat), scratch, consts),
                partial(_adam_range, *(a[mid:] for a in flat), worker_scratch, consts),
            ))
        else:
            finite = _adam_range(*flat, scratch, consts)
        if not finite:
            raise NumericError(f"non-finite values in parameter {name!r} after an Adam step")
    return params, state
