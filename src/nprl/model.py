"""Multi-modal recurrent classifier: bidirectional GRU over the 9-hour night
window, a small dense branch for static features, concatenation into a single
profile representation, and a swappable softmax head.

Also owns everything that treats the parameters as a geometric object:
Frobenius distances and projection onto a ball around a reference parameter
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, FieldError, InputError, NumericError, ShapeError
from .numgrad import Array, ParamSet, Tensor

WINDOW_LEN = 9
FORWARD_CHUNK = 512  # rows per forward-only pass; equal chunks give bit-equal outputs
OUTCOME_CLASSES = 2  # the head width of every outcome model: no sepsis onset, onset


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered names of the temporal and static inputs one instance carries."""

    temporal_names: tuple[str, ...]
    static_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.temporal_names) < 1:
            raise ConfigError("at least one temporal feature is required")
        names = self.temporal_names + self.static_names
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")

    @property
    def n_temporal(self) -> int:
        return len(self.temporal_names)

    @property
    def n_static(self) -> int:
        return len(self.static_names)


@dataclass(frozen=True)
class ModelConfig:
    gru_hidden: int
    static_widths: tuple[int, ...]
    trunk_widths: tuple[int, ...]
    normalize_representation: bool

    def __post_init__(self):
        if self.gru_hidden < 1:
            raise FieldError("gru_hidden", f"must be >= 1, got {self.gru_hidden}")
        for name in ("static_widths", "trunk_widths"):
            if any(w < 1 for w in getattr(self, name)):
                raise FieldError(name, f"layer widths must be positive, got {getattr(self, name)}")


def rep_width(config: ModelConfig, n_static: int) -> int:
    """Width of the concatenated representation: 2H per hour over 9 hours,
    plus the final static-branch width when static features are present."""
    width = 2 * WINDOW_LEN * config.gru_hidden
    if n_static > 0:
        if not config.static_widths:
            raise ConfigError("static features present but static_widths is empty")
        width += config.static_widths[-1]
    return width


GRU_TENSORS = ("W_zrh", "U_zr", "U_h", "b_zrh")  # one GRU direction, gates in z, r, h order


def param_layout(
    config: ModelConfig, schema: FeatureSchema, n_classes: int = OUTCOME_CLASSES
) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, dims) pairs for every parameter tensor of the model
    with an ``n_classes``-way head."""
    t, s, h = schema.n_temporal, schema.n_static, config.gru_hidden
    layout = [
        (f"gru_{direction}.{kind}", dims)
        for direction in ("fwd", "bwd")
        for kind, dims in zip(GRU_TENSORS, ((t, 3 * h), (h, 2 * h), (h, h), (3 * h,)))
    ]
    static_widths = config.static_widths if s > 0 else ()
    for prefix, prev, widths in (("static", s, static_widths), ("trunk", rep_width(config, s), config.trunk_widths)):
        for i, width in enumerate(widths):
            layout += [(f"{prefix}.{i}.W", (prev, width)), (f"{prefix}.{i}.b", (width,))]
            prev = width
    layout += [("head.W", (prev, n_classes)), ("head.b", (n_classes,))]
    return layout


def draw_params(layout: list[tuple[str, tuple[int, ...]]], draw) -> dict[str, Array]:
    """Arrays for a (name, dims) layout, filled block by block with
    ``draw(block dims)`` in the order and the dims of one tensor per gate:
    each GRU direction gate by gate, W then U then b. Gate g is columns
    gH:(g+1)H of W_zrh and b_zrh; z and r are the halves of U_zr, and h's U is
    all of U_h. Any other tensor is one block."""
    arrays = {name: np.empty(dims) for name, dims in layout}
    for name, dims in layout:
        prefix, _, kind = name.rpartition(".")
        if kind == "W_zrh":
            w, u_zr, u_h, b = (arrays[f"{prefix}.{k}"] for k in GRU_TENSORS)
            h = u_h.shape[0]
            for g in range(3):
                cols = slice(g * h, (g + 1) * h)
                w[:, cols] = draw((dims[0], h))
                u = u_zr[:, cols] if g < 2 else u_h
                u[:] = draw((h, h))
                b[cols] = draw((h,))
        elif kind not in GRU_TENSORS:
            arrays[name][:] = draw(dims)
    return arrays


def _glorot_params(layout: list[tuple[str, tuple[int, ...]]], seed: int) -> ParamSet:
    """Glorot-uniform weights, zero biases, bit-reproducible per seed."""
    rng = np.random.default_rng(seed)

    def draw(dims: tuple[int, ...]) -> Array:
        if len(dims) == 1:
            return np.zeros(dims)
        limit = np.sqrt(6.0 / (dims[0] + dims[1]))
        return rng.uniform(-limit, limit, size=dims)

    return {name: Tensor(data, requires_grad=True) for name, data in draw_params(layout, draw).items()}


def init_params(config: ModelConfig, schema: FeatureSchema, seed: int, n_classes: int = OUTCOME_CLASSES) -> ParamSet:
    """Every tensor of the model with an ``n_classes``-way head: Glorot-uniform
    weights, zero biases."""
    return _glorot_params(param_layout(config, schema, n_classes), seed)


def is_head(name: str) -> bool:
    return name.startswith("head.")


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _sigmoid_(a: Array) -> Array:
    """Logistic function in place, computed as 1 / (1 + exp(-a))."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def _check_finite(a: Array, flags: Array, what: str) -> None:
    """Raise unless every value of ``a`` is finite; ``flags``, a bool array
    of a's dims, is written instead of a fresh one."""
    if not np.isfinite(a, out=flags).all():
        raise NumericError(f"non-finite {what} pre-activation")


# batch * H^2 from which the two directions of a pass run on two threads;
# below it, starting the thread costs more than the overlap saves
TWO_THREAD_WORK = 2**18


class _Direction:
    """One GRU direction of a pass over a (steps * batch, T) time-major input:
    its weights and every array that its recurrence (``scan``) and its BPTT
    (``bptt``) write. ``allocate_scan`` and ``allocate_bptt`` allocate them
    in the calling thread, so a second thread running ``scan`` or ``bptt``
    allocates no array; both free their scratch arrays when they finish.

    NumPy buffers an operand that is a column slice of wider rows, or a
    broadcast row, and runs such an op 2-5 times slower than on a contiguous
    block. So a taped pass adds the biases as whole blocks, filled once per
    pass, and keeps each step's gates gate-major: z and r are one
    (2, batch, H) block, copied from the sigmoid's [z | r] rows, so every
    later op on a gate, in the recurrence and in BPTT, reads whole blocks.
    BPTT copies the outputs' gradient to one contiguous block, forms the
    gate gradients in contiguous blocks and writes them into the [z | r | c]
    rows that its GEMMs read. A forward-only pass keeps the gates in the
    rows and broadcasts the bias rows, as nothing reads its gates after the
    step. Every pass projects its input one hour at a time into one
    (batch, 3H) slot, as BPTT reads no projection. Every GEMM has the
    operands of the fused layout, with other strides at most, so every
    result is the same to the bit, and a forward-only pass gives a taped
    one's bits; a GEMM against a block of U_zr's columns is not (its bits
    differ at H = 17 or at batch 1, for example), so none is split.

    states[t + rev] is the state entering step t and states[t + 1 - rev] the
    one leaving it, so both the inputs and the outputs are contiguous runs.
    """

    def __init__(self, x2d: Array, steps: int, params: ParamSet, name: str):
        self.prefix = f"gru_{name}"
        self.weights = [params[f"{self.prefix}.{kind}"] for kind in GRU_TENSORS]
        self.w, self.u_zr, self.u_h, self.b = (p.data for p in self.weights)
        self.hidden = self.u_h.shape[0]
        if self.w.shape != (x2d.shape[1], 3 * self.hidden):
            raise ShapeError(f"{self.prefix} expects {self.w.shape[0]} input features, got {x2d.shape[1]}")
        self.x2d = x2d
        self.rev = 1 if name == "bwd" else 0
        self.order = range(steps - 1, -1, -1) if self.rev else range(steps)

    def allocate_scan(self, h0: Tensor | None, taped: bool) -> None:
        steps, batch, hidden = len(self.order), self.x2d.shape[0] // len(self.order), self.hidden
        self.taped = taped
        self.proj = np.empty((batch, 3 * hidden))  # this hour's x W_zrh
        self.states = np.empty((steps + 1, batch, hidden))
        self.states[steps if self.rev else 0] = 0.0 if h0 is None else h0.data
        kept = steps if taped else 1  # forward-only passes reuse one slot
        self.pre = np.empty((batch, 2 * hidden))  # the gates' pre-activation rows [z | r]
        rows = batch if taped else 1  # b_zrh repeated per row; a forward-only pass broadcasts one
        self.b_zr, self.b_c = np.empty((rows, 2 * hidden)), np.empty((rows, hidden))
        # the sigmoid outputs z, r that BPTT reads; a forward-only pass keeps them in pre
        self.gates = np.empty((steps, 2, batch, hidden)) if taped else None
        self.cands = np.empty((kept, batch, hidden))  # tanh candidates
        self.reset = np.empty((kept, batch, hidden))  # r * h
        self.zc = np.empty((batch, hidden))  # z * c
        self.finite = np.empty(batch * 2 * hidden, dtype=bool)  # _check_finite's flags

    @property
    def outputs(self) -> Array:
        """The state leaving each step, (steps, batch, H)."""
        return self.states[1 - self.rev : len(self.states) - self.rev]

    def scan(self) -> None:
        """The recurrence, with three GEMMs per step: this hour's input
        against W_zrh, the state against U_zr and r * h against U_h:

            z, r = sigmoid(x W_zrh[:, :2H] + h U_zr + b_zrh[:2H])
            c = tanh(x W_zrh[:, 2H:] + (r * h) U_h + b_zrh[2H:])
            h' = (1 - z) * h + z * c
        """
        hidden, proj, states, rev, u_zr, u_h, pre, zc = (
            self.hidden, self.proj, self.states, self.rev, self.u_zr, self.u_h, self.pre, self.zc
        )
        finite_zr = self.finite.reshape(pre.shape)
        finite_c = self.finite[: zc.size].reshape(zc.shape)
        pre_zr = pre.reshape(pre.shape[0], 2, hidden).transpose(1, 0, 2)  # pre's z and r blocks
        batch = pre.shape[0]
        b_zr, b_c = self.b_zr, self.b_c
        b_zr[:], b_c[:] = self.b[: 2 * hidden], self.b[2 * hidden :]
        proj_zr, proj_c = proj[:, : 2 * hidden], proj[:, 2 * hidden :]
        gate_what, cand_what = f"{self.prefix} gate", f"{self.prefix} candidate"
        for t in self.order:
            k = t if self.taped else 0
            np.matmul(self.x2d[t * batch : (t + 1) * batch], self.w, out=proj)
            h, c, rh = states[t + rev], self.cands[k], self.reset[k]
            np.matmul(h, u_zr, out=pre)
            pre += proj_zr
            pre += b_zr
            _check_finite(pre, finite_zr, gate_what)
            _sigmoid_(pre)
            if self.taped:  # gate-major, so that each gate is one block
                z, r = zr = self.gates[t]
                np.copyto(zr, pre_zr)
            else:
                z, r = pre[:, :hidden], pre[:, hidden:]
            np.multiply(r, h, out=rh)
            np.matmul(rh, u_h, out=c)
            c += proj_c
            c += b_c
            _check_finite(c, finite_c, cand_what)
            np.tanh(c, out=c)
            h_new = states[t + 1 - rev]
            np.subtract(1.0, z, out=h_new)
            h_new *= h
            h_new += np.multiply(z, c, out=zc)
        # scratch that BPTT does not read, and without BPTT every slot
        self.proj = self.pre = self.b_zr = self.b_c = self.zc = self.finite = None
        if not self.taped:
            self.cands = self.reset = None

    def allocate_bptt(self, input_grad: bool, grads: list[Array]) -> None:
        """``grads``: the arrays to form the four weight gradients in, from
        ``numgrad.grad_arrays``."""
        steps, batch, hidden = self.outputs.shape
        self.d_out = np.empty((steps, batch, hidden))  # the outputs' gradient, contiguous
        self.d_proj = np.empty((steps, batch, 3 * hidden))  # pre-activation grads [z | r | c]
        self.d_pre = np.empty((3, batch, hidden))  # d_z and d_r before sigmoid', and scratch
        self.work = np.empty((2, batch, hidden))
        self.dh = np.zeros((batch, hidden)), np.empty((batch, hidden))  # a state's grad, the one before
        self.d_hu = np.empty((batch, hidden))  # a gate grad times U_zr.T
        self.grads = grads
        self.d_x = np.empty_like(self.x2d) if input_grad else None

    def bptt(self, d_out: Array) -> None:
        """Backpropagation through time from the (steps, batch, H) gradient
        of the outputs. The four weight gradients are formed whole after the
        loop, one GEMM or sum each over all steps; the input's gradient goes
        to ``d_x`` when it is allocated, and the initial state's to ``d_h0``."""
        hidden, states, rev, d_proj, d_pre, work, u_zr_t, u_h_t = (
            self.hidden, self.states, self.rev, self.d_proj, self.d_pre, self.work, self.u_zr.T, self.u_h.T
        )
        steps, batch = d_proj.shape[:2]
        np.copyto(self.d_out, d_out)
        dh, spare = self.dh
        d_zr_pre, (d_z_pre, d_r_pre, scratch), work_z = d_pre[:2], d_pre, work[0]
        # each step's [z | r] rows of d_proj, seen as gate-major (2, batch, H)
        d_zr_rows = d_proj.reshape(steps, batch, 3, hidden)[:, :, :2].transpose(0, 2, 1, 3)
        for t in reversed(self.order):
            h, zr, c = states[t + rev], self.gates[t], self.cands[t]
            z, r = zr
            d_zr, d_c = d_proj[t, :, : 2 * hidden], d_proj[t, :, 2 * hidden :]
            dh += self.d_out[t]
            # through h' = (1 - z) * h + z * c and c = tanh(.)
            np.subtract(c, h, out=d_z_pre)
            d_z_pre *= dh
            tanh_grad = np.multiply(c, c, out=work_z)
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            np.multiply(dh, z, out=scratch)
            np.multiply(scratch, tanh_grad, out=d_c)
            d_rh = np.matmul(d_c, u_h_t, out=spare)
            np.multiply(d_rh, h, out=d_r_pre)
            np.subtract(1.0, zr, out=work)
            carry = np.multiply(work_z, dh, out=scratch)  # (1 - z) * dh
            work *= zr  # sigmoid' = s * (1 - s), both gates
            np.multiply(d_zr_pre, work, out=d_zr_rows[t])
            # the previous state feeds r * h, the carry term and both gates
            dh_prev = d_rh
            dh_prev *= r
            dh_prev += carry
            dh_prev += np.matmul(d_zr, u_zr_t, out=self.d_hu)
            dh, spare = dh_prev, dh
        self.d_h0 = dh
        d_flat = d_proj.reshape(self.x2d.shape[0], 3 * hidden)
        prev_states = states[rev : len(states) - 1 + rev].reshape(-1, hidden)
        d_w, d_uzr, d_uh, d_b = self.grads
        np.matmul(self.x2d.T, d_flat, out=d_w)
        np.matmul(prev_states.T, d_flat[:, : 2 * hidden], out=d_uzr)
        np.matmul(self.reset.reshape(-1, hidden).T, d_flat[:, 2 * hidden :], out=d_uh)
        np.sum(d_flat, axis=0, out=d_b)
        if self.d_x is not None:
            np.matmul(d_flat, self.w.T, out=self.d_x)
        self.d_out = self.d_proj = self.d_pre = self.work = self.dh = self.d_hu = None


def _run(jobs: list[tuple], threaded: bool) -> None:
    """Run (allocate, compute) jobs. Serially, each job allocates just before
    it computes, so it can reuse what the job before it freed. When
    ``threaded`` (two jobs), this thread allocates for both, then
    :func:`numgrad.run_pair` computes them on two threads."""
    if not threaded:
        for allocate, compute in jobs:
            allocate()
            compute()
        return
    for allocate, _ in jobs:
        allocate()
    ng.run_pair(jobs[0][1], jobs[1][1])


def gru_layer(
    x: Tensor,
    params: ParamSet,
    directions: tuple[str, ...] = ("fwd", "bwd"),
    h0: Tensor | None = None,
    block_width: int | None = None,
) -> Tensor:
    """GRU directions over a time-major (steps, batch, T) input, as a single
    tape node; returns a (batch, block_width) tensor whose leading
    steps * len(directions) * H columns hold the states batch-major, side by
    side per step in the order given. ``block_width`` defaults to that
    width; the columns after it are the caller's to fill, and backward reads
    only the leading columns of the gradient. The block is allocated after
    the recurrences have freed their scratch arrays.

    The "bwd" direction runs from the last step to the first; every
    direction starts at ``h0`` (zeros when omitted). When a parent is on the
    tape the gates are cached and backward runs BPTT in one closure, which
    reads no value of the block, so the caller may overwrite its columns.
    Directions read the same input and share no state: with two of them and
    batch * H^2 >= TWO_THREAD_WORK on at least two CPUs, the second runs on
    its own thread, forward and BPTT alike. Each direction does the same
    operations in the same order either way, and the gradients are summed
    direction by direction in the order given, so every result is
    bit-identical to the serial pass.
    """
    steps, batch, t_features = x.dims
    x2d = x.data.reshape(steps * batch, t_features)
    dirs = [_Direction(x2d, steps, params, name) for name in directions]
    weights = [p for d in dirs for p in d.weights]
    parents = (x, *weights) + ((h0,) if h0 is not None else ())
    taped = any(p.requires_grad for p in parents)
    work = batch * dirs[0].hidden ** 2
    threaded = len(dirs) == 2 and work >= TWO_THREAD_WORK and ng.usable_cpus() >= 2
    _run([(partial(d.allocate_scan, h0, taped), d.scan) for d in dirs], threaded)
    width = sum(d.hidden for d in dirs)
    block = np.empty((batch, steps * width if block_width is None else block_width))
    states = block[:, : steps * width].reshape(batch, steps, width)  # a view: no copy
    np.concatenate([d.outputs.transpose(1, 0, 2) for d in dirs], axis=-1, out=states)
    # every state mixes the one before and a tanh, so all are finite
    out = Tensor(block, checked=True)

    def _bw():
        grad = out.grad[:, : steps * width].reshape(batch, steps, width).transpose(1, 0, 2)
        lo, jobs = 0, []
        buffers = iter(ng.grad_arrays(weights))  # a weight both directions share gets one buffer
        for d in dirs:  # each direction's block of the output's columns
            d_out, lo = grad[:, :, lo : lo + d.hidden], lo + d.hidden
            grads = [next(buffers) for _ in GRU_TENSORS]
            jobs.append((partial(d.allocate_bptt, x.requires_grad, grads), partial(d.bptt, d_out)))
        _run(jobs, threaded)
        for d in dirs:
            for p, g in zip(d.weights, d.grads):
                if p.requires_grad:
                    ng.accumulate(p, g)
            if x.requires_grad:
                ng.accumulate(x, d.d_x.reshape(x.dims))
            if h0 is not None and h0.requires_grad:
                ng.accumulate(h0, d.d_h0)

    return ng.attach(out, parents, _bw)


def represent(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Tensor:
    """Batched representation of raw arrays, reading no trunk or head tensor.

    temporal has dims (batch, 9, T) and statics (batch, S) with S possibly 0.
    The representation is the concatenation feeding the trunk, normalized to
    unit rows when the config says so.

    Every pass, taped or forward-only, fills one (batch, ``rep_width``)
    block: the GRU's states are its leading columns, the static branch
    writes the tail, and normalization divides the block in place, so the
    pass holds no concatenated and no second, normalized copy. The block
    becomes one tape node over the GRU output and the static output, whose
    backward projects the gradient onto the tangent of the unit sphere when
    the rows were normalized, and hands each parent its columns.
    """
    temporal = np.asarray(temporal, dtype=np.float64)
    statics = np.asarray(statics, dtype=np.float64)
    t_features = params["gru_fwd.W_zrh"].dims[0]
    if temporal.ndim != 3 or temporal.shape[1:] != (WINDOW_LEN, t_features):
        raise ShapeError(
            f"temporal must be (batch, {WINDOW_LEN}, {t_features}), got {temporal.shape}"
        )
    batch = temporal.shape[0]
    n_static = statics.shape[1] if statics.ndim == 2 else 0
    if statics.ndim != 2 or statics.shape[0] != batch:
        raise ShapeError(f"statics must be (batch, S), got {statics.shape}")
    has_static_params = any(name.startswith("static.") for name in params)
    if (n_static > 0) != has_static_params:
        raise ShapeError("static features do not match the model's static branch")

    # hour-major layout [fwd_0, bwd_0, fwd_1, ...], the row order of the first trunk weight
    gru_width = WINDOW_LEN * sum(params[f"gru_{d}.U_h"].dims[0] for d in ("fwd", "bwd"))
    n_layers = len(config.static_widths) if n_static > 0 else 0
    width = gru_width + (params[f"static.{n_layers - 1}.W"].dims[1] if n_layers else 0)
    expected = rep_width(config, n_static)
    if width != expected:
        raise ShapeError(f"representation width {width} != expected {expected}")

    gru = gru_layer(Tensor(temporal.transpose(1, 0, 2)), params, block_width=width)
    parents = (gru,)
    if n_layers:
        s = Tensor(statics)
        for i in range(n_layers):
            s = ng.affine(s, params[f"static.{i}.W"], params[f"static.{i}.b"])
            if i < n_layers - 1:  # final static unit stays linear
                s = ng.relu(s)
        gru.data[:, gru_width:] = s.data
        parents += (s,)
    norms = ng.normalize_rows_(gru.data) if config.normalize_representation else None
    # the states and the static outputs were checked, and unit rows are finite
    out = Tensor(gru.data, checked=True)

    def _bw():
        g = out.grad
        if norms is not None:
            # d(x/|x|) projects the upstream gradient onto the tangent of the sphere
            y = out.data
            g = (g - y * (g * y).sum(axis=1, keepdims=True)) / norms
        # the GRU's backward reads the states' columns only
        for parent, cols in zip(parents, (slice(None), slice(gru_width, None))):
            if parent.requires_grad:
                ng.accumulate(parent, g[:, cols])

    return ng.attach(out, parents, _bw)


def forward_batch(
    temporal: Array, statics: Array, params: ParamSet, config: ModelConfig
) -> tuple[Tensor, Tensor]:
    """Batched forward pass on raw arrays: ``represent``, then the trunk and
    the head. Returns (logits, representation) tensors."""
    rep = represent(temporal, statics, params, config)
    x = rep
    for i in range(len(config.trunk_widths)):
        x = ng.relu(ng.affine(x, params[f"trunk.{i}.W"], params[f"trunk.{i}.b"]))
    logits = ng.affine(x, params["head.W"], params["head.b"])
    return logits, rep


def forward_chunks(forward, temporal: Array, statics: Array, params: ParamSet, config: ModelConfig):
    """Yield ``forward(...)`` (``forward_batch`` or ``represent``) on each run
    of FORWARD_CHUNK rows in order, without recording a tape: every
    forward-only pass runs here, so equal chunks give bit-equal outputs."""
    params = ng.detach(params)
    for lo in range(0, temporal.shape[0], FORWARD_CHUNK):
        rows = slice(lo, lo + FORWARD_CHUNK)
        yield forward(temporal[rows], statics[rows], params, config)


def stack_rows(blocks, rows: int, width: int) -> Array:
    """The (rows, width) stack of the row blocks ``blocks``, in order. A
    single block that holds every row is the stack as it is; more are
    written into one array allocated at the first of them, not gathered and
    concatenated."""
    out, lo = None, 0
    for block in blocks:
        if out is None and len(block) == rows:
            out = block
        else:
            if out is None:
                out = np.empty((rows, width))
            out[lo : lo + len(block)] = block
        lo += len(block)
    return np.empty((0, width)) if out is None else out


def rep_width_for(statics: Array, config: ModelConfig) -> int:
    """``rep_width`` for instances with these statics."""
    return rep_width(config, statics.shape[1] if np.ndim(statics) == 2 else 0)  # represent rejects other dims


def predict_proba(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Array:
    """Class probabilities for a stack of instances, (rows, classes)."""
    chunks = forward_chunks(forward_batch, temporal, statics, params, config)
    probs = (ng.softmax(logits.data) for logits, _ in chunks)
    return stack_rows(probs, len(temporal), params["head.W"].dims[1])


def compute_representations(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Array:
    """Representations for a stack of instances, (rows, ``rep_width``),
    without running the trunk and head."""
    chunks = forward_chunks(represent, temporal, statics, params, config)
    return stack_rows((rep.data for rep in chunks), len(temporal), rep_width_for(statics, config))


# ---------------------------------------------------------------------------
# Parameter-space geometry
# ---------------------------------------------------------------------------


def replace_head(params: ParamSet, seed: int) -> ParamSet:
    """Fresh ``OUTCOME_CLASSES``-way head, every other tensor carried over
    bit-exactly."""
    in_width = params["head.W"].dims[0]
    head = _glorot_params([("head.W", (in_width, OUTCOME_CLASSES)), ("head.b", (OUTCOME_CLASSES,))], seed)
    return {name: head.get(name, p) for name, p in params.items()}


def _differences(a: ParamSet, b: ParamSet) -> tuple[dict[str, Array], float]:
    """a - b for every non-head tensor, and the Frobenius norm of them all,
    once both sets are checked to share names and dims."""
    if set(a) != set(b):
        raise InputError("parameter sets have mismatched keys")
    diffs = {}
    for name in a:
        if a[name].dims != b[name].dims:
            raise ShapeError(f"dims mismatch for {name!r}: {a[name].dims} vs {b[name].dims}")
        if not is_head(name):
            diffs[name] = a[name].data - b[name].data
    return diffs, float(np.sqrt(sum(float(np.sum(d * d)) for d in diffs.values())))


def frobenius_distance(a: ParamSet, b: ParamSet) -> float:
    """Euclidean distance between the non-head tensors of two parameter sets
    viewed as one long vector; a head swapped in by ``replace_head`` never
    existed at the reference."""
    return _differences(a, b)[1]


def project_to_ball(theta: ParamSet, theta0: ParamSet, gamma: float) -> ParamSet:
    """Radially rescale theta's non-head tensors toward theta0 so their
    distance is <= gamma; theta itself when it is already inside."""
    if gamma <= 0.0:
        raise InputError(f"gamma must be positive, got {gamma}")
    diffs, distance = _differences(theta, theta0)
    if distance <= gamma:
        return theta
    scale = gamma / distance
    return {
        name: Tensor(theta0[name].data + diffs[name] * scale, requires_grad=True) if name in diffs else p
        for name, p in theta.items()
    }
