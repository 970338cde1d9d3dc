"""Multi-modal recurrent classifier: bidirectional GRU over the 9-hour night
window, a small dense branch for static features, concatenation into a single
profile representation, and a swappable softmax head.

Also owns everything that treats the parameters as a geometric object:
Frobenius distances, projection onto a ball around a reference parameter set,
and the binary checkpoint format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import artifacts as A
from . import numgrad as ng
from .errors import ConfigError, FieldError, FormatError, InputError, NumericError, ShapeError
from .numgrad import Array, ParamSet, Tensor

WINDOW_LEN = 9
FORWARD_CHUNK = 512  # rows per forward-only pass; equal chunks give bit-equal outputs


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered names of the temporal and static inputs one instance carries."""

    temporal_names: tuple[str, ...]
    static_names: tuple[str, ...] = ()
    window_len: int = WINDOW_LEN

    def __post_init__(self):
        if self.window_len != WINDOW_LEN:
            raise ConfigError(f"window_len must be {WINDOW_LEN}, got {self.window_len}")
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
    gru_hidden: int = 256
    static_widths: tuple[int, ...] = (16, 8, 1)
    trunk_widths: tuple[int, ...] = (64,)
    head_classes: int = 2
    normalize_representation: bool = False

    def __post_init__(self):
        if self.gru_hidden < 1:
            raise FieldError("gru_hidden", f"must be >= 1, got {self.gru_hidden}")
        if self.head_classes < 2:
            raise FieldError("head_classes", f"must be >= 2, got {self.head_classes}")
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


def param_layout(config: ModelConfig, schema: FeatureSchema) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, dims) pairs for every parameter tensor of the model."""
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
    layout += [("head.W", (prev, config.head_classes)), ("head.b", (config.head_classes,))]
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


def init_params(config: ModelConfig, schema: FeatureSchema, seed: int) -> ParamSet:
    """Every tensor of the model: Glorot-uniform weights, zero biases."""
    return _glorot_params(param_layout(config, schema), seed)


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


def _check_finite(a: Array, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite {what} pre-activation")


def gru_layer(x: Tensor, params: ParamSet, direction: str, h0: Tensor | None = None) -> Tensor:
    """One GRU direction over a time-major (steps, batch, T) input, as a single
    tape node; returns the hidden states batch-major, (batch, steps, H).

        [z | r] = sigmoid(x W_zrh[:, :2H] + h U_zr + b_zrh[:2H])
        c = tanh(x W_zrh[:, 2H:] + (r * h) U_h + b_zrh[2H:])
        h' = (1 - z) * h + z * c

    The "bwd" direction runs from the last step to the first; both start at
    ``h0`` (zeros when omitted). The input GEMM for all steps is hoisted out of
    the recurrence; each step runs one GEMM against U_zr and one against U_h.
    When a parent is on the tape the gates are cached, backward runs BPTT in
    one closure, and the four weight gradients are formed whole after the
    loop, one GEMM or sum each over all steps.
    """
    prefix = f"gru_{direction}"
    weights = [params[f"{prefix}.{kind}"] for kind in GRU_TENSORS]
    w, u_zr, u_h, b = (p.data for p in weights)
    steps, batch, t_features = x.dims
    hidden = u_h.shape[0]
    if w.shape != (t_features, 3 * hidden):
        raise ShapeError(f"{prefix} expects {w.shape[0]} input features, got {t_features}")
    b_zr, b_c = b[: 2 * hidden], b[2 * hidden :]
    proj = (x.data.reshape(steps * batch, t_features) @ w).reshape(steps, batch, 3 * hidden)
    parents = (x, *weights) + ((h0,) if h0 is not None else ())
    taped = any(p.requires_grad for p in parents)

    # states[t + rev] is the state entering step t and states[t + 1 - rev] the
    # one leaving it, so both the inputs and the outputs are contiguous runs.
    rev = 1 if direction == "bwd" else 0
    order = range(steps - 1, -1, -1) if rev else range(steps)
    states = np.empty((steps + 1, batch, hidden))
    states[steps if rev else 0] = 0.0 if h0 is None else h0.data
    kept = steps if taped else 1  # forward-only passes reuse one slot
    gates = np.empty((kept, batch, 2 * hidden))  # sigmoid outputs [z | r]
    cands = np.empty((kept, batch, hidden))  # tanh candidates
    reset = np.empty((kept, batch, hidden))  # r * h
    for t in order:
        k = t if taped else 0
        h, zr, c, rh = states[t + rev], gates[k], cands[k], reset[k]
        np.matmul(h, u_zr, out=zr)
        zr += proj[t, :, : 2 * hidden]
        zr += b_zr
        _check_finite(zr, f"{prefix} gate")
        _sigmoid_(zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        np.multiply(r, h, out=rh)
        np.matmul(rh, u_h, out=c)
        c += proj[t, :, 2 * hidden :]
        c += b_c
        _check_finite(c, f"{prefix} candidate")
        np.tanh(c, out=c)
        h_new = states[t + 1 - rev]
        np.subtract(1.0, z, out=h_new)
        h_new *= h
        h_new += z * c
    out = Tensor(states[1 - rev : steps + 1 - rev].transpose(1, 0, 2))

    def _bw():
        d_out = out.grad.transpose(1, 0, 2)
        d_proj = np.empty((steps, batch, 3 * hidden))  # pre-activation grads [z | r | c]
        work = np.empty((batch, 2 * hidden))
        dh = np.zeros((batch, hidden))
        for t in reversed(order):
            h, zr, c = states[t + rev], gates[t], cands[t]
            z, r = zr[:, :hidden], zr[:, hidden:]
            d_zr, d_c = d_proj[t, :, : 2 * hidden], d_proj[t, :, 2 * hidden :]
            d_z, d_r = d_zr[:, :hidden], d_zr[:, hidden:]
            dh += d_out[t]
            # through h' = (1 - z) * h + z * c and c = tanh(.)
            np.subtract(c, h, out=d_z)
            d_z *= dh
            tanh_grad = work[:, :hidden]
            np.multiply(c, c, out=tanh_grad)
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            np.multiply(dh, z, out=d_c)
            d_c *= tanh_grad
            d_rh = d_c @ u_h.T
            np.multiply(d_rh, h, out=d_r)
            np.subtract(1.0, zr, out=work)  # sigmoid' = s * (1 - s), both gates
            work *= zr
            d_zr *= work
            # the previous state feeds r * h, the carry term and both gates
            dh_prev = d_rh
            dh_prev *= r
            carry = work[:, :hidden]
            np.subtract(1.0, z, out=carry)
            carry *= dh
            dh_prev += carry
            dh_prev += d_zr @ u_zr.T
            dh = dh_prev
        d_flat = d_proj.reshape(steps * batch, 3 * hidden)
        prev_states = states[rev : steps + rev].reshape(steps * batch, hidden)
        d_w = x.data.reshape(steps * batch, t_features).T @ d_flat
        d_uzr = prev_states.T @ d_flat[:, : 2 * hidden]
        d_uh = reset.reshape(steps * batch, hidden).T @ d_flat[:, 2 * hidden :]
        d_b = d_flat.sum(axis=0)
        for p, g in zip(weights, (d_w, d_uzr, d_uh, d_b)):
            if p.requires_grad:
                ng.accumulate(p, g)
        if x.requires_grad:
            ng.accumulate(x, (d_flat @ w.T).reshape(x.dims))
        if h0 is not None and h0.requires_grad:
            ng.accumulate(h0, dh)

    return ng.attach(out, parents, _bw)


def _bigru(x: Tensor, params: ParamSet) -> Tensor:
    """Per-hour [forward ; backward] states, (batch, steps, 2H), from a
    time-major input and zero initial states."""
    return ng.concat_cols([gru_layer(x, params, "fwd"), gru_layer(x, params, "bwd")])


def represent(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Tensor:
    """Batched representation of raw arrays, reading no trunk or head tensor.

    temporal has dims (batch, 9, T) and statics (batch, S) with S possibly 0.
    The representation is the concatenation feeding the trunk, normalized to
    unit rows when the config says so.
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

    # hour-major layout [fwd_0, bwd_0, fwd_1, ...], fixed for checkpoints
    per_hour = _bigru(Tensor(temporal.transpose(1, 0, 2)), params)
    rep = ng.reshape(per_hour, (batch, WINDOW_LEN * per_hour.dims[2]))
    if n_static > 0:
        s = Tensor(statics)
        n_layers = len(config.static_widths)
        for i in range(n_layers):
            s = ng.affine(s, params[f"static.{i}.W"], params[f"static.{i}.b"])
            if i < n_layers - 1:  # final static unit stays linear
                s = ng.relu(s)
        rep = ng.concat_cols([rep, s])
    expected = rep_width(config, n_static)
    if rep.dims[1] != expected:
        raise ShapeError(f"representation width {rep.dims[1]} != expected {expected}")
    if config.normalize_representation:
        rep = ng.l2_normalize_rows(rep)
    return rep


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


def softmax(logits: Array) -> Array:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Array:
    """Class probabilities for a stack of instances, evaluated in batches
    without recording a tape."""
    params = ng.detach(params)
    outs = []
    for lo in range(0, temporal.shape[0], FORWARD_CHUNK):
        logits, _ = forward_batch(
            temporal[lo : lo + FORWARD_CHUNK], statics[lo : lo + FORWARD_CHUNK], params, config
        )
        outs.append(softmax(logits.data))
    return np.concatenate(outs, axis=0)


def compute_representations(temporal: Array, statics: Array, params: ParamSet, config: ModelConfig) -> Array:
    """Representations for a stack of instances, evaluated in batches without
    recording a tape or running the trunk and head."""
    params = ng.detach(params)
    outs = []
    for lo in range(0, temporal.shape[0], FORWARD_CHUNK):
        rep = represent(temporal[lo : lo + FORWARD_CHUNK], statics[lo : lo + FORWARD_CHUNK], params, config)
        outs.append(rep.data)
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# Parameter-space geometry
# ---------------------------------------------------------------------------


def replace_head(params: ParamSet, new_classes: int, seed: int) -> ParamSet:
    """Fresh classification head, every other tensor carried over bit-exactly."""
    if new_classes < 2:
        raise InputError(f"head needs at least 2 classes, got {new_classes}")
    in_width = params["head.W"].dims[0]
    head = _glorot_params([("head.W", (in_width, new_classes)), ("head.b", (new_classes,))], seed)
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


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"NPRL2"
_MAX_ELEMENTS = 1 << 32  # guards dims fields against absurd payloads


def save_checkpoint(params: ParamSet, path) -> None:
    """Binary format: magic, u32 tensor count, then per tensor
    u32 name length, name bytes, u32 rank, u32 dims[], float64-LE payload."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name, p in params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.dims))
        chunks.append(p.data.astype("<f8").tobytes())
    with A.atomic_open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> ParamSet:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    offset = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"truncated checkpoint {path}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    (count,) = struct.unpack("<I", take(4))
    params: ParamSet = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name is not UTF-8 in {path}") from None
        if name in params:
            raise FormatError(f"duplicate tensor {name!r} in {path}")
        (rank,) = struct.unpack("<I", take(4))
        if rank > 8:
            raise FormatError(f"implausible tensor rank {rank} in {path}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n_elem = 1
        for d in dims:
            n_elem *= d
        if n_elem > _MAX_ELEMENTS:
            raise FormatError(f"tensor dims overflow in {path}: {dims}")
        payload = take(8 * n_elem)
        data = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        try:
            params[name] = Tensor(data, requires_grad=True)
        except NumericError:
            raise FormatError(f"non-finite values in tensor {name!r} in {path}") from None
    if offset != len(blob):
        raise FormatError(f"trailing bytes in checkpoint {path}")
    return params
