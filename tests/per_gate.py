"""Per-gate views of the fused GRU tensors, written apart from ``nprl.model``
so that tests can hold it to a layout with one tensor per gate.

Each direction stores W_zrh = [W_z | W_r | W_h], U_zr = [U_z | U_r], U_h and
b_zrh = [b_z | b_r | b_h]. The per-gate order is, per direction, gate by
gate (z, r, h), W then U then b, with every other tensor as it is.
"""

import numpy as np

from nprl import numgrad as ng

GATES = ("z", "r", "h")


def per_gate(params):
    """(per-gate name, array) of every tensor of a fused parameter set, in the
    per-gate order; each gate block is a column slice of its fused tensor."""
    out = []
    for name, p in params.items():
        prefix, _, kind = name.rpartition(".")
        if kind == "W_zrh":
            u_zr, u_h, b = (params[f"{prefix}.{k}"].data for k in ("U_zr", "U_h", "b_zrh"))
            h = u_h.shape[0]
            for g, gate in enumerate(GATES):
                cols = slice(g * h, (g + 1) * h)
                out.append((f"{prefix}.W_{gate}", p.data[:, cols]))
                out.append((f"{prefix}.U_{gate}", u_zr[:, cols] if gate != "h" else u_h))
                out.append((f"{prefix}.b_{gate}", b[cols]))
        elif not name.startswith("gru_"):
            out.append((name, p.data))
    return out


def _fuse(blocks, cols):
    """The fused tensors, in layout order, of a {per-gate name: block} map;
    ``cols`` joins a list of blocks along their last axis."""
    out = {}
    for name, block in blocks.items():
        prefix, _, kind = name.rpartition(".")
        if kind == "W_z":
            w, u, b = ([blocks[f"{prefix}.{kind}_{gate}"] for gate in GATES] for kind in "WUb")
            out[f"{prefix}.W_zrh"] = cols(w)
            out[f"{prefix}.U_zr"] = cols(u[:2])
            out[f"{prefix}.U_h"] = u[2]
            out[f"{prefix}.b_zrh"] = cols(b)
        elif not name.startswith("gru_"):
            out[name] = block
    return out


def fuse(arrays):
    """The fused arrays of a {per-gate name: array} map."""
    return _fuse(arrays, lambda parts: np.concatenate(parts, axis=-1))


def _tensor_cols(parts):
    """Tensors joined along their last axis, as one tape node."""
    out = ng.Tensor(np.concatenate([p.data for p in parts], axis=-1))

    def _bw():
        lo = 0
        for p in parts:
            if p.requires_grad:
                ng.accumulate(p, out.grad[..., lo : lo + p.dims[-1]])
            lo += p.dims[-1]

    return ng.attach(out, tuple(parts), _bw)


def fuse_tensors(tensors):
    """The fused Tensors of a {per-gate name: Tensor} map, built from
    differentiable ops, so a gradient check of a function of the fused set
    can sample every gate block as a tensor of its own."""
    return _fuse(tensors, _tensor_cols)
