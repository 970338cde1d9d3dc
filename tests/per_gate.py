"""Per-gate views of the fused GRU tensors, written apart from ``nprl.model``
so that tests can hold it to a layout with one tensor per gate.

Each direction stores W_zrh = [W_z | W_r | W_h], U_zr = [U_z | U_r], U_h and
b_zrh = [b_z | b_r | b_h]. The per-gate order is, per direction, gate by
gate (z, r, h), W then U then b, with every other tensor as it is.
"""

import numpy as np

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


def fuse(arrays):
    """The fused arrays, in layout order, of a {per-gate name: array} map."""
    out = {}
    for name, a in arrays.items():
        prefix, _, kind = name.rpartition(".")
        if kind == "W_z":
            gate = {k: np.asarray(arrays[f"{prefix}.{k}"], dtype=np.float64) for k in
                    ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")}
            out[f"{prefix}.W_zrh"] = np.concatenate([gate["W_z"], gate["W_r"], gate["W_h"]], axis=1)
            out[f"{prefix}.U_zr"] = np.concatenate([gate["U_z"], gate["U_r"]], axis=1)
            out[f"{prefix}.U_h"] = gate["U_h"]
            out[f"{prefix}.b_zrh"] = np.concatenate([gate["b_z"], gate["b_r"], gate["b_h"]])
        elif not name.startswith("gru_"):
            out[name] = a
    return out
