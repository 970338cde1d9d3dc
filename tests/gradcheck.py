"""Finite-difference gradient checking for the tape ops of ``nprl.numgrad``,
and ``total_sum``, the scalar reduction the checked functions end in."""

import numpy as np

from nprl import numgrad as ng
from nprl.errors import InputError, NumericError
from nprl.numgrad import ParamSet, Tensor


def total_sum(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def _bw():
        ng.accumulate(x, np.broadcast_to(out.grad, x.dims).copy())

    return ng.attach(out, (x,), _bw)


def grad_check(
    fn,
    params: ParamSet,
    step: float = 1e-3,
    max_coords_per_tensor: int = 16,
    seed: int = 0,
) -> float:
    """Compare autodiff gradients of ``fn`` against central finite differences.

    ``fn`` maps a ParamSet to a scalar Tensor built from the numgrad ops. Every
    coordinate is checked for small tensors; larger tensors get a seeded
    sample of ``max_coords_per_tensor`` coordinates. Returns the maximum of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if step <= 0.0:
        raise InputError(f"step must be positive, got {step}")
    ng.reset_grads(params)
    out = fn(params)
    if not np.isfinite(out.item()):
        raise NumericError("function value is not finite")
    out.backward()
    analytic = {name: g.copy() for name, g in ng.collect_grads(params).items()}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        if size <= max_coords_per_tensor:
            flat_indices = np.arange(size)
        else:
            flat_indices = rng.choice(size, size=max_coords_per_tensor, replace=False)
        flat = p.data.reshape(-1)
        for idx in flat_indices:
            for sign in (+1.0, -1.0):
                bumped = flat.copy()
                bumped[idx] += sign * step
                probe = dict(params)
                probe[name] = Tensor(bumped.reshape(p.dims), requires_grad=True)
                value = fn(probe).item()
                if not np.isfinite(value):
                    raise NumericError("function value is not finite at a probe point")
                if sign > 0:
                    f_plus = value
                else:
                    f_minus = value
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
