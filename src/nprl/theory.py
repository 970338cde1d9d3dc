"""Executable checks of the representation-geometry guarantees.

Two statements are made checkable:

1. Pairwise preservation: after fine-tuning within a Frobenius ball of radius
   gamma <= 1/(8L) around the pretrained parameters, for all pairs
   ||rep*(x_i) - rep*(x_j)||^2 >= ||rep0(x_i) - rep0(x_j)||^2
   - ||rep0(x_i) - rep0(x_j)|| / 2 - 1/32.
2. Mean inner-product bound: with unit-norm representations and near-zero
   mean pairwise inner product after pretraining, the fine-tuned mean pairwise
   inner product stays below 0.37 (the exact constant is sqrt(2)/4 + 1/64).

The Lipschitz constant is estimated in parameter space (representation shift
per unit of parameter perturbation), which is the quantity the radius bound
actually controls; the statement's wording in terms of the inputs is noted in
every report. The estimate is an empirical maximum over random probes, hence
a lower bound on the true constant, so the radius gets a safety divisor.

The protocol makes one forward-only representation pass per parameter set:
the pretrained theta0, each Lipschitz probe, and the fine-tuned theta*. The
theta0 pass is the identification pass (``train.identify``) that also gives
the reported pretraining accuracy: the fresh outcome head carries every other
tensor over unchanged, and the representation reads no head. Both checks and
the reported mean |cosine| read only inner products, from one Gram matrix per
parameter set (``gram``): a squared distance is G[i,i] + G[j,j] - 2 G[i,j].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import artifacts as A
from . import model as M
from . import train as T
from .errors import ConfigError, DegenerateError, FieldError, InputError, NumericError
from .model import FeatureSchema, ModelConfig
from .numgrad import Array, ParamSet, row_norms
from .util import derive_rng, derive_seed

LIPSCHITZ_NOTE = (
    "lipschitz estimated in parameter space (representation shift per unit of "
    "non-head parameter perturbation); the input-space wording of the bound is "
    "not what the radius controls"
)


def corollary_constant() -> float:
    """Exact inner-product bound before rounding: sqrt(2)/4 + 1/64."""
    return float(np.sqrt(2.0) / 4.0 + 1.0 / 64.0)


COROLLARY_PRINTED_BOUND = 0.37


@dataclass
class TheoremCheckReport:
    l_hat: float
    gamma: float
    pairs_checked: int
    violations: int
    worst_margin: float
    m0: float  # pretrain mean pairwise inner product
    m_star: float  # finetuned mean pairwise inner product
    bound_ok: bool
    bound_constant: float
    corollary_tol: float
    pretrain_accuracy: float
    pretrain_mean_abs_cosine: float
    note: str = LIPSCHITZ_NOTE


def gram(reps: np.ndarray) -> np.ndarray:
    """``reps @ reps.T``. The protocol holds this (n, n) matrix in place of the
    (n, width) rows: smaller while n < width (2.0 MB against 18.5 MB for 500
    rows of width 4,624), but the two Grams outweigh the rows once n > width."""
    return reps @ reps.T


def mean_abs_cosine(gram: np.ndarray) -> float:
    """Mean absolute pairwise cosine between the rows behind ``gram``; a zero
    row has cosine 0 with every other row."""
    norms = np.sqrt(np.diag(gram))
    norms = np.where(norms > 0.0, norms, 1.0)
    cosines = gram / np.outer(norms, norms)
    return float(np.abs(cosines[~np.eye(len(gram), dtype=bool)]).mean())


def perturb(params: ParamSet, delta: float, rng: np.random.Generator) -> ParamSet:
    """``params`` moved by Frobenius norm ``delta`` along one standard normal
    direction over the non-head tensors, drawn block by block in the
    per-gate order of ``model.draw_params``."""
    squares = []

    def draw(dims: tuple[int, ...]) -> Array:
        block = rng.standard_normal(dims)
        squares.append(float(np.sum(block * block)))
        return block

    direction = M.draw_params([(n, p.dims) for n, p in params.items() if not M.is_head(n)], draw)
    scale = delta / np.sqrt(sum(squares))
    return {
        name: M.Tensor(p.data + scale * direction[name], requires_grad=True) if name in direction else p
        for name, p in params.items()
    }


def estimate_lipschitz(
    params: ParamSet,
    temporal: Array,
    statics: Array,
    base: Array,
    n_probes: int,
    delta: float,
    seed: int,
    config: ModelConfig,
) -> float:
    """L_hat: max over probes of (max over instances of ||rep shift|| / delta).

    ``base`` holds the unperturbed representations of the rows of
    ``temporal`` and ``statics`` under ``params``, as the caller already has
    them. Each probe draws one random direction over the non-head tensors,
    scaled to Frobenius norm delta. Probe directions depend only on (seed,
    probe index, tensor dims), so the estimate never decreases when instances
    or probes are added.
    """
    if delta <= 0.0:
        raise InputError(f"delta must be positive, got {delta}")
    if n_probes < 1:
        raise InputError(f"n_probes must be at least 1, got {n_probes}")
    if not len(temporal):
        raise InputError("need at least one instance to probe")
    if len(base) != len(temporal):
        raise InputError(f"{len(base)} unperturbed representations for {len(temporal)} instances")
    l_hat = 0.0
    for probe in range(n_probes):
        perturbed = perturb(params, delta, derive_rng(seed, "probe", probe))
        try:
            shifted = M.compute_representations(temporal, statics, perturbed, config)
        except NumericError as exc:
            raise NumericError(f"probe scale {delta} drove representations non-finite") from exc
        shifted -= base
        shift = row_norms(shifted)
        del perturbed, shifted  # released before the next probe's pass
        l_hat = max(l_hat, float(shift.max() / delta))
    if l_hat == 0.0:
        raise DegenerateError("representations did not respond to parameter perturbation")
    return l_hat


def _sample_pairs(n: int, n_pairs: int | None, seed: int) -> np.ndarray:
    """Pairs (i, j), i != j: full enumeration when small, else a seeded sample."""
    all_pairs = n * (n - 1) // 2
    if n_pairs is None or (n < 500 and all_pairs <= n_pairs):
        return np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
    rng = derive_rng(seed, "pairs")
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)
    return np.stack([i, j], axis=1)


def _check_gram_pair(gram0: np.ndarray, gram_star: np.ndarray) -> None:
    """Both checks compare the same rows before and after fine-tuning."""
    if np.ndim(gram0) != 2 or np.shape(gram0) != np.shape(gram_star) or len(gram0) != np.shape(gram0)[1]:
        raise InputError(
            f"Gram matrices must be two square arrays of one shape, "
            f"got {np.shape(gram0)} and {np.shape(gram_star)}"
        )
    if len(gram0) < 2:
        raise InputError(f"need at least 2 representations to form a pair, got {len(gram0)}")


def check_theorem1(gram0: np.ndarray, gram_star: np.ndarray, n_pairs: int | None, seed: int) -> tuple[int, int, float]:
    """Count violations of the pairwise-distance preservation inequality
    between the rows of the pretrained and the fine-tuned representations,
    given as their Gram matrices; the rows need not be unit-norm.

    Returns (pairs_checked, violations, worst_margin) where margin is
    lhs - rhs; the inequality is tested exactly as stated, with no tolerance.
    """
    _check_gram_pair(gram0, gram_star)
    i, j = _sample_pairs(len(gram0), n_pairs, seed).T
    # squared distances from inner products, clamped at 0 against rounding
    d0_sq, d_star_sq = (np.maximum(g[i, i] + g[j, j] - 2.0 * g[i, j], 0.0) for g in (gram0, gram_star))
    rhs = d0_sq - np.sqrt(d0_sq) / 2.0 - 1.0 / 32.0
    margins = d_star_sq - rhs
    violations = int((margins < 0.0).sum())
    return len(margins), violations, float(margins.min())


def check_corollary1(gram0: np.ndarray, gram_star: np.ndarray, tol: float) -> tuple[float, float, bool]:
    """Mean pairwise inner products before and after fine-tuning.

    The printed bound assumes the pretrained mean is exactly zero; finite
    pretraining only approximates that, so the measured |m0| is added to the
    budget: satisfied iff m_star <= 0.37 + |m0| + tol.
    """
    _check_gram_pair(gram0, gram_star)
    m0 = _mean_offdiag_inner(gram0)
    m_star = _mean_offdiag_inner(gram_star)
    ok = m_star <= COROLLARY_PRINTED_BOUND + abs(m0) + tol
    return m0, m_star, ok


def _mean_offdiag_inner(gram: np.ndarray) -> float:
    if np.abs(np.sqrt(np.diag(gram)) - 1.0).max() > 1e-6:
        raise ConfigError(
            "the inner-product bound requires unit-norm representations (normalize_representation)"
        )
    n = len(gram)
    return float((gram.sum() - np.trace(gram)) / (n * (n - 1)))


@dataclass(frozen=True)
class TheoryConfig:
    """The ``[theory]`` section; its model and its two schedules read the
    section's own keys, the schedules' under ``pretrain_`` and ``finetune_``."""

    model: ModelConfig
    pretrain: T.Schedule
    finetune: T.Schedule  # projected; the protocol sets the radius
    n_probes: int
    probe_scale: float
    safety: float
    n_pairs: int
    corollary_tol: float
    max_instances: int  # `nprl theory` runs on a seeded subset of at most this many

    def __post_init__(self):
        if not self.model.normalize_representation:
            raise FieldError("model", "theory runs need normalize_representation=True")
        if self.max_instances < 2:
            raise FieldError("max_instances", f"must be >= 2, got {self.max_instances}")
        for name in ("n_probes", "n_pairs"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"must be >= 1, got {getattr(self, name)}")
        if not self.probe_scale > 0.0:
            raise FieldError("probe_scale", f"must be positive, got {self.probe_scale}")
        if not self.safety >= 1.0:
            raise FieldError("safety", f"must be >= 1, got {self.safety}")
        if not self.corollary_tol >= 0.0:
            raise FieldError("corollary_tol", f"must be >= 0, got {self.corollary_tol}")


def theory_protocol(
    temporal: Array, statics: Array, labels: Array, schema: FeatureSchema, config: TheoryConfig, seed: int
) -> TheoremCheckReport:
    """Pretrain, estimate the constant, pick the radius, fine-tune inside the
    ball, then run both checks on theta0's and theta*'s Gram matrices.

    The radius is gamma = 1 / (8 * L_hat * safety); the safety divisor covers
    the fact that the probe-based estimate is a lower bound on the true
    constant.
    """
    pretrain_seed = derive_seed(seed, "pretrain")
    theta0, _ = T.nprl_pretrain(temporal, statics, config.model, schema, config.pretrain, pretrain_seed)
    # one pass at theta0 gives the identification accuracy, the Lipschitz
    # probes' base and the Gram matrix both checks start from
    _, pretrain_accuracy, reps0 = T.identify(temporal, statics, theta0, config.model)
    gram0 = gram(reps0)
    # the outcome head replaces the n-way one before the probes, which read
    # no head, so the n-way head is not held through the passes that follow
    theta0 = M.replace_head(theta0, derive_seed(seed, "head"))
    l_hat = estimate_lipschitz(
        theta0,
        temporal,
        statics,
        reps0,
        config.n_probes,
        config.probe_scale,
        derive_seed(seed, "probes"),
        config.model,
    )
    del reps0  # gram0 stands in for the rows from here on
    gamma = 1.0 / (8.0 * l_hat * config.safety)
    # no penalty, plain loss and every row: the ball alone keeps theta* near theta0
    projected = T.FinetuneConfig(
        **asdict(config.finetune), mode="projected", lam=0.0, gamma=gamma, loss="plain", resample=False
    )
    theta_star, _ = T.finetune(
        temporal, statics, labels, theta0, projected, config.model, derive_seed(seed, "finetune")
    )
    gram_star = gram(M.compute_representations(temporal, statics, theta_star, config.model))
    pairs_checked, violations, worst_margin = check_theorem1(
        gram0, gram_star, config.n_pairs, derive_seed(seed, "pairs")
    )
    m0, m_star, bound_ok = check_corollary1(gram0, gram_star, config.corollary_tol)
    return TheoremCheckReport(
        l_hat=l_hat,
        gamma=gamma,
        pairs_checked=pairs_checked,
        violations=violations,
        worst_margin=worst_margin,
        m0=m0,
        m_star=m_star,
        bound_ok=bound_ok,
        bound_constant=corollary_constant(),
        corollary_tol=config.corollary_tol,
        pretrain_accuracy=pretrain_accuracy,
        pretrain_mean_abs_cosine=mean_abs_cosine(gram0),
    )


def write_theory_report(report: TheoremCheckReport, path, header_comment: str | None = None) -> None:
    items = [
        ("l_hat", report.l_hat),
        ("gamma", report.gamma),
        ("pairs", report.pairs_checked),
        ("violations", report.violations),
        ("worst_margin", report.worst_margin),
        ("m0", report.m0),
        ("m_star", report.m_star),
        ("bound_ok", int(report.bound_ok)),
        ("bound_constant", report.bound_constant),
        ("corollary_tol", report.corollary_tol),
        ("pretrain_accuracy", report.pretrain_accuracy),
        ("pretrain_mean_abs_cosine", report.pretrain_mean_abs_cosine),
    ]
    A.write_fields(path, [(k, repr(v)) for k, v in items], header_comment, note=report.note)


def read_theory_report(path) -> dict[str, str]:
    return A.read_fields(path)
