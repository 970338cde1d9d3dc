"""Learning procedures: plain empirical risk minimization, class-balanced
weighting, self-supervised profile pretraining (every training night is its
own class), and fine-tuning that stays near the pretrained parameters either
through a quadratic penalty or through projection onto a Frobenius ball.

All procedures are bit-deterministic given (data, config, seed): each takes
its seed as an argument, and batch order and initialization derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts as A
from . import model as M
from . import numgrad as ng
from .errors import FieldError, InputError
from .model import FeatureSchema, ModelConfig
from .numgrad import Array, ParamSet
from .util import derive_rng


@dataclass(frozen=True)
class Schedule:
    """The epochs, batch size and learning rate of one training run: the
    ``[pretrain]`` and ``[baseline]`` config sections, and the base of
    :class:`FinetuneConfig`."""

    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise FieldError("learning_rate", f"must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class FinetuneConfig(Schedule):
    """The ``[finetune]`` config section: a schedule that stays near theta0."""

    mode: str  # "regularized" or "projected"
    lam: float  # penalty coefficient, regularized mode
    gamma: float  # ball radius, projected mode
    loss: str  # "plain" or "class_balanced"; the harness picks the weights
    resample: bool  # consumed by the harness, not by finetune itself

    def __post_init__(self):
        if self.mode not in ("regularized", "projected"):
            raise FieldError("mode", f"must be regularized or projected, got {self.mode!r}")
        if self.loss not in ("plain", "class_balanced"):
            raise FieldError("loss", f"must be plain or class_balanced, got {self.loss!r}")
        if not self.lam >= 0.0:
            raise FieldError("lam", f"must be >= 0, got {self.lam}")
        if not self.gamma >= 0.0:
            raise FieldError("gamma", f"must be >= 0, got {self.gamma}")
        if self.mode == "projected" and self.gamma == 0.0:
            raise FieldError("gamma", "must be > 0 in projected mode, got 0.0")
        super().__post_init__()


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    frob_dist: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        rows = ([row.epoch, repr(row.loss), repr(row.accuracy), repr(row.frob_dist)] for row in self.epochs)
        A.write_table(path, ["epoch", "loss", "acc", "frob_dist"], rows, header_comment)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _loss_and_grads(batch, params, config, class_weights):
    """Mean (optionally class-weighted) cross-entropy over one batch of
    (temporal, statics, labels), the gradients of every parameter, and the
    number of correct predictions. The gradients are fresh arrays, except
    inside ``numgrad.gradient_buffers``, where they are the parameters'
    buffers, which the next call overwrites."""
    temporal, statics, labels = batch
    if temporal.shape[0] == 0:
        raise InputError("empty batch")
    ng.reset_grads(params)
    logits, _ = M.forward_batch(temporal, statics, params, config)
    out = ng.cross_entropy(logits, labels, class_weights)
    predictions = logits.data.argmax(axis=1)
    loss = out.item()
    out.backward()
    return loss, ng.collect_grads(params), int((predictions == labels).sum())


def class_balanced_weights(labels: Array, scheme: str, beta: float | None = None) -> Array:
    """Per-class loss weights for the two classes of a 0/1 label array.

    inverse_frequency: w_c = n / (C * n_c).
    effective_number: w_c proportional to (1 - beta) / (1 - beta^{n_c}),
    normalized so that sum_c w_c * n_c = n.
    """
    n = len(labels)
    n_pos = int((labels == 1).sum())
    counts = np.array([n - n_pos, n_pos], dtype=np.float64)
    if np.any(counts <= 0):
        raise InputError("both classes must be non-empty")
    if scheme == "inverse_frequency":
        return n / (len(counts) * counts)
    if scheme == "effective_number":
        if beta is None or not 0.0 <= beta < 1.0:
            raise InputError(f"effective_number needs beta in [0, 1), got {beta}")
        raw = (1.0 - beta) / (1.0 - np.power(beta, counts))
        return raw * n / float(raw @ counts)
    raise InputError(f"unknown weighting scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Shared training loop
# ---------------------------------------------------------------------------


def _train(
    temporal: Array,
    statics: Array,
    labels: Array,
    params: ParamSet,
    config: ModelConfig,
    schedule: Schedule,
    seed: int,
    class_weights: Array | None = None,
    theta0: ParamSet | None = None,
    lam: float = 0.0,
    gamma: float | None = None,
) -> tuple[ParamSet, TrainLog]:
    """Mini-batch Adam over the full objective, batches shuffled per epoch
    from ``seed``.

    With ``theta0`` set, either a quadratic pull-back of strength ``lam`` is
    added analytically to the non-head gradients, or (``gamma`` set) the
    parameters are projected back onto the ball around theta0 after every step.

    Each parameter keeps one gradient buffer while the loop runs (see
    ``numgrad.gradient_buffers``), and a projection is copied into the
    tensors of ``params``, so after the first step a step allocates no
    parameter-sized array. The parameters come back with no gradient.
    """
    # adam_step writes ``params`` in place, so the caller hands over a set
    # it owns. frob_dist is measured from theta0, or else from a copy of the
    # starting non-head values; the head is never compared, so the reference
    # holds the live head tensors rather than a copy of them
    reference = theta0
    if reference is None:
        reference = {
            name: p if M.is_head(name) else ng.Tensor(p.data.copy(), checked=True) for name, p in params.items()
        }
    state = ng.init_adam(params, schedule.learning_rate)
    log = TrainLog()
    n = temporal.shape[0]
    batch_size = schedule.batch_size
    with ng.gradient_buffers(params):
        for epoch in range(1, schedule.epochs + 1):
            order = derive_rng(seed, "epoch", epoch).permutation(n)
            epoch_loss = 0.0
            epoch_correct = 0
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                batch = (temporal[idx], statics[idx], labels[idx])
                loss, grads, correct = _loss_and_grads(batch, params, config, class_weights)
                if theta0 is not None and lam > 0.0:
                    for name, p in params.items():
                        if not M.is_head(name):
                            grads[name] = grads[name] + lam * (p.data - theta0[name].data)
                ng.adam_step(params, grads, state)
                del grads  # the penalized copies go before the next forward pass
                if theta0 is not None and gamma is not None:
                    for name, p in M.project_to_ball(params, theta0, gamma).items():
                        if p is not params[name]:
                            np.copyto(params[name].data, p.data)
                epoch_loss += loss * len(idx)
                epoch_correct += correct
            log.epochs.append(
                EpochStats(
                    epoch=epoch,
                    loss=epoch_loss / n,
                    accuracy=epoch_correct / n,
                    frob_dist=M.frobenius_distance(params, reference),
                )
            )
    return params, log


# ---------------------------------------------------------------------------
# Public procedures
# ---------------------------------------------------------------------------


def nprl_pretrain(
    temporal: Array,
    statics: Array,
    model_config: ModelConfig,
    schema: FeatureSchema,
    schedule: Schedule,
    seed: int,
) -> tuple[ParamSet, TrainLog]:
    """Instance-discrimination pretraining: an n-way head where the target of
    each profile is its own row. It takes no labels, so it cannot see the
    outcome. ``seed`` draws the starting parameters and the batch order.

    The log has one row per training epoch; ``identify`` measures any
    parameter set against the same targets.
    """
    n = len(temporal)
    if n < 2:
        raise InputError("pretraining needs at least two profiles")
    params = M.init_params(model_config, schema, seed=seed, n_classes=n)
    return _train(temporal, statics, np.arange(n, dtype=np.int64), params, model_config, schedule=schedule, seed=seed)


def identify(
    temporal: Array, statics: Array, params: ParamSet, model_config: ModelConfig
) -> tuple[float, float, Array]:
    """Mean identification loss, accuracy and the representations of the
    profiles under n-way parameters, from the chunks of
    ``model.forward_chunks`` (so the representations are bit-equal to
    ``compute_representations``). The head width comes from ``params``."""
    n = len(temporal)
    if params["head.W"].dims[1] != n:
        raise InputError(f"an identification head needs {n} classes, got {params['head.W'].dims[1]}")
    total_loss, correct = 0.0, 0

    def scored_reps():
        nonlocal total_loss, correct
        lo = 0
        for logits, rep in M.forward_chunks(M.forward_batch, temporal, statics, params, model_config):
            labels = np.arange(lo, lo + rep.dims[0], dtype=np.int64)
            loss, _ = ng.softmax_xent(logits.data, labels)
            total_loss += loss * len(labels)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            lo += len(labels)
            yield rep.data

    reps = M.stack_rows(scored_reps(), n, M.rep_width_for(statics, model_config))
    return total_loss / n, correct / n, reps


def finetune(
    temporal: Array,
    statics: Array,
    labels: Array,
    theta0: ParamSet,
    config: FinetuneConfig,
    model_config: ModelConfig,
    seed: int,
    class_weights: Array | None = None,
) -> tuple[ParamSet, TrainLog]:
    """Outcome training started at the pretrained parameters, batches
    shuffled from ``seed``.

    ``theta0`` must already carry the outcome head (see ``replace_head``); the
    head is excluded from both the penalty and the projection since it did not
    exist at pretraining time. In regularized mode the pull-back gradient
    lam * (theta - theta0) is added analytically; in projected mode the
    parameters are projected onto the gamma-ball after every optimizer step.
    """
    if theta0["head.W"].dims[1] != M.OUTCOME_CLASSES:
        raise InputError(f"theta0 head needs {M.OUTCOME_CLASSES} classes; call replace_head first")
    # _train writes the set it trains in place, and theta0 is the caller's
    params = {name: ng.Tensor(p.data.copy(), requires_grad=True) for name, p in theta0.items()}
    return _train(
        temporal,
        statics,
        labels,
        params,
        model_config,
        schedule=config,
        seed=seed,
        class_weights=class_weights,
        theta0=theta0,
        lam=config.lam if config.mode == "regularized" else 0.0,
        gamma=config.gamma if config.mode == "projected" else None,
    )


def train_baseline(
    temporal: Array,
    statics: Array,
    labels: Array,
    model_config: ModelConfig,
    schema: FeatureSchema,
    schedule: Schedule,
    seed: int,
    class_weights: Array | None = None,
) -> tuple[ParamSet, TrainLog]:
    """Randomly initialized ERM training, the comparison arm for everything;
    ``seed`` draws the starting parameters and the batch order."""
    params = M.init_params(model_config, schema, seed=seed)
    return _train(
        temporal, statics, labels, params, model_config, schedule=schedule, seed=seed, class_weights=class_weights
    )
