"""Mini-batch Adam training with linear warmup, gradient clipping, and
entity-F1 early stopping; plus grid search over hyperparameter candidates.

Every training setting is read from the model's own config, the one that
save_model writes into the container: a model is built with its settings,
then fit. A dropout of 0 trains without dropout.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus
from ..errors import NumericError, ValidationError
from ..evaluation import EvalReport
from . import lane
from .model import ModelParams, TrainConfig, batch_nll_and_grads, tag

log = logging.getLogger(__name__)

# Elements per block of adam_step's sweep, which two cores share: per core,
# the block's slices of the parameters, gradient, both moments and that
# core's scratch block (5 x 256 KB) stay in its own L2 cache through the
# update's operations.
ADAM_BLOCK = 32_768


@dataclass
class TrainState:
    """Adam moments and bookkeeping across steps and epochs.

    m and v are flat, laid out as the model's parameter buffer, and hold the
    scaled moments m / (1 - beta1) and v / (1 - beta2) (see adam_step);
    scratch holds adam_step's two work blocks, the caller's and the lane
    worker's.
    """

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0
    best_metric: float = float("-inf")
    best_epoch: int = -1
    epochs_since_improvement: int = 0

    @classmethod
    def for_model(cls, model: ModelParams) -> "TrainState":
        n = model.flat.size
        return cls(m=np.zeros(n), v=np.zeros(n), scratch=np.empty((2, min(n, ADAM_BLOCK))))


@dataclass
class EpochRecord:
    epoch: int
    step: int
    lr: float
    train_loss: float
    val_micro_f1: float

    def to_line(self) -> str:
        return (
            f"epoch={self.epoch} step={self.step} lr={self.lr!r} "
            f"train_loss={self.train_loss!r} val_micro_f1={self.val_micro_f1!r}"
        )


def warmup_lr(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear 0 -> base_lr over warmup_steps, constant afterwards."""
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, step / warmup_steps)


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place so its L2 norm is at most max_norm;
    returns the norm before scaling."""
    total = math.sqrt(float(np.dot(grad, grad)))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return total


def adam_step(model: ModelParams, grad: np.ndarray, state: TrainState) -> float:
    """One Adam update with warmup on the flat parameter buffer, with the
    model config's optimizer settings; returns the learning rate used, and
    leaves `grad` all zero, ready for the next step's gradients.

    Adam's update is theta -= lr * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m / (1 - b1^t) and v_hat = v / (1 - b2^t). In the moments scaled
    by 1 / (1 - b1) and 1 / (1 - b2), M = b1 M + g and V = b2 V + g^2, the
    same update is theta -= alpha * M / (sqrt(V) + eps_t) with
    alpha = lr * c1 / c2, eps_t = eps / c2, c1 = (1 - b1) / (1 - b1^t) and
    c2 = sqrt((1 - b2) / (1 - b2^t)): equal in real arithmetic, in ten
    in-place operations.

    The operations run block by block, ADAM_BLOCK elements at a time, so each
    block's data stays in cache from the first operation to the last. The
    caller and the lane's worker share the blocks (lane.share), each with
    its own scratch block. Every element sees the same operations in the
    same order as in a whole-buffer sweep on one thread, so the result
    depends neither on the block size nor on which thread swept a block.
    Each gradient block is zeroed right after its last read. Each updated
    block is checked to be finite while still in cache; once both threads
    are done, a non-finite update raises NumericError naming the first
    tensor in layout order that holds one (ModelParams.assert_finite). An
    element whose gradient has always been 0 does not move, which keeps a
    masked model's forbidden transitions pinned (see model.py).
    """
    config = model.config
    state.step += 1
    t = state.step
    lr = warmup_lr(config.learning_rate, t, config.warmup_steps)
    b1, b2 = config.beta1, config.beta2
    c2 = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    alpha = lr * (1.0 - b1) / (1.0 - b1**t) / c2
    eps = config.epsilon / c2
    non_finite = []

    def sweep(lo: int) -> None:
        hi = lo + ADAM_BLOCK
        g, m, v, theta = grad[lo:hi], state.m[lo:hi], state.v[lo:hi], model.flat[lo:hi]
        tmp = state.scratch[int(lane.on_worker()), : g.size]
        m *= b1
        m += g
        np.multiply(g, g, out=tmp)
        v *= b2
        v += tmp
        g.fill(0.0)
        np.sqrt(v, out=tmp)
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= alpha
        theta -= tmp
        if not np.isfinite(theta).all():
            non_finite.append(lo)

    lane.share(range(0, grad.size, ADAM_BLOCK), sweep)
    if non_finite:
        model.assert_finite()
    return lr


def evaluate(model: ModelParams, corpus: Corpus) -> EvalReport:
    """Entity and tag scores of the model's Viterbi tags against gold tags;
    confidences play no part, so no marginals are computed."""
    tagged = tag(model, corpus.sentences, marginals=False)
    predicted = [s.with_tags(tags) for s, (tags, _) in zip(corpus.sentences, tagged)]
    return EvalReport.from_sentences(corpus.sentences, predicted)


def validation_micro_f1(model: ModelParams, corpus: Corpus) -> float:
    """Entity-level micro-F1 of the model's predictions against gold tags."""
    return evaluate(model, corpus).micro_f1


@dataclass
class FitResult:
    model: ModelParams
    history: list[EpochRecord]

    def log_lines(self) -> list[str]:
        return [r.to_line() for r in self.history]


def fit(model: ModelParams, train_corpus: Corpus, val_corpus: Corpus) -> FitResult:
    """Train with mini-batch Adam under model.config; keep the
    best-validation-epoch parameters.

    Deterministic for a fixed seed: epoch shuffles come from one seeded
    generator, dropout from the counter-based stream keyed by each
    sentence's position in its batch, and each batch runs in a fixed layout
    of length-sorted buckets (see batch_nll_and_grads). The lane's worker
    is held up for the whole fit, so its steps reuse one thread.
    """
    cfg = model.config
    if len(train_corpus) == 0:
        raise ValidationError("training corpus is empty")
    if train_corpus.schema.tags != model.schema.tags:
        raise ValidationError("training corpus schema does not match the model schema")
    if val_corpus.schema.tags != model.schema.tags:
        raise ValidationError("validation corpus schema does not match the model schema")

    state = TrainState.for_model(model)
    grads = model.zero_grads()
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochRecord] = []
    best_flat: np.ndarray | None = None

    with lane.held():
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(len(train_corpus))
            epoch_loss = 0.0
            lr = warmup_lr(cfg.learning_rate, state.step + 1, cfg.warmup_steps)
            for lo in range(0, len(order), cfg.batch_size):
                batch = [train_corpus.sentences[i] for i in order[lo : lo + cfg.batch_size]]
                loss, _ = batch_nll_and_grads(model, batch, step=state.step, grads=grads)
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss {loss!r} at epoch {epoch}, step {state.step}"
                    )
                clip_gradients(grads.flat, cfg.grad_clip_norm)
                lr = adam_step(model, grads.flat, state)
                epoch_loss += loss

            metric = validation_micro_f1(model, val_corpus)
            history.append(EpochRecord(epoch, state.step, lr, epoch_loss, metric))
            log.info("epoch %d: step=%d lr=%.3g loss=%.4f val_micro_f1=%.4f",
                     epoch, state.step, lr, epoch_loss, metric)

            if metric > state.best_metric:
                state.best_metric = metric
                state.best_epoch = epoch
                state.epochs_since_improvement = 0
                best_flat = model.flat.copy()
            else:
                state.epochs_since_improvement += 1
                if state.epochs_since_improvement >= cfg.early_stopping_patience:
                    log.info("early stopping after epoch %d (best epoch %d)",
                             epoch, state.best_epoch)
                    break

    if best_flat is not None:
        model.flat[...] = best_flat
    return FitResult(model, history)


@dataclass
class GridRun:
    config: TrainConfig
    val_micro_f1: float
    num_parameters: int


@dataclass
class GridResult:
    best: FitResult
    runs: list[GridRun]


def grid_search(
    config_grid: dict[str, list],
    train_corpus: Corpus,
    val_corpus: Corpus,
    base_config: TrainConfig,
    build_model,
) -> GridResult:
    """Train one model per grid point; keep the fit with the best validation
    micro-F1.

    Ties break toward the lower learning rate, then the smaller model, then
    grid order. `build_model(config)` must return a fresh ModelParams. Only
    the winning run's model is kept in memory.
    """
    names = sorted(config_grid)
    if not names or any(not config_grid[n] for n in names):
        raise ValidationError("config grid is empty")
    runs: list[GridRun] = []
    best, best_rank = None, None
    for values in itertools.product(*(config_grid[n] for n in names)):
        cfg = dataclasses.replace(base_config, **dict(zip(names, values)))
        result = fit(build_model(cfg), train_corpus, val_corpus)
        score = max((r.val_micro_f1 for r in result.history), default=0.0)
        runs.append(GridRun(cfg, score, result.model.num_parameters()))
        log.info("grid point %s -> val_micro_f1=%.4f", dict(zip(names, values)), score)
        rank = (-score, cfg.learning_rate, runs[-1].num_parameters)
        if best is None or rank < best_rank:  # strict: the earlier point wins a tie
            best, best_rank = result, rank
    return GridResult(best, runs)
