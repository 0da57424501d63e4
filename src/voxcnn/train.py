"""Losses, Adam with exponential LR decay, and the minibatch training loop.

L2 is stated once, per layer in the model spec: each weight tensor carries
its layer's ``l2`` (``graph._slots``), and the loss adds l2 * sum(w^2) for
it.  Training draws a fresh sample order every epoch from the seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .errors import InputError, NumericError, SpecError, require_int, require_known_keys, require_real
from .graph import arrays, summarize
from .layers import ParamTensor
from .rng import sample_seed, substream

PROB_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7
# The training batch when none is given; inference passes without a training
# run of their own (test-eval) use it too.
DEFAULT_BATCH_SIZE = 8


@dataclass
class HyperParams:
    lr0: float = 1e-3
    decay_rate: float = 1.0
    epochs: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0

    def __post_init__(self):
        for name in ("lr0", "decay_rate"):
            require_real(name, getattr(self, name))
        for name in ("epochs", "batch_size", "seed"):
            require_int(name, getattr(self, name))
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.lr0 <= 0:
            raise InputError("lr0 must be positive")
        if not 0.0 < self.decay_rate <= 1.0:
            raise InputError("decay_rate must be in (0, 1]")
        if self.epochs < 0:
            raise InputError("epochs must be >= 0")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        require_known_keys("hyperparameter", d, cls.__dataclass_fields__)
        return cls(**d)


@dataclass
class CurveRow:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None = None
    val_acc: float | None = None


@dataclass
class LearningCurve:
    rows: list[CurveRow] = field(default_factory=list)
    # The returned model's inference-mode probabilities on the validation rows, if any.
    val_probs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def write_csv(self, path):
        text = io.StringIO()
        w = csv.writer(text)
        w.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
        for r in self.rows:
            w.writerow([
                r.epoch,
                f"{r.train_loss:.8g}",
                f"{r.train_acc:.8g}",
                "" if r.val_loss is None else f"{r.val_loss:.8g}",
                "" if r.val_acc is None else f"{r.val_acc:.8g}",
            ])
        fileio.write_bytes(path, text.getvalue().encode("utf-8"))


def cross_entropy(y_onehot: np.ndarray, probs: np.ndarray) -> float:
    """Mean -sum(y log p) with p clamped to [1e-7, 1 - 1e-7]."""
    y = np.asarray(y_onehot)
    p = np.asarray(probs)
    if y.shape != p.shape:
        raise InputError(f"label shape {y.shape} != probability shape {p.shape}")
    row_sums = y.sum(axis=-1)
    if not (np.all((y == 0) | (y == 1)) and np.all(row_sums == 1)):
        raise InputError("labels must be one-hot")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per_sample = -(y * np.log(p)).sum(axis=-1)
    return float(per_sample.mean())


def cross_entropy_grad(y_onehot: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(probs) in the dtype of ``probs``; zero where the clamp is active."""
    p = np.asarray(probs)
    y = np.asarray(y_onehot, dtype=p.dtype)
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    n = p.shape[0]
    return np.where(inside, -y / pc, 0.0) / n


def sample_count(x, labels=None) -> int:
    """The number of samples in ``x``, a stack or a ``(PET, MRI)`` pair of stacks, and in ``labels``.

    Raises ``InputError`` unless every part holds the same number.
    """
    parts = (x if isinstance(x, tuple) else (x,)) + (() if labels is None else (labels,))
    counts = [len(part) for part in parts]
    if len(set(counts)) != 1:
        what = "volumes" if labels is None else "volumes and labels"
        raise InputError(f"{what} hold different numbers of samples: {counts}")
    return counts[0]


def check_labels(labels, classes: int, what: str = "labels") -> np.ndarray:
    """``labels`` as an array; raises ``InputError`` unless it is a vector of integers in [0, classes)."""
    try:
        labels = np.asarray(labels)
    except ValueError as exc:  # a ragged sequence, such as a (volumes, labels) pair
        raise InputError(f"{what} must be a vector of integers: {exc}") from exc
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"{what} must be a vector of integers, got {labels.dtype}{list(labels.shape)}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise InputError(f"{what} must be in [0, {classes})")
    return labels


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = check_labels(labels, classes)
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def l2_penalty(model):
    """Sum over the parameters of l2 * sum(w^2), each with its layer's ``l2`` from the spec.

    Only weight slots carry an ``l2`` (``graph._slots``): biases and batch
    norms are never penalized.  Returns the scalar added to the loss; the
    matching gradient contribution 2*l2*w is added by :func:`add_l2_grads`.
    """
    total = 0.0
    for p in model.params():
        if p.l2:
            total += p.l2 * float((p.values.astype(np.float64) ** 2).sum())
    return total


def add_l2_grads(model):
    for p in model.params():
        if p.l2 and p.grad is not None:
            p.grad = p.grad + 2.0 * p.l2 * p.values


def exp_decay_lr(lr0: float, rate: float, epoch: int, total_epochs: int) -> float:
    """lr = lr0 * rate ** (epoch / total_epochs), evaluated once per epoch."""
    if rate <= 0:
        raise InputError("decay rate must be positive")
    if total_epochs < 1:
        return lr0
    return lr0 * rate ** (epoch / total_epochs)


class AdamState:
    """First/second moment accumulators of the trainable parameters plus a step counter."""

    def __init__(self, params: list[ParamTensor]):
        self.t = 0
        self.m = {id(p): np.zeros_like(p.values) for p in params if p.trainable}
        self.v = {id(p): np.zeros_like(p.values) for p in params if p.trainable}


def adam_step(state: AdamState, params: list[ParamTensor], lr: float):
    """One bias-corrected Adam update; frozen parameters are untouched.

    A gradient must have its parameter's shape and dtype: the update is done
    in place and would otherwise be cast or broadcast without a word.  A
    read-only array, which a cut shares with the model it was cut from, is
    copied before its first update, so fine-tuning leaves that model unchanged.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p in params:
        if not p.trainable:
            continue
        g = p.grad
        if g is None:
            continue
        if g.dtype != p.values.dtype or g.shape != p.values.shape:
            raise NumericError(
                f"gradient for {p.name} is {g.dtype}{list(g.shape)}, "
                f"parameter is {p.values.dtype}{list(p.values.shape)}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {p.name}")
        if not p.values.flags.writeable:
            p.values = p.values.copy()
        m = state.m[id(p)]
        v = state.v[id(p)]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.values -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def loss(model, x, y_onehot, mode="train", rng=None):
    """Forward only: returns (loss, probs), the loss including the L2 penalty."""
    probs = model.forward(x, mode, rng)
    return cross_entropy(y_onehot, probs) + l2_penalty(model), probs


def loss_and_grads(model, x, y_onehot, mode="train", rng=None):
    """Forward + backward; leaves per-parameter grads on the model.

    Returns (loss, probs) as :func:`loss` does; grads include the L2 penalty's
    contribution.
    """
    value, probs = loss(model, x, y_onehot, mode, rng)
    model.backward(cross_entropy_grad(y_onehot, probs))
    add_l2_grads(model)
    return value, probs


def predict(model, x, batch_size: int, rows=None) -> np.ndarray:
    """Inference-mode class probabilities of ``x``, ``batch_size`` samples per forward.

    ``x`` is a batch of volumes, or a ``(PET, MRI)`` tuple of them for a
    two-branch model; ``rows``, an index array, picks and orders samples of
    it.  Bounding the batch bounds memory: an inference pass at the training
    batch size never needs more than a training step.
    """
    rows = None if rows is None else check_labels(rows, sample_count(x), "rows")
    n = sample_count(x) if rows is None else len(rows)
    if n == 0:
        raise InputError("no samples to predict")
    require_int("batch_size", batch_size)
    if batch_size < 1:
        raise InputError("batch_size must be >= 1")
    batches = (slice(lo, lo + batch_size) if rows is None else rows[lo : lo + batch_size]
               for lo in range(0, n, batch_size))
    return np.concatenate([model.forward(_take(x, b), "inference") for b in batches])


def _take(x, idx):
    """Rows ``idx`` (an index array or a slice) of volumes or of a tuple of them."""
    if isinstance(x, tuple):
        return tuple(part[idx] for part in x)
    return x[idx]


def _snapshot(model):
    """Copy what training changes and inference reads: every array of ``model`` that is not frozen."""
    return [getattr(holder, attr).copy() for holder, attr, frozen in arrays(model) if not frozen]


def _restore(model, snap):
    """Rebind ``model``'s arrays that are not frozen to those of ``snap``, in slot order."""
    trained = ((holder, attr) for holder, attr, frozen in arrays(model) if not frozen)
    for (holder, attr), values in zip(trained, snap):
        setattr(holder, attr, values)


def train(model, data, val_idx=None, hyper: HyperParams | None = None,
          augmentor=None, early_stopping_patience: int | None = None):
    """Minibatch training with per-epoch exponential LR decay.

    ``data`` is a ``(volumes, labels)`` pair; volumes may be a ``(PET, MRI)``
    tuple of stacks for two-branch models.  ``val_idx``, distinct indices
    into ``data``, names the validation rows; training gathers its batches
    from every other row, in ascending order, and copies no subset.
    ``augmentor``, when given, is called as ``augmentor(volume, sample_seed)``
    on every training sample (never on validation data).  Train accuracy is
    measured on the augmented samples as the model sees them.

    Early stopping monitors validation loss and restores the best-epoch
    parameters; it is off unless a patience is given, and a patience needs
    validation rows.  The class count is the width of the model's output
    vector; a model whose output is not a vector raises ``SpecError`` before
    any epoch runs.  When there are validation rows, the curve's
    ``val_probs`` are the returned model's probabilities on them, in
    ``val_idx`` order.
    """
    hyper = HyperParams() if hyper is None else hyper
    if not isinstance(hyper, HyperParams):
        raise InputError(f"hyper must be a HyperParams, got {type(hyper).__name__}")
    if early_stopping_patience is not None:
        require_int("early_stopping_patience", early_stopping_patience)
        if early_stopping_patience < 0:
            raise InputError("early_stopping_patience must be >= 0")
    try:
        x, labels = data
    except (TypeError, ValueError) as exc:
        raise InputError(f"data must be a (volumes, labels) pair: {exc}") from exc
    n_all = sample_count(x, labels)
    classes = summarize(model.spec).rows[-1].output_dims
    if not isinstance(classes, int):
        raise SpecError(f"model {model.spec.name!r} must end in a vector of class scores, not {classes}")
    y_oh = one_hot(labels, classes)
    val_idx = check_labels(np.arange(0) if val_idx is None else val_idx, n_all, "val_idx")
    if len(np.unique(val_idx)) != len(val_idx):
        raise InputError("val_idx names a row more than once")
    if early_stopping_patience is not None and not len(val_idx):
        raise InputError("early stopping needs validation rows: give val_idx")
    rows = np.setdiff1d(np.arange(n_all), val_idx)
    n = len(rows)
    if n == 0:
        raise InputError("training set is empty")

    params = model.params()
    adam = AdamState(params)
    curve = LearningCurve()
    best_loss, best, bad_epochs = np.inf, None, 0

    for epoch in range(hyper.epochs):
        lr = exp_decay_lr(hyper.lr0, hyper.decay_rate, epoch, hyper.epochs)
        order = substream(hyper.seed, "shuffle", epoch).permutation(n)
        drop_rng = substream(hyper.seed, "dropout", epoch)

        epoch_loss, epoch_correct = 0.0, 0
        for bi, lo in enumerate(range(0, n, hyper.batch_size)):
            idx = order[lo : lo + hyper.batch_size]
            xb, yb = _take(x, rows[idx]), y_oh[rows[idx]]
            if augmentor is not None:
                xb = _augment_batch(xb, idx, augmentor, hyper.seed, epoch)
            try:
                loss, probs = loss_and_grads(model, xb, yb, "train", drop_rng)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {bi}: {exc}") from exc
            if not np.isfinite(loss):
                raise NumericError(f"epoch {epoch} batch {bi}: non-finite loss")
            adam_step(adam, params, lr)
            epoch_loss += loss * len(yb)
            epoch_correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())

        row = CurveRow(epoch, epoch_loss / n, epoch_correct / n)
        if len(val_idx):
            curve.val_probs = predict(model, x, hyper.batch_size, val_idx)
            row.val_loss = cross_entropy(y_oh[val_idx], curve.val_probs)
            row.val_acc = float((curve.val_probs.argmax(axis=1) == labels[val_idx]).mean())
        curve.rows.append(row)

        if early_stopping_patience is not None:
            if row.val_loss < best_loss:
                best_loss, best, bad_epochs = row.val_loss, (_snapshot(model), curve.val_probs), 0
            else:
                bad_epochs += 1
                if bad_epochs > early_stopping_patience:
                    break

    # The best epoch's parameters go back when training stopped early or ended worse than them.
    if best is not None and (bad_epochs > early_stopping_patience
                             or curve.rows[-1].val_loss > best_loss):
        _restore(model, best[0])
        curve.val_probs = best[1]
    if len(val_idx) and curve.val_probs is None:  # no epoch ran
        curve.val_probs = predict(model, x, hyper.batch_size, val_idx)
    return model, curve


def _augment_batch(xb, idx, augmentor, seed, epoch):
    def apply_one(arr, tag):
        out = np.empty_like(arr)
        for j, i in enumerate(idx):
            out[j] = augmentor(arr[j], sample_seed(seed, "augment", epoch, int(i), tag))
        return out

    if isinstance(xb, tuple):
        return tuple(apply_one(part, t) for t, part in enumerate(xb))
    return apply_one(xb, 0)
