"""Losses, Adam with exponential LR decay, and the minibatch training loop."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import fileio, volume
from .errors import (InputError, NumericError, require_bool, require_int, require_known_keys,
                     require_real)
from .graph import arrays
from .layers import ParamTensor, softmax
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
    l2_lambda: float = 0.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        for name in ("lr0", "decay_rate", "l2_lambda"):
            require_real(name, getattr(self, name))
        for name in ("epochs", "batch_size", "seed"):
            require_int(name, getattr(self, name))
        require_bool("shuffle", self.shuffle)
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
    # Inference-mode probabilities of the validation set from the last
    # epoch's validation pass, while the model still holds the parameters
    # that pass ran with; None otherwise.
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


def check_labels(labels, classes: int = 3) -> np.ndarray:
    """``labels`` as an array; raises ``InputError`` unless it is a vector of integers in [0, classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be a vector of integers, got {labels.dtype}{list(labels.shape)}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise InputError(f"labels must be in [0, {classes})")
    return labels


def one_hot(labels: np.ndarray, classes: int = 3) -> np.ndarray:
    labels = check_labels(labels, classes)
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


_L2_ROLES = {"conv_weights", "dense_weights"}


def _effective_l2(p: ParamTensor, lam: float | None) -> float:
    # Per-layer lambda wins; the global value is a default for weight
    # tensors whose layer did not set one.  Biases and BN never get L2.
    if p.role not in _L2_ROLES:
        return 0.0
    if p.l2:
        return p.l2
    return lam or 0.0


def l2_penalty(model, lam: float | None = None):
    """Penalty sum over weight tensors of lambda * sum(w^2).

    Returns the scalar added to the loss; the matching gradient contribution
    2*lambda*w is added by :func:`add_l2_grads`.
    """
    total = 0.0
    for p in model.params():
        eff = _effective_l2(p, lam)
        if eff:
            total += eff * float((p.values.astype(np.float64) ** 2).sum())
    return total


def add_l2_grads(model, lam: float | None = None):
    for p in model.params():
        eff = _effective_l2(p, lam)
        if eff and p.grad is not None:
            p.grad = p.grad + 2.0 * eff * p.values


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


def loss(model, x, y_onehot, mode="train", rng=None, l2_lambda=None):
    """Forward only: returns (loss, probs), the loss including the L2 penalty."""
    probs = model.forward(x, mode, rng)
    return cross_entropy(y_onehot, probs) + l2_penalty(model, l2_lambda), probs


def loss_and_grads(model, x, y_onehot, mode="train", rng=None, l2_lambda=None):
    """Forward + backward; leaves per-parameter grads on the model.

    Returns (loss, probs) as :func:`loss` does; grads include the L2 penalty's
    contribution.
    """
    value, probs = loss(model, x, y_onehot, mode, rng, l2_lambda)
    model.backward(cross_entropy_grad(y_onehot, probs))
    add_l2_grads(model, l2_lambda)
    return value, probs


@volume.reusing_scratch()
def predict(model, x, batch_size: int) -> np.ndarray:
    """Inference-mode class probabilities of ``x``, ``batch_size`` samples per forward.

    ``x`` is a batch of volumes, or a ``(PET, MRI)`` tuple of them for a
    two-branch model.  Bounding the batch bounds memory: an inference pass
    at the training batch size never needs more than a training step.
    """
    n = sample_count(x)
    if n == 0:
        raise InputError("no samples to predict")
    require_int("batch_size", batch_size)
    if batch_size < 1:
        raise InputError("batch_size must be >= 1")
    return np.concatenate([model.forward(_take(x, slice(lo, lo + batch_size)), "inference")
                           for lo in range(0, n, batch_size)])


def _evaluate(model, x, y_onehot, batch_size):
    """Inference-mode loss, accuracy and probabilities over a dataset."""
    probs = predict(model, x, batch_size)
    correct = int((probs.argmax(axis=1) == y_onehot.argmax(axis=1)).sum())
    return cross_entropy(y_onehot, probs), correct / len(y_onehot), probs


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


@volume.reusing_scratch()
def train(model, train_set, val_set=None, hyper: HyperParams | None = None,
          augmentor=None, early_stopping_patience: int | None = None):
    """Minibatch training with per-epoch exponential LR decay.

    ``train_set``/``val_set`` are ``(volumes, labels)`` pairs; volumes may be
    a tuple of arrays for two-branch models.  ``augmentor``, when given, is
    called as ``augmentor(volume, sample_seed)`` on every training sample
    (never on validation data).  Train accuracy is measured on the augmented
    samples as the model sees them.

    Early stopping monitors validation loss and restores the best-epoch
    parameters; it is off unless a patience is given.  The curve's
    ``val_probs`` are the last validation pass's probabilities, or None when
    no pass ran or early stopping restored other parameters.
    """
    hyper = hyper or HyperParams()
    x_train, y_train = train_set
    n = sample_count(x_train, y_train)
    if n == 0:
        raise InputError("training set is empty")
    classes = model.spec.head[-1].units if model.spec.is_two_branch else model.spec.layers[-1].units
    y_oh = one_hot(y_train, classes)
    val = None
    if val_set is not None and sample_count(*val_set) > 0:
        val = (val_set[0], one_hot(val_set[1], classes))

    params = model.params()
    adam = AdamState(params)
    curve = LearningCurve()
    best_loss, best_snap, bad_epochs = np.inf, None, 0

    for epoch in range(hyper.epochs):
        lr = exp_decay_lr(hyper.lr0, hyper.decay_rate, epoch, hyper.epochs)
        if hyper.shuffle:
            order = substream(hyper.seed, "shuffle", epoch).permutation(n)
        else:
            order = np.arange(n)
        drop_rng = substream(hyper.seed, "dropout", epoch)

        epoch_loss, epoch_correct = 0.0, 0
        for bi, lo in enumerate(range(0, n, hyper.batch_size)):
            idx = order[lo : lo + hyper.batch_size]
            xb = _take(x_train, idx)
            yb = y_oh[idx]
            if augmentor is not None:
                xb = _augment_batch(xb, idx, augmentor, hyper.seed, epoch)
            try:
                loss, probs = loss_and_grads(model, xb, yb, "train", drop_rng, hyper.l2_lambda or None)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {bi}: {exc}") from exc
            if not np.isfinite(loss):
                raise NumericError(f"epoch {epoch} batch {bi}: non-finite loss")
            adam_step(adam, params, lr)
            epoch_loss += loss * len(yb)
            epoch_correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())

        row = CurveRow(epoch, epoch_loss / n, epoch_correct / n)
        if val is not None:
            row.val_loss, row.val_acc, curve.val_probs = _evaluate(model, *val, hyper.batch_size)
        curve.rows.append(row)

        if early_stopping_patience is not None and val is not None:
            if row.val_loss < best_loss:
                best_loss, best_snap, bad_epochs = row.val_loss, _snapshot(model), 0
            else:
                bad_epochs += 1
                if bad_epochs > early_stopping_patience:
                    break

    # The best epoch's parameters go back when training stopped early or ended worse than them.
    if best_snap is not None and (bad_epochs > early_stopping_patience
                                  or curve.rows[-1].val_loss > best_loss):
        _restore(model, best_snap)
        curve.val_probs = None
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
