"""Shared test helpers: finite-difference gradient checking and tiny datasets.

The gradient checker snapshots every analytic gradient (as copies) at the
base point *before* any parameter is perturbed, so the finite differences
are always compared against gradients taken at the unperturbed point.  The
perturbed loss evaluations run forward only: their gradients would be
thrown away.
"""

import numpy as np
import pytest

from voxcnn import graph, layers as L, train as T
from voxcnn.rng import substream


def loss_fn(model, x, y_onehot, seed=11):
    """Deterministic train-mode loss (fresh dropout stream per call), forward only."""
    return T.loss(model, x, y_onehot, "train", substream(seed, "drop"))[0]


def fd_gradient_check(model, x, y_onehot, h=1e-6, rtol=1e-4, atol=1e-7, seed=11):
    """Compare every trainable parameter's analytic gradient with central differences.

    Returns (checked, worst_rel).  Raises AssertionError on the first
    parameter entry outside tolerance.  64-bit parameters and a small step
    keep the evaluation on one smooth piece of the relu/max-pool loss
    surface.  Frozen parameters get no gradient and are not checked.
    """
    T.loss_and_grads(model, x, y_onehot, "train", substream(seed, "drop"))
    trained = [p for p in model.params() if p.trainable]
    analytic = {p.name: p.grad.copy() for p in trained}

    checked = 0
    worst = 0.0
    for p in trained:
        flat = p.values.reshape(-1)
        an = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(model, x, y_onehot, seed)
            flat[i] = orig - h
            lm = loss_fn(model, x, y_onehot, seed)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            err = abs(fd - an[i])
            rel = err / max(abs(fd), abs(an[i]), 1e-12)
            if err > atol:
                worst = max(worst, rel)
                assert rel <= rtol, (
                    f"{p.name}[{i}]: fd={fd:.10g} analytic={an[i]:.10g} rel={rel:.3g}"
                )
            checked += 1
    return checked, worst


def build_f64(fixture_name, seed=1):
    from voxcnn.fixtures import load_fixture

    spec = load_fixture(fixture_name)
    return spec, graph.build(spec, seed=seed, dtype=np.float64)


def bn_layers(model):
    """The batch-norm layers of a model, residual blocks and branches included, in slot order."""
    return [lyr for lyr in model._walk_layers() if isinstance(lyr, L.BatchNorm)]


def freeze(model):
    """Freeze every parameter of ``model`` in place, which pins its batch norms."""
    for p in model.params():
        p.trainable = False


def random_batch(spec, n=1, seed=0):
    rng = np.random.default_rng(seed)
    if spec.is_two_branch:
        return (
            rng.standard_normal((n,) + tuple(spec.branch_a.input_dims)),
            rng.standard_normal((n,) + tuple(spec.branch_b.input_dims)),
        )
    return rng.standard_normal((n,) + tuple(spec.input_dims))


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """A written-to-disk synthetic dataset shared across tests (8 per class)."""
    from voxcnn import records

    out = tmp_path_factory.mktemp("synth")
    records.gen_synthetic(8, dims=(16, 16, 16), seed=7, out_dir=out)
    return out
