"""Time one training step of a shipped architecture at the architecture's own input size.

Run from the repository root:

    python3 scripts/step_probe.py --arch pet_2 --batch 8

The fixture is built in float32 and given a random batch at its own input
size (both inputs of a two-branch fixture).  One training step (forward,
backward and an Adam update) runs inside a ``reusing_scratch`` block, as
``train`` runs its steps.  The probe prints one JSON line: the fixture, the
batch, the step's wall-clock seconds and the process's ``ru_maxrss`` in MB.

Before it builds anything the process caps its own address space at
``ADDRESS_SPACE_BYTES`` with ``RLIMIT_AS``, so a step that needs more memory
raises ``MemoryError`` instead of exhausting the host.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from voxcnn import graph, train, volume  # noqa: E402
from voxcnn.fixtures import available, load_fixture  # noqa: E402

ADDRESS_SPACE_BYTES = 6 << 30


def step(spec, batch: int) -> float:
    """Seconds of one training step of a fresh float32 ``spec`` model on a random batch of ``batch``."""
    model = graph.build(spec, seed=0)
    rng = np.random.default_rng(0)
    branches = (spec.branch_a, spec.branch_b) if spec.is_two_branch else (spec,)
    x = tuple(rng.standard_normal((batch, *b.input_dims), dtype=np.float32) for b in branches)
    classes = graph.summarize(spec).rows[-1].output_dims
    y = train.one_hot(np.arange(batch) % classes, classes)
    params = model.params()
    adam = train.AdamState(params)
    with volume.reusing_scratch():
        start = time.perf_counter()
        train.loss_and_grads(model, x if spec.is_two_branch else x[0], y, "train", rng)
        train.adam_step(adam, params, 1e-3)
        return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--arch", required=True, choices=available(), help="shipped fixture name")
    ap.add_argument("--batch", type=int, required=True, help="samples in the step")
    args = ap.parse_args(argv)
    if args.batch < 1:
        ap.error("--batch must be >= 1")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    spec = load_fixture(args.arch)
    seconds = step(spec, args.batch)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"arch": args.arch, "batch": args.batch, "step_s": round(seconds, 3),
                      "maxrss_mb": round(maxrss_mb, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
