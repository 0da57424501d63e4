"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rkfold-pet8 --seed 1 --seconds 54 --trace 0

Run it from the root of a source checkout: it imports voxcnn from ``src/``
and refuses to run without it.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
calls into every voxcnn module are traced and the metrics are the per-layer
ones.  Lines before it give provenance, every correctness gate, and every
metric with its unit.  A full result file and, when tracing, the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# BLAS threads and fold jobs per workload, as functions of nproc.  Set before
# numpy is imported; compute threads never exceed nproc.
THREADS = {
    "rkfold-pet8": {"blas": lambda n: 1, "jobs": lambda n: n},
    "train-aug-fusion": {"blas": lambda n: n, "jobs": lambda n: 1},
    "transfer-serve": {"blas": lambda n: n, "jobs": lambda n: 1},
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 2
MIN_SETUPS = 5
# A run on a host much slower than planned stops starting cycles once it has
# taken this many times --seconds, so a slow phase cannot stretch it without end.
OVERRUN = 1.15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def provenance(args, n, blas, jobs) -> dict:
    import numpy
    import scipy

    blas_dep = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": n, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas_dep.get('name', '?')} {blas_dep.get('version', '?')}",
        "blas_threads": blas, "jobs": jobs,
    }


def measure(wl, args, jobs, work_root, tracer, gates):
    """Set up, train, deploy and serve; returns (end-to-end metrics, details).

    The machine's speed drifts over seconds, so every timed quantity is
    sampled across the whole run: the run is a fixed number of cycles, each
    one training repetition and one burst of requests, with the set-up
    repetitions spread between them.  The plan depends only on
    ``--seconds``, so every run of a workload does the same work, unless the
    host is so slow that the run passes ``OVERRUN`` times ``--seconds``; it
    then starts no further cycle and reports the cycles it completed.
    """
    import numpy as np

    import stats
    import workloads as W
    from voxcnn import records
    from voxcnn.errors import VoxcnnError

    cycles = max(MIN_CYCLES, round(args.seconds / wl.cycle_s))
    n_setups = max(MIN_SETUPS, cycles)
    order = np.random.default_rng(args.seed).integers(0, 2**31, cycles * wl.requests_per_cycle)

    setup_times, reps, latencies, cycle_p50_ms = [], [], [], []
    bad_requests, state, served, reference = 0, None, None, None

    def set_up(keep):
        d = os.path.join(work_root, f"setup{len(setup_times)}")
        t0 = time.perf_counter()
        fresh = wl.setup(args.seed, d, jobs)
        setup_times.append(time.perf_counter() - t0)
        if keep:
            return fresh
        shutil.rmtree(d)  # timed for setup_s only; training keeps the first state

    started = time.perf_counter()
    for cycle in range(cycles):
        if cycle >= MIN_CYCLES and time.perf_counter() - started > OVERRUN * args.seconds:
            break
        if cycle == 0:
            state = set_up(keep=True)
            gates.extend(wl.setup_gates(state))
        while len(setup_times) < round(n_setups * (cycle + 1) / cycles):
            set_up(keep=False)

        wl.prepare(state, cycle)
        if tracer:
            tracer.request = f"train{cycle}"
        c0, t0 = time.process_time(), time.perf_counter()
        res = wl.train_once(state)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        reps.append((res, wall, cpu))
        if tracer:
            tracer.request = None

        if cycle == 0:
            accuracy = wl.accuracy(state, res)
            gates.append(W.accuracy_gate(accuracy))
            gate, served = W.reload_gate(wl.final_model(state), os.path.join(work_root, "deploy.avc"))
            gates.append(gate)
            pool = state.serve_files
            pool_inputs = [wl.request_input(records.read_record(f)) for f in pool]
            if isinstance(pool_inputs[0], tuple):
                batch = tuple(np.concatenate(parts) for parts in zip(*pool_inputs))
            else:
                batch = np.concatenate(pool_inputs)
            reference = W.predict(served, batch)

        # closed loop, one client: each request starts when the previous one ends
        first = len(latencies)
        for i in range(cycle * wl.requests_per_cycle, (cycle + 1) * wl.requests_per_cycle):
            path = pool[order[i] % len(pool)]
            if tracer:
                tracer.request = f"req{i}"
            t0 = time.perf_counter()
            try:
                rec = records.read_record(path)
                pred = int(np.argmax(served.forward(wl.request_input(rec), "inference"), axis=1)[0])
            except VoxcnnError as exc:
                print(f"request {i} ({path}) failed: {exc}", file=sys.stderr)
                bad_requests += 1
                continue
            latencies.append(time.perf_counter() - t0)
            bad_requests += int(pred != reference[order[i] % len(pool)])
        if tracer:
            tracer.request = None
        if len(latencies) > first:
            cycle_p50_ms.append(1000 * stats.median(latencies[first:]))
    while len(setup_times) < MIN_SETUPS:
        set_up(keep=False)
    done = len(reps)
    n_req = done * wl.requests_per_cycle

    tail = stats.tail_percentile(len(latencies))
    metrics = {
        "setup_s": (stats.median(setup_times), "s"),
        "train_samples_per_s": (stats.median([r.samples / w for r, w, _ in reps]), "1/s"),
        "cpu_ms_per_sample": (stats.median([1000 * c / r.samples for r, _, c in reps]), "ms"),
        "val_accuracy": (accuracy, "share"),
        # The host switches between a fast and a slow speed for seconds to
        # minutes at a time.  The median of all requests would jump to one
        # speed or the other with the share of bursts in each; the mean of
        # the burst medians moves in proportion to that share.
        "infer_p50_ms": (statistics.fmean(cycle_p50_ms), "ms"),
        "infer_tail_ms": (1000 * stats.nearest_rank(latencies, tail), "ms"),
        "infer_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = sum(r.attempted for r, _, _ in reps) + n_req + len(gates)
    failed = sum(r.failed for r, _, _ in reps) + bad_requests + sum(not g.ok for g in gates)
    details = {
        "cycles": done, "planned_cycles": cycles,
        "setup_times_s": setup_times, "train_rep_s": [w for _, w, _ in reps],
        "requests": n_req, "mismatched_or_failed_requests": bad_requests,
        "infer_cycle_p50_ms": cycle_p50_ms, "infer_tail_percentile": tail, "infer_samples": len(latencies),
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "voxcnn", "__init__.py")):
        print(f"error: no voxcnn sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    n = nproc()
    blas, jobs = THREADS[args.workload]["blas"](n), THREADS[args.workload]["jobs"](n)
    for var in BLAS_ENV:
        os.environ[var] = str(blas)
    sys.path[:0] = [SRC, HERE]

    import voxcnn

    if not os.path.abspath(voxcnn.__file__).startswith(SRC + os.sep):
        print(f"error: voxcnn was imported from {voxcnn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as W

    wl = W.WORKLOADS[args.workload]
    prov = provenance(args, n, blas, jobs)
    for key, value in prov.items():
        print(f"provenance {key} {value}")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    gates, tracer, inst = [], None, None
    if args.trace:
        import opcount
        from instrument import Instrument
        from tracing import Tracer

        check = opcount.brute_force_check()
        gates.append(W.Gate("opcount-brute-force", check["formula"] == check["brute"], json.dumps(check)))
        tracer = Tracer()
        inst = Instrument(tracer)
    work_root = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    try:
        metrics, details = measure(wl, args, jobs, work_root, tracer, gates)
    finally:
        if inst:
            inst.restore()
        shutil.rmtree(work_root, ignore_errors=True)

    for g in gates:
        print(f"gate {g.name} {'PASS' if g.ok else 'FAIL'} {g.detail}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_share {details['failed_share']:.6g} share "
          f"({details['failed']} of {details['attempted']} attempted)")
    print(f"infer_tail_ms is p{details['infer_tail_percentile']} of {details['infer_samples']} requests")

    result = {"provenance": prov, "details": details,
              "gates": [vars(g) for g in gates],
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if tracer:
        from instrument import layer_metrics

        result["per_layer"] = layer_metrics(tracer, inst, jobs)
        for name, m in result["per_layer"].items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        untraced = os.path.join(OUT, f"result-{tag}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["end_to_end"]
            result["tracing_overhead"] = overhead = {
                k: (v - base[k]["value"]) / base[k]["value"] for k, (v, _) in metrics.items() if base[k]["value"]
            }
            for k, share in overhead.items():
                print(f"tracing overhead {k} {100 * share:+.1f}% against the untraced run of this seed")
        tracer.write(os.path.join(OUT, f"trace-{tag}.json.gz"))
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    shown = result["per_layer"] if tracer else result["end_to_end"]
    print(json.dumps({"correct": details["failed"] == 0, "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
