"""Run alternating base/change pairs of one benchmark workload and summarise them.

Run from the repository root:

    python3 scripts/bench_pairs.py --base HEAD --workload train-aug-fusion --pairs 10 --seed0 600 \
        --metric infer_p50_ms

The base revision is exported with ``git archive`` into a temporary
directory; the change is the working tree, uncommitted edits included.
Pair ``i`` runs ``perfbench/run.py`` with seed ``seed0 + i`` on both sides,
the base first on even pairs and the change first on odd ones, for the
``run_seconds`` that ``BENCHMARK.json`` fixes.  Each run prints one JSON
line when it ends.  The summary gives, for every end-to-end metric, each
side's quartiles, the change's win share over all pairs (ties count for
neither side), the base's quartile spread, the ratio of the medians, and a
verdict under the metric's ``bound`` from ``BENCHMARK.json``: ``WORSE`` when
the change's median is worse than the base's by more than ``bound`` times the
base median, ``unresolved`` when the base's quartile spread is wider than that
and not every change run beats every base run, ``no`` otherwise.  For
``--metric`` it also states whether a claimed gain holds: a win share of at
least 0.9 and a median gain larger than the base's quartile spread.

The per-pair table shows ``--metric`` (default ``train_samples_per_s``) beside
two derived figures that show host trouble, which a 2-vCPU guest often has:
``train_cores`` (``train_samples_per_s * cpu_ms_per_sample / 1000``, the
cores busy while training) and each run's share of host CPU time stolen by
the hypervisor, from ``/proc/stat`` read before and after the run.  Both are
printed per pair; a pair whose cores fall or whose steal rises on one side
only measured the host, not the change.  A third diagnostic, ``faults``, is
the run's minor page faults (the ``RUSAGE_CHILDREN`` ``ru_minflt`` delta
around it), which shows allocator work such as mapping fresh pages.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

CLAIM_WIN_SHARE = 0.9

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with the inclusive method; one value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better: dict[str, str | None],
              bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per-metric summary of ``pairs``, a list of (base, change) metric dicts.

    ``better`` maps each metric to "higher" or "lower", or to None for a
    diagnostic that has no win share.  ``bounds`` maps a metric to its
    allowed relative regression (0 when absent).  A metric missing or None
    in any run is left out.  ``worse`` is True when the change's median is
    worse than the base's by more than the bound times the base median;
    ``unresolved`` is True when the base's quartile spread is wider than that
    margin and not every change run beats every base run.  Both are None for
    a diagnostic.
    """
    bounds = bounds or {}
    rows = {}
    for name, direction in better.items():
        if not pairs or any(b.get(name) is None or c.get(name) is None for b, c in pairs):
            continue
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        win_share = gain = worse = unresolved = None
        if direction is not None:
            sign = 1.0 if direction == "higher" else -1.0
            win_share = sum(sign * (c - b) > 0 for b, c in zip(base, change)) / len(pairs)
            gain = sign * (cq[1] - bq[1])
            margin = bounds.get(name, 0.0) * abs(bq[1])
            worse = gain < -margin
            separated = min(sign * c for c in change) > max(sign * b for b in base)
            unresolved = bq[2] - bq[0] > margin and not separated
        rows[name] = {
            "base": bq,
            "change": cq,
            "win_share": win_share,
            "base_spread": bq[2] - bq[0],
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "gain": gain,
            "worse": worse,
            "unresolved": unresolved,
        }
    return rows


def claim_verdict(name: str, row: dict) -> str:
    """Whether a claimed gain on ``name`` holds: enough wins and a median gain above the base IQR."""
    wins = row["win_share"] >= CLAIM_WIN_SHARE
    clear = row["gain"] > row["base_spread"]
    verdict = "holds" if wins and clear else "fails"
    return (f"claim on {name}: {verdict} (win share {row['win_share']:.2f} "
            f"{'>=' if wins else '<'} {CLAIM_WIN_SHARE}, median gain {row['gain']:.4g} "
            f"{'>' if clear else '<='} base IQR {row['base_spread']:.4g})")


def format_summary(rows: dict[str, dict]) -> str:
    lines = [f"{'metric':<20} {'base q1/med/q3':>28} {'change q1/med/q3':>28} "
             f"{'win':>5} {'base IQR':>9} {'ratio':>7} {'worse':>10}"]
    for name, r in rows.items():
        base = "/".join(f"{v:.4g}" for v in r["base"])
        change = "/".join(f"{v:.4g}" for v in r["change"])
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        win = "-" if r["win_share"] is None else f"{r['win_share']:.2f}"
        if r["worse"] is None:
            worse = "-"
        else:
            worse = "WORSE" if r["worse"] else "unresolved" if r["unresolved"] else "no"
        lines.append(f"{name:<20} {base:>28} {change:>28} "
                     f"{win:>5} {r['base_spread']:>9.4g} {ratio:>7} {worse:>10}")
    return "\n".join(lines)


def train_cores(metrics: dict) -> float | None:
    """Cores busy while training, or None when a run lacks either metric."""
    if "train_samples_per_s" not in metrics or "cpu_ms_per_sample" not in metrics:
        return None
    return metrics["train_samples_per_s"] * metrics["cpu_ms_per_sample"] / 1000.0


def steal_share(before: str, after: str) -> float | None:
    """Share of all CPU time stolen between two ``/proc/stat`` texts.

    The aggregate ``cpu`` line counts user, nice, system, idle, iowait, irq,
    softirq and steal time (guest time is already inside user and nice).
    Returns None when no time passed.
    """
    def times(text):
        for line in text.splitlines():
            fields = line.split()
            if fields and fields[0] == "cpu":
                ticks = [int(v) for v in fields[1:9]]
                return ticks[7], sum(ticks)
        raise ValueError("no aggregate cpu line")

    (steal0, total0), (steal1, total1) = times(before), times(after)
    if total1 <= total0:
        return None
    return (steal1 - steal0) / (total1 - total0)


def read_proc_stat() -> str:
    """The host's CPU counters; empty where ``/proc/stat`` does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


def child_minor_faults() -> int:
    """Minor page faults of all waited-for child processes so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def format_pairs(pairs, seeds, metric: str = "train_samples_per_s") -> str:
    """One line per pair: ``metric``, cores busy, steal share and minor faults on each side."""
    width = len(metric) + 5

    def side(m):
        value = "-" if m.get(metric) is None else f"{m[metric]:.4g}"
        cores = "-" if m.get("train_cores") is None else f"{m['train_cores']:.2f}"
        steal = "-" if m.get("steal_share") is None else f"{m['steal_share']:.3f}"
        faults = "-" if m.get("minor_faults") is None else f"{m['minor_faults']}"
        return f"{value:>{width}} {cores:>6} {steal:>6} {faults:>8}"

    head = f"{'cores':>6} {'steal':>6} {'faults':>8}"
    lines = [f"{'pair':>4} {'seed':>5}   {'base ' + metric:>{width}} {head}   "
             f"{'chg ' + metric:>{width}} {head}"]
    for i, ((b, c), seed) in enumerate(zip(pairs, seeds)):
        lines.append(f"{i:>4} {seed:>5}   {side(b)}   {side(c)}")
    return "\n".join(lines)


def export_revision(rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=False)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"could not export revision {rev!r}")


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; returns its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seed0", required=True, type=int)
    ap.add_argument("--metric", default="train_samples_per_s",
                    help="end-to-end metric shown per pair (default: train_samples_per_s)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0:
        ap.error("--pairs must be >= 1 and --seed0 >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.metric not in better:
        ap.error(f"--metric must be one of {', '.join(better)}")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        export_revision(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            results = {}
            for side in order:
                stat_before, faults_before = read_proc_stat(), child_minor_faults()
                result = run_side(sides[side], args.workload, seed, bench["run_seconds"])
                stat_after, faults_after = read_proc_stat(), child_minor_faults()
                results[side] = {k: m["value"] for k, m in result["metrics"].items()}
                results[side]["train_cores"] = train_cores(results[side])
                results[side]["steal_share"] = (steal_share(stat_before, stat_after)
                                                if stat_before and stat_after else None)
                results[side]["minor_faults"] = faults_after - faults_before
                print(json.dumps({"pair": i, "side": side, "seed": seed,
                                  "failed": result["failed"], "attempted": result["attempted"],
                                  "metrics": results[side]}), flush=True)
            pairs.append((results["base"], results["change"]))

    print(f"{args.workload}: {args.pairs} pairs, base {args.base} against the working tree")
    print(format_pairs(pairs, [args.seed0 + i for i in range(args.pairs)], args.metric))
    better["train_cores"] = better["minor_faults"] = None
    rows = summarize(pairs, better, bounds)
    print(format_summary(rows))
    if args.metric in rows:
        print(claim_verdict(args.metric, rows[args.metric]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
