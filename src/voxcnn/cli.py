"""Command-line entry point: ``voxcnn <command> ...``.

Every command reads JSON configs, writes file artifacts, and funnels all
randomness through one ``--seed`` (or the seed in the hyperparameter file)
via named substreams, so identical inputs give byte-identical outputs.

Exit codes: 0 success, 1 usage/config problem, 2 data/format problem,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import augment, checkpoint, evaluate, fileio, graph, preprocess, records, train as T
from .errors import DataError, InputError, NumericError, SpecError, StorageError
from .rng import sample_seed


def _write_json(obj, path):
    fileio.write_json(path, obj, indent=2, sort_keys=True)


def _load_hyper(path, seed_override=None):
    """Read a hyperparameter file; returns (HyperParams, augmentor or None)."""
    d = fileio.read_json(path, InputError, "hyperparameter file")
    if not isinstance(d, dict):
        raise InputError(f"hyperparameter file {path} must hold a JSON object")
    hyper = T.HyperParams.from_dict({k: v for k, v in d.items() if k != "augment"})
    if seed_override is not None:
        hyper = dataclasses.replace(hyper, seed=seed_override)
    augmentor = None
    if "augment" in d:
        cfg = augment.AugmentConfig.from_dict(d["augment"])
        if not cfg.is_identity:
            def augmentor(vol, sample_seed):
                return augment.augment(vol, cfg, sample_seed)
    return hyper, augmentor


def _parse_dims(text):
    """Comma-separated integers; ``gen_synthetic`` checks that there are three."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"dims must be comma-separated integers, got {text!r}")


def _modality(spec, given):
    """What ``spec`` reads: ``--modality`` (PET by default), or the (PET, MRI) pair of a two-branch spec."""
    if spec.is_two_branch and given is not None:
        raise InputError(f"--modality does not apply to two-branch spec {spec.name!r}: it reads PET and MRI")
    return ("PET", "MRI") if spec.is_two_branch else given or "PET"


def _metrics_dict(cm):
    sens, spec = evaluate.sensitivity_specificity(cm)
    return {
        "class_order": list(records.CLASS_NAMES),
        "confusion": cm.tolist(),
        "accuracy": evaluate.accuracy(cm),
        "sensitivity": sens,
        "specificity": spec,
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_inspect(args) -> int:
    spec = graph.load_spec(args.arch)
    print(graph.format_summary(graph.summarize(spec)))
    return 0


def cmd_train(args) -> int:
    if not 0.0 <= args.val_frac < 1.0:
        raise InputError(f"--val-frac must be in [0, 1), got {args.val_frac}")
    spec = graph.load_spec(args.arch)
    hyper, augmentor = _load_hyper(args.hyper, args.seed)
    volumes, labels, _ = records.load_dataset(args.data, _modality(spec, args.modality))
    val_idx = evaluate.stratified_split(labels, args.val_frac, hyper.seed)[1] if args.val_frac > 0 else None
    model, curve = T.train(graph.build(spec, seed=hyper.seed), (volumes, labels), val_idx, hyper,
                           augmentor=augmentor)
    fileio.make_dirs(args.out_dir)
    checkpoint.save_checkpoint(model, os.path.join(args.out_dir, "model.avc"))
    curve.write_csv(os.path.join(args.out_dir, "curve.csv"))
    print(f"trained {spec.name or args.arch}: {len(curve.rows)} epochs")
    print(f"wrote {os.path.join(args.out_dir, 'model.avc')}")
    print(f"wrote {os.path.join(args.out_dir, 'curve.csv')}")
    return 0


def cmd_rkfold(args) -> int:
    spec = graph.load_spec(args.arch)
    hyper, augmentor = _load_hyper(args.hyper, args.seed)
    volumes, labels, _ = records.load_dataset(args.data, _modality(spec, args.modality))
    plan = evaluate.repeated_stratified_kfold(labels, args.k, args.reps, hyper.seed)
    report = evaluate.run_rkfold(spec, volumes, labels, hyper, plan,
                                 augmentor=augmentor, jobs=args.jobs)
    fileio.make_dirs(args.out_dir)
    _write_json(report.to_dict(), os.path.join(args.out_dir, "report.json"))
    report.mean_curve.write_csv(os.path.join(args.out_dir, "mean_curve.csv"))
    failed = sum(r.failed for r in report.runs)
    print(f"{args.reps}x{args.k}-fold: {len(report.runs)} runs, {failed} failed, "
          f"mean accuracy {report.mean_accuracy:.4f} "
          f"(std {report.std_accuracy:.4f}) over the runs that did not fail")
    print(f"wrote {os.path.join(args.out_dir, 'report.json')}")
    return 0


def cmd_test_eval(args) -> int:
    model = checkpoint.load_checkpoint(args.checkpoint)
    test_ids = None
    if args.index:
        idx_doc = fileio.read_json(args.index, InputError, "index file")
        test_ids = idx_doc.get("test") if isinstance(idx_doc, dict) else None
        if not isinstance(test_ids, list) or not test_ids or not all(isinstance(i, str) for i in test_ids):
            raise InputError(f'index file {args.index} must hold an object whose "test" '
                             f"is a non-empty list of subject ids")
    volumes, labels, _ = records.load_dataset(args.data, _modality(model.spec, args.modality), test_ids)
    probs = T.predict(model, volumes, T.DEFAULT_BATCH_SIZE)
    cm = evaluate.confusion_matrix(labels, probs.argmax(axis=1))
    metrics = _metrics_dict(cm)
    _write_json(metrics, args.out)
    print(f"accuracy {metrics['accuracy']:.4f}  "
          f"sensitivity {metrics['sensitivity']:.4f}  "
          f"specificity {metrics['specificity']:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_split(args) -> int:
    _, labels, ids = records.load_dataset(args.data, ())
    train_idx, test_idx = evaluate.stratified_split(labels, args.test_frac, args.seed)
    doc = {
        "seed": args.seed,
        "test_frac": args.test_frac,
        "train": [ids[i] for i in train_idx],
        "test": [ids[i] for i in test_idx],
        "test_class_counts": {
            name: int((labels[test_idx] == c).sum())
            for c, name in enumerate(records.CLASS_NAMES)
        },
    }
    _write_json(doc, args.out)
    print(f"split {len(labels)} records into {len(train_idx)} train / "
          f"{len(test_idx)} test")
    print(f"wrote {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    ops = preprocess.load_chain(args.chain)
    files = records.record_files(args.data)
    fileio.make_dirs(args.out_dir)
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    fileio.remove(manifest_path)  # an earlier run's manifest would describe records this run replaces

    def written(fname):
        rec = records.read_record(os.path.join(args.data, fname))
        rec = dataclasses.replace(rec, volumes=[
            (mod, preprocess.apply_chain(vol, ops).astype(np.float32)) for mod, vol in rec.volumes])
        records.write_record(rec, os.path.join(args.out_dir, fname))
        return rec

    # The manifest is written last, so it marks a complete output.
    manifest = records.manifest_for((f, written(f)) for f in files)
    records.write_manifest(manifest, manifest_path)
    print(f"preprocessed {len(files)} records into {args.out_dir}")
    return 0


def cmd_augment_preview(args) -> int:
    rec = records.read_record(args.record)
    doc = fileio.read_json(args.config, InputError, "augmentation config")
    cfg = augment.AugmentConfig.from_dict(doc)
    seed = sample_seed(args.seed, "augment-preview", rec.subject_id)
    rec = dataclasses.replace(rec, subject_id=rec.subject_id + "-aug", volumes=[
        (mod, augment.augment(vol, cfg, seed).astype(np.float32)) for mod, vol in rec.volumes])
    records.write_record(rec, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_gen_synth(args) -> int:
    records.gen_synthetic(
        args.per_class, dims=_parse_dims(args.dims),
        signal_strength=args.signal_strength, noise_sigma=args.noise_sigma,
        seed=args.seed, out_dir=args.out_dir,
    )
    print(f"wrote {3 * args.per_class} records to {args.out_dir}")
    return 0


def cmd_surgery(args) -> int:
    model = checkpoint.load_checkpoint(args.checkpoint)
    model = graph.surgery(model, args.mode, seed=args.seed)
    checkpoint.save_checkpoint(model, args.out)
    total = sum(p.values.size for p in model.params())
    trainable = sum(p.values.size for p in model.params() if p.trainable)
    print(f"surgery mode={args.mode}: total {total:,} parameters, "
          f"{trainable:,} trainable")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as every other usage error does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="voxcnn",
                description="Volumetric CNN experiments from the command line.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="print a per-layer summary of an architecture file")
    sp.add_argument("arch", help="architecture JSON file")
    sp.set_defaults(func=cmd_inspect)

    def data_opts(sp, modality=True):
        sp.add_argument("--data", required=True, help="record directory")
        if modality:
            sp.add_argument("--modality", choices=records.MODALITIES,
                            help="default PET; a two-branch model reads PET and MRI")

    sp = sub.add_parser("train", help="train a model on a record directory")
    sp.add_argument("--arch", required=True)
    sp.add_argument("--hyper", required=True, help="hyperparameter JSON file")
    data_opts(sp)
    sp.add_argument("--val-frac", type=float, default=0.0,
                    help="held-out validation fraction (0 disables)")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the seed from the hyperparameter file")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("rkfold", help="repeated stratified k-fold evaluation")
    sp.add_argument("--arch", required=True)
    sp.add_argument("--hyper", required=True)
    data_opts(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1,
                    help="fold-level parallelism bound (results are schedule-independent)")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_rkfold)

    sp = sub.add_parser("test-eval", help="evaluate a checkpoint on held-out records")
    sp.add_argument("--checkpoint", required=True)
    data_opts(sp)
    sp.add_argument("--index", default=None,
                    help="split index file; only its 'test' ids are evaluated")
    sp.add_argument("--out", required=True, help="metrics JSON output path")
    sp.set_defaults(func=cmd_test_eval)

    sp = sub.add_parser("split", help="write a stratified train/test index file")
    data_opts(sp, modality=False)
    sp.add_argument("--test-frac", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("preprocess", help="apply an op chain to every record")
    data_opts(sp, modality=False)
    sp.add_argument("--chain", required=True, help="op-chain JSON file")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("augment-preview", help="write one augmented record for inspection")
    sp.add_argument("--record", required=True)
    sp.add_argument("--config", required=True, help="augmentation config JSON file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_augment_preview)

    sp = sub.add_parser("gen-synth", help="generate a synthetic separable dataset")
    sp.add_argument("--per-class", type=int, default=40)
    sp.add_argument("--dims", default="16,16,16")
    sp.add_argument("--signal-strength", type=float, default=1.0)
    sp.add_argument("--noise-sigma", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_gen_synth)

    sp = sub.add_parser("surgery", help="cut a pretrained checkpoint down to a frozen backbone")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", required=True, choices=["pet", "mri"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_surgery)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, StorageError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
