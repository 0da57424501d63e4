"""End-to-end command-line workflows and exit codes."""

import collections
import json
import struct

import numpy as np
import pytest

from voxcnn import checkpoint, fileio, graph, records
from voxcnn.cli import main
from voxcnn.fixtures import available, fixture_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# inspect


def test_inspect_pet_8_totals(capsys):
    code, out, _ = run(capsys, "inspect", fixture_path("pet_8"))
    assert code == 0
    assert "Total params: 3,755,795" in out
    assert "Trainable params: 3,755,667" in out
    assert "Non-trainable params: 128" in out


def test_inspect_mri_1_total(capsys):
    code, out, _ = run(capsys, "inspect", fixture_path("mri_1"))
    assert code == 0
    assert "337,124,835" in out


def test_inspect_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out, err = run(capsys, "inspect", str(bad))
    assert code == 1
    assert err != ""
    assert list(tmp_path.iterdir()) == [bad]  # no partial outputs


def test_inspect_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "inspect", str(tmp_path / "nope.json"))
    assert code == 1 and err != ""


def _specs_at_16_cubed():
    """(id, spec document) of every shipped architecture, and of each branch of a two-branch one,
    with every input_dims set to 16^3."""
    for name in available():
        doc = json.loads(fixture_path(name).read_text())
        branches = doc.get("two_branch", {})
        for part in [doc, *branches.values()]:
            if "input_dims" in part:
                part["input_dims"][:3] = [16, 16, 16]
        yield name, doc
        for key in ("branch_a", "branch_b"):
            if key in branches:
                yield f"{name}.{key}", branches[key]


@pytest.mark.parametrize("doc", [pytest.param(doc, id=i) for i, doc in _specs_at_16_cubed()])
def test_inspect_every_architecture_at_16_cubed_exits_0_or_1(capsys, tmp_path, doc):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(doc))
    code, out, err = run(capsys, "inspect", arch)
    assert (code, err) == (0, "") or (code == 1 and err.startswith("error:")), (code, err)


@pytest.fixture(scope="module")
def pet_3_at_16_cubed(tmp_path_factory):
    arch = tmp_path_factory.mktemp("arch") / "pet_3.json"
    arch.write_text(json.dumps(dict(_specs_at_16_cubed())["pet_3"]))
    return arch


@pytest.mark.parametrize("command", ["inspect", "train"])
def test_architecture_whose_windows_do_not_fit_its_input_exits_1(capsys, cli_data, hyper_file,
                                                                 pet_3_at_16_cubed, tmp_path,
                                                                 command):
    out_dir = tmp_path / "out"
    argv = {"inspect": ["inspect", pet_3_at_16_cubed],
            "train": ["train", "--arch", pet_3_at_16_cubed, "--hyper", hyper_file,
                      "--data", cli_data, "--out-dir", out_dir]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err == "error: window 5 does not fit extent 1 with padding 0\n"
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# pipeline: gen-synth -> split -> train -> test-eval -> rkfold


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    assert main(["gen-synth", "--per-class", "6", "--dims", "16,16,16",
                 "--seed", "7", "--out-dir", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def hyper_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "hyper.json"
    p.write_text(json.dumps({
        "lr0": 3e-3, "decay_rate": 0.96, "epochs": 2, "batch_size": 6, "seed": 5,
    }))
    return p


def test_gen_synth_writes_records_and_manifest(cli_data):
    manifest = json.loads((cli_data / "manifest.json").read_text())
    assert manifest.pop("extras")["seed"] == 7
    assert manifest == records.manifest_for(*records.read_directory(cli_data)).to_dict()
    assert manifest["class_counts"] == {"CN": 6, "AD": 6, "MCI": 6}
    assert len(list(cli_data.glob("*.rec"))) == 18


def test_split_writes_stratified_index(capsys, cli_data, tmp_path):
    out = tmp_path / "split.json"
    code, _, _ = run(capsys, "split", "--data", str(cli_data),
                     "--test-frac", "0.5", "--seed", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["test"]) == 9
    assert doc["test_class_counts"] == {"CN": 3, "AD": 3, "MCI": 3}
    assert set(doc["train"]).isdisjoint(doc["test"])


def test_train_then_test_eval(capsys, cli_data, hyper_file, tmp_path):
    run_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train",
                       "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper_file),
                       "--data", str(cli_data),
                       "--out-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "model.avc").exists()
    curve = (run_dir / "curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(curve) == 3  # header + 2 epochs

    metrics = tmp_path / "metrics.json"
    code, out, _ = run(capsys, "test-eval",
                       "--checkpoint", str(run_dir / "model.avc"),
                       "--data", str(cli_data),
                       "--out", str(metrics))
    assert code == 0
    doc = json.loads(metrics.read_text())
    assert np.array(doc["confusion"]).shape == (3, 3)
    assert np.array(doc["confusion"]).sum() == 18
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["class_order"] == ["CN", "AD", "MCI"]


def test_rkfold_run_count_and_artifacts(capsys, cli_data, hyper_file, tmp_path):
    out_dir = tmp_path / "rk"
    code, out, _ = run(capsys, "rkfold",
                       "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper_file),
                       "--data", str(cli_data),
                       "--k", "3", "--reps", "2",
                       "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["k"] == 3 and report["reps"] == 2
    assert len(report["runs"]) == 6
    assert not report["any_failed"]
    assert (out_dir / "mean_curve.csv").exists()


def test_cli_seed_override_changes_artifacts(capsys, cli_data, hyper_file, tmp_path):
    outs = []
    for seed in ("5", "5", "6"):
        d = tmp_path / f"s{len(outs)}"
        code, _, _ = run(capsys, "train",
                         "--arch", fixture_path("mri_9_mini"),
                         "--hyper", str(hyper_file),
                         "--data", str(cli_data), "--modality", "MRI",
                         "--seed", seed, "--out-dir", str(d))
        assert code == 0
        outs.append((d / "model.avc").read_bytes())
    assert outs[0] == outs[1]  # byte-identical artifacts under the same seed
    assert outs[0] != outs[2]


# ---------------------------------------------------------------------------
# preprocess / augment-preview / surgery


def test_preprocess_command(capsys, cli_data, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "minmax"}]))
    out_dir = tmp_path / "prep"
    code, _, _ = run(capsys, "preprocess", "--data", str(cli_data),
                     "--chain", str(chain), "--out-dir", str(out_dir))
    assert code == 0
    rec = records.read_record(next(iter(sorted(out_dir.glob("*.rec")))))
    for _, vol in rec.volumes:
        assert vol.min() == 0.0 and vol.max() == 1.0


def test_augment_preview_command(capsys, cli_data, tmp_path):
    cfg = tmp_path / "aug.json"
    cfg.write_text(json.dumps({"max_rotation_deg": 0.5, "max_shift_frac": 0.02}))
    src = next(iter(sorted(cli_data.glob("*.rec"))))
    out = tmp_path / "preview.rec"
    code, _, _ = run(capsys, "augment-preview", "--record", str(src),
                     "--config", str(cfg), "--seed", "3", "--out", str(out))
    assert code == 0
    before = records.read_record(src)
    after = records.read_record(out)
    assert after.subject_id == before.subject_id + "-aug"
    assert not np.array_equal(after.volume("PET"), before.volume("PET"))


@pytest.fixture(scope="module")
def resnet_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("resnet") / "resnet.avc"
    checkpoint.save_checkpoint(graph.build(graph.build_resnet18_3d((32, 32, 32, 1)), seed=0), path)
    return path


def test_surgery_command(capsys, resnet_checkpoint, tmp_path):
    out = tmp_path / "backbone.avc"
    code, stdout, _ = run(capsys, "surgery", "--checkpoint", str(resnet_checkpoint),
                          "--mode", "mri", "--seed", "2", "--out", str(out))
    assert code == 0
    assert "1,539 trainable" in stdout
    back = checkpoint.load_checkpoint(out)
    assert sum(p.values.size for p in back.params() if p.trainable) == 1539


# ---------------------------------------------------------------------------
# exit codes


def test_corrupt_data_exits_2(capsys, tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "bad.rec").write_bytes(b"AVR1" + b"\x00" * 8)
    code, _, err = run(capsys, "split", "--data", str(d),
                       "--test-frac", "0.2", "--out", str(tmp_path / "i.json"))
    assert code == 2 and err != ""


def test_bad_hyper_file_exits_1(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text('{"lr0": -1}')
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 1 and err != ""


def test_non_numeric_augment_value_exits_1(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"epochs": 1, "augment": {"max_rotation_deg": "10"}}))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 1 and "max_rotation_deg" in err


def test_non_boolean_flip_flag_exits_1(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"epochs": 1, "augment": {"flip_x": "no"}}))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 1 and "flip_x" in err


def test_truncated_checkpoint_exits_2(capsys, cli_data, tmp_path):
    ckpt = tmp_path / "model.avc"
    checkpoint.save_checkpoint(graph.build(graph.load_spec(fixture_path("pet_8_mini")), seed=0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:-7])
    code, _, err = run(capsys, "test-eval", "--checkpoint", str(ckpt),
                       "--data", str(cli_data), "--out", str(tmp_path / "m.json"))
    assert code == 2 and "truncated" in err


def test_version_2_checkpoint_exits_2(capsys, cli_data, mini_checkpoint, tmp_path):
    """A file of format 2, whose header repeated its spec's layout, is refused by its version."""
    raw = mini_checkpoint.read_bytes()
    ckpt = tmp_path / "v2.avc"
    ckpt.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    code, _, err = run(capsys, "test-eval", "--checkpoint", str(ckpt),
                       "--data", str(cli_data), "--out", str(tmp_path / "m.json"))
    assert code == 2 and "version 2" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag,value", [("--signal-strength", "nan"), ("--noise-sigma", "inf"),
                                        ("--noise-sigma", "-1")])
def test_gen_synth_rejects_a_non_finite_or_negative_setting(capsys, tmp_path, flag, value):
    out = tmp_path / "data"
    code, _, err = run(capsys, "gen-synth", "--per-class", "1", "--out-dir", str(out), flag, value)
    assert code == 1 and flag[2:].replace("-", "_") in err
    assert not out.exists()  # no record and no manifest


def test_rkfold_reports_failed_runs(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"lr0": 1e30, "epochs": 3, "batch_size": 6, "seed": 0}))
    out_dir = tmp_path / "rk"
    code, out, _ = run(capsys, "rkfold", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--k", "3", "--reps", "1", "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    failed = sum(r["failed"] for r in report["runs"])
    assert failed > 0
    assert f"3 runs, {failed} failed" in out


def test_numeric_failure_exits_3(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"lr0": 1e30, "epochs": 3, "batch_size": 6, "seed": 0}))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 3 and err != ""


def test_split_on_a_missing_modality_exits_2(capsys, cli_data, tmp_path):
    code, _, err = run(capsys, "split", "--data", str(cli_data), "--modality", "OTHER",
                       "--test-frac", "0.2", "--out", str(tmp_path / "i.json"))
    assert code == 2 and "OTHER" in err
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("doc,field", [
    ({"epochs": "3"}, "epochs"),
    ({"lr0": None}, "lr0"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"seed": "x"}, "seed"),
    ({"shuffle": "no"}, "shuffle"),
    ({"epochs": True}, "epochs"),
])
def test_mistyped_hyperparameter_exits_1(capsys, cli_data, tmp_path, doc, field):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps(doc))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 1 and field in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [{"train": ["a"]}, {"test": 5}, ["a", "b"]],
                         ids=["no-test-key", "test-not-a-list", "top-level-list"])
def test_malformed_index_file_exits_1(capsys, cli_data, tmp_path, doc):
    ckpt = tmp_path / "model.avc"
    checkpoint.save_checkpoint(graph.build(graph.load_spec(fixture_path("pet_8_mini")), seed=0), ckpt)
    index = tmp_path / "index.json"
    index.write_text(json.dumps(doc))
    code, _, err = run(capsys, "test-eval", "--checkpoint", str(ckpt), "--data", str(cli_data),
                       "--index", str(index), "--out", str(tmp_path / "m.json"))
    assert code == 1 and "index file" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("chain,word", [
    ([{"op": "clamp", "lo": "a", "hi": 1}], "lo"),
    ([{"op": "imax_normalize", "top_fraction": "x"}], "top_fraction"),
    ([5], "object"),
    ([{"op": "resize", "target_dims": "ab"}], "target_dims"),
], ids=["clamp-lo", "imax-top-fraction", "not-an-object", "resize-dims"])
def test_mistyped_preprocess_chain_exits_1(capsys, cli_data, tmp_path, chain, word):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    out_dir = tmp_path / "prep"
    code, _, err = run(capsys, "preprocess", "--data", str(cli_data),
                       "--chain", str(path), "--out-dir", str(out_dir))
    assert code == 1 and word in err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# files that cannot be read or written


@pytest.fixture(scope="module")
def mini_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.avc"
    checkpoint.save_checkpoint(graph.build(graph.load_spec(fixture_path("pet_8_mini")), seed=0), path)
    return path


@pytest.mark.parametrize("command", ["train", "rkfold", "test-eval"])
def test_two_branch_model_fed_one_modality_exits_1(capsys, cli_data, hyper_file, tmp_path, command):
    spec = graph.load_spec(fixture_path("two_branch_mini"))
    ckpt = tmp_path / "two_branch.avc"
    checkpoint.save_checkpoint(graph.build(spec, seed=0), ckpt)
    model = ["--arch", fixture_path("two_branch_mini"), "--hyper", hyper_file, "--data", cli_data]
    out = tmp_path / "out"
    argv = {"train": ["train", *model, "--out-dir", out],
            "rkfold": ["rkfold", *model, "--k", "2", "--reps", "1", "--out-dir", out],
            "test-eval": ["test-eval", "--checkpoint", ckpt, "--data", cli_data, "--out", out]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error:") and "(PET, MRI) pair" in err
    assert list(tmp_path.iterdir()) == [ckpt]


def _argv_with(flag, path, out, cli_data, hyper_file, mini_checkpoint):
    """A command that reads ``path`` as ``flag`` and writes to ``out``."""
    arch, hyper = fixture_path("pet_8_mini"), hyper_file
    if flag == "--arch":
        arch = path
    if flag == "--hyper":
        hyper = path
    if flag in ("--arch", "--hyper"):
        return ["train", "--arch", arch, "--hyper", hyper, "--data", cli_data, "--out-dir", out]
    if flag == "--chain":
        return ["preprocess", "--data", cli_data, "--chain", path, "--out-dir", out]
    if flag == "--index":
        return ["test-eval", "--checkpoint", mini_checkpoint, "--data", cli_data,
                "--index", path, "--out", out]
    record = next(iter(sorted(cli_data.glob("*.rec"))))
    return ["augment-preview", "--record", record, "--config", path, "--out", out]


@pytest.mark.parametrize("flag", ["--arch", "--hyper", "--chain", "--index", "--config"])
def test_input_that_is_not_utf8_exits_1(capsys, cli_data, hyper_file, mini_checkpoint,
                                        tmp_path, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "\xff"}')
    out = tmp_path / "out"
    code, _, err = run(capsys, *_argv_with(flag, bad, out, cli_data, hyper_file, mini_checkpoint))
    assert code == 1 and err.startswith("error:") and "UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_directory_as_hyperparameter_file_exits_1(capsys, cli_data, tmp_path):
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"), "--hyper", tmp_path,
                       "--data", cli_data, "--out-dir", tmp_path / "o")
    assert code == 1 and err.startswith("error:") and "hyperparameter file" in err
    assert not (tmp_path / "o").exists()


def test_architecture_that_is_not_an_object_exits_1(capsys, tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text("[1, 2]")
    code, _, err = run(capsys, "inspect", arch)
    assert code == 1 and "JSON object" in err


@pytest.mark.parametrize("field,value", [("k", 2.5), ("stride", True), ("l2", -1)])
def test_mistyped_architecture_field_exits_1(capsys, tmp_path, field, value):
    spec = json.loads(fixture_path("pet_8_mini").read_text())
    spec["layers"][0][field] = value
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(spec))
    code, _, err = run(capsys, "inspect", arch)
    assert code == 1 and err.startswith("error:") and field in err


@pytest.mark.parametrize("command", ["split", "test-eval"])
def test_output_into_a_missing_directory_exits_2(capsys, cli_data, mini_checkpoint, tmp_path,
                                                 command):
    out = tmp_path / "missing" / "x.json"
    argv = {"split": ["split", "--data", cli_data, "--test-frac", "0.5", "--out", out],
            "test-eval": ["test-eval", "--checkpoint", mini_checkpoint, "--data", cli_data,
                          "--out", out]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("data error:") and "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_json_output_leaves_the_directory_as_it_was(capsys, cli_data, tmp_path,
                                                           monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "split.json").write_text("old")

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("os.replace", failing_replace)
    code, _, err = run(capsys, "split", "--data", cli_data, "--test-frac", "0.5",
                       "--out", out_dir / "split.json")
    assert code == 2 and "No space left" in err
    assert [p.name for p in out_dir.iterdir()] == ["split.json"]
    assert (out_dir / "split.json").read_text() == "old"


@pytest.mark.parametrize("command", ["gen-synth", "train", "rkfold", "preprocess"])
def test_out_dir_naming_a_file_exits_2(capsys, cli_data, tmp_path, command):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"epochs": 0}))
    chain = tmp_path / "chain.json"
    chain.write_text("[]")
    out = tmp_path / "taken"
    out.write_text("x")
    model = ["--arch", fixture_path("pet_8_mini"), "--hyper", hyper, "--data", cli_data]
    argv = {
        "gen-synth": ["gen-synth", "--per-class", "1", "--dims", "8,8,8"],
        "train": ["train", *model],
        "rkfold": ["rkfold", *model, "--k", "2", "--reps", "1"],
        "preprocess": ["preprocess", "--data", cli_data, "--chain", chain],
    }[command]
    code, _, err = run(capsys, *argv, "--out-dir", out)
    assert code == 2 and err.startswith("data error:") and "cannot create directory" in err
    assert out.read_text() == "x"


def test_unknown_hyperparameter_exits_1(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"epoch": 5}))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"), "--hyper", hyper,
                       "--data", cli_data, "--out-dir", tmp_path / "o")
    assert code == 1 and "'epoch'" in err
    assert not (tmp_path / "o").exists()


def test_unknown_augmentation_setting_exits_1(capsys, cli_data, tmp_path):
    cfg = tmp_path / "aug.json"
    cfg.write_text(json.dumps({"max_rotation": 5}))
    record = next(iter(sorted(cli_data.glob("*.rec"))))
    code, _, err = run(capsys, "augment-preview", "--record", record, "--config", cfg,
                       "--out", tmp_path / "p.rec")
    assert code == 1 and "'max_rotation'" in err
    assert not (tmp_path / "p.rec").exists()


def test_preprocess_reads_each_input_once(capsys, cli_data, tmp_path, monkeypatch):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "minmax"}]))
    reads = collections.Counter()
    read_bytes = fileio.read_bytes

    def spy(path, *args):
        reads[str(path)] += 1
        return read_bytes(path, *args)

    monkeypatch.setattr(fileio, "read_bytes", spy)
    out_dir = tmp_path / "prep"
    code, _, _ = run(capsys, "preprocess", "--data", cli_data, "--chain", chain,
                     "--out-dir", out_dir)
    assert code == 0
    inputs = [str(chain)] + [str(p) for p in sorted(cli_data.glob("*.rec"))]
    assert reads == {path: 1 for path in inputs}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest == records.manifest_for(*records.read_directory(out_dir)).to_dict()


def test_data_directory_without_records_exits_2(capsys, tmp_path):
    (tmp_path / "data").mkdir()
    code, _, err = run(capsys, "split", "--data", tmp_path / "data", "--test-frac", "0.5",
                       "--out", tmp_path / "i.json")
    assert code == 2 and "no .rec files" in err


def test_index_naming_absent_ids_exits_1(capsys, cli_data, mini_checkpoint, tmp_path):
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"test": ["synth-0-000", "nobody-1", "nobody-2"]}))
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "test-eval", "--checkpoint", str(mini_checkpoint),
                       "--data", str(cli_data), "--index", str(index), "--out", str(out))
    assert code == 1
    assert "2 test ids" in err and "nobody-1, nobody-2" in err
    assert not out.exists()


def test_rkfold_with_zero_repetitions_exits_1(capsys, cli_data, hyper_file, tmp_path):
    out_dir = tmp_path / "rk"
    code, _, err = run(capsys, "rkfold", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper_file), "--data", str(cli_data),
                       "--k", "3", "--reps", "0", "--out-dir", str(out_dir))
    assert code == 1 and "reps" in err
    assert not out_dir.exists()


def test_rkfold_writes_the_same_report_at_one_and_two_jobs(capsys, cli_data, hyper_file, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"rk{jobs}"
        code, _, _ = run(capsys, "rkfold", "--arch", fixture_path("pet_8_mini"),
                         "--hyper", str(hyper_file), "--data", str(cli_data),
                         "--k", "3", "--reps", "1", "--jobs", jobs, "--out-dir", str(out_dir))
        assert code == 0
        outs.append(out_dir)
    for name in ("report.json", "mean_curve.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["rkfold", "--arch", "x"],
    ["train", "--arch", "a", "--hyper", "h", "--data", "d", "--out-dir", "o", "--val-frac", "abc"],
    ["no-such-command"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-synth", "split", "surgery", "augment-preview", "train"])
def test_negative_seed_exits_1(capsys, cli_data, hyper_file, resnet_checkpoint, tmp_path, command):
    out = tmp_path / "out"
    config = tmp_path / "aug.json"
    config.write_text(json.dumps({"flip_x": True}))
    argv = {
        "gen-synth": ["--per-class", "1", "--out-dir", out],
        "split": ["--data", cli_data, "--test-frac", "0.5", "--out", out],
        "surgery": ["--checkpoint", resnet_checkpoint, "--mode", "mri", "--out", out],
        "augment-preview": ["--record", next(iter(sorted(cli_data.glob("*.rec")))),
                            "--config", config, "--out", out],
        "train": ["--arch", fixture_path("pet_8_mini"), "--hyper", hyper_file,
                  "--data", cli_data, "--out-dir", out],
    }[command]
    code, _, err = run(capsys, command, *argv, "--seed", "-1")
    assert code == 1 and "seed must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_rkfold_with_fewer_than_one_job_exits_1(capsys, cli_data, hyper_file, tmp_path, jobs):
    out_dir = tmp_path / "rk"
    code, _, err = run(capsys, "rkfold", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper_file), "--data", str(cli_data),
                       "--k", "3", "--reps", "1", "--jobs", jobs, "--out-dir", str(out_dir))
    assert code == 1 and "jobs must be >= 1" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("frac", ["-0.5", "1", "nan"])
def test_train_with_a_validation_fraction_outside_its_range_exits_1(capsys, cli_data, hyper_file,
                                                                      tmp_path, frac):
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper_file), "--data", str(cli_data),
                       "--val-frac", frac, "--out-dir", str(out_dir))
    assert code == 1 and "--val-frac" in err
    assert not out_dir.exists()
