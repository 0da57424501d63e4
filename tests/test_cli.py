"""End-to-end command-line workflows and exit codes."""

import collections
import dataclasses
import json
import struct

import numpy as np
import pytest

from voxcnn import checkpoint, fileio, graph, records
from voxcnn.cli import main
from voxcnn.fixtures import available, fixture_path, load_fixture

from conftest import manifest_on_disk, traced_peak


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
    assert manifest == manifest_on_disk(cli_data)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_numeric_failure_exits_3(capsys, cli_data, tmp_path):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps({"lr0": 1e30, "epochs": 3, "batch_size": 6, "seed": 0}))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"),
                       "--hyper", str(hyper), "--data", str(cli_data),
                       "--out-dir", str(tmp_path / "o"))
    assert code == 3 and err != ""


@pytest.mark.parametrize("doc,field", [
    ({"epochs": "3"}, "epochs"),
    ({"lr0": None}, "lr0"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"seed": "x"}, "seed"),
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
    ([{"op": "standardize", "sigma": 3}], "unknown standardize field 'sigma'"),
    ([{"op": "resize", "target_dims": [4, 4, 4], "lo": -1}], "unknown resize field 'lo'"),
    ([{"op": "minmax", "top_fraction": 0.5}], "unknown minmax field 'top_fraction'"),
], ids=["clamp-lo", "imax-top-fraction", "not-an-object", "resize-dims", "standardize-sigma",
        "resize-lo", "minmax-top-fraction"])
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


def _two_branch_argv(command, data, hyper_file, ckpt, out):
    model = ["--arch", fixture_path("two_branch_mini"), "--hyper", hyper_file, "--data", data]
    return {"train": ["train", *model, "--val-frac", "0.25", "--out-dir", out],
            "rkfold": ["rkfold", *model, "--k", "2", "--reps", "1", "--out-dir", out],
            "test-eval": ["test-eval", "--checkpoint", ckpt, "--data", data, "--out", out]}[command]


@pytest.mark.parametrize("command", ["train", "rkfold", "test-eval"])
def test_two_branch_model_reads_pet_and_mri_of_every_record(capsys, cli_data, hyper_file, tmp_path,
                                                            command):
    ckpt = tmp_path / "two_branch.avc"
    checkpoint.save_checkpoint(graph.build(load_fixture("two_branch_mini"), seed=0), ckpt)
    argv = _two_branch_argv(command, cli_data, hyper_file, ckpt, tmp_path / "out")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    code, _, err = run(capsys, *argv, "--modality", "PET")  # the spec states what it reads
    assert code == 1 and "--modality" in err


@pytest.mark.parametrize("command", ["train", "rkfold", "test-eval"])
def test_two_branch_model_on_a_record_without_mri_exits_2(capsys, hyper_file, tmp_path, command):
    data = tmp_path / "data"
    recs, _ = records.gen_synthetic(2, dims=(16, 16, 16), seed=7)
    recs[4] = dataclasses.replace(recs[4], volumes=recs[4].volumes[:1])  # PET only
    fileio.make_dirs(data)
    for rec in recs:
        records.write_record(rec, data / f"{rec.subject_id}.rec")
    ckpt = tmp_path / "two_branch.avc"
    checkpoint.save_checkpoint(graph.build(load_fixture("two_branch_mini"), seed=0), ckpt)
    code, _, err = run(capsys, *_two_branch_argv(command, data, hyper_file, ckpt, tmp_path / "out"))
    assert code == 2 and "no MRI volume" in err
    assert not (tmp_path / "out").exists()


def _model_argv(command, arch, cli_data, hyper_file, out):
    model = ["--arch", arch, "--hyper", hyper_file, "--data", cli_data]
    return {"inspect": ["inspect", arch],
            "train": ["train", *model, "--out-dir", out],
            "rkfold": ["rkfold", *model, "--k", "2", "--reps", "1", "--out-dir", out]}[command]


def _dense_net(*tail):
    return {"name": "dense_net", "input_dims": [16, 16, 16, 1],
            "layers": [{"kind": "maxpool3d", "window": 4, "stride": 4}, {"kind": "flatten"}, *tail]}


def _not_models():
    nested = load_fixture("two_branch_mini").to_dict()
    nested["two_branch"]["branch_a"] = load_fixture("two_branch_mini").to_dict()
    return {
        "conv_output": ({"name": "conv", "input_dims": [16, 16, 16, 1],
                         "layers": [{"kind": "conv3d", "filters": 2, "k": 3}]},
                        "must end in a vector of class scores"),
        "no_layers": ({"name": "empty", "input_dims": [16, 16, 16, 1], "layers": []},
                      "must end in a vector of class scores"),
        "nested_two_branch": (nested, "must be a single-branch spec"),
    }


@pytest.mark.parametrize("command", ["inspect", "train", "rkfold"])
@pytest.mark.parametrize("name", list(_not_models()))
def test_spec_that_is_not_a_model_exits_1(capsys, cli_data, hyper_file, tmp_path, name, command):
    """A nested two-branch spec is no spec at all; a spec without class scores is one that cannot train."""
    doc, message = _not_models()[name]
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run(capsys, *_model_argv(command, arch, cli_data, hyper_file, out))
    if command == "inspect" and name != "nested_two_branch":
        assert (code, err) == (0, "")
        return
    assert code == 1 and err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "rkfold"])
@pytest.mark.parametrize("tail", [
    [{"kind": "dense", "units": 3}, {"kind": "activation", "activation": "softmax"}],
    [{"kind": "dense", "units": 3, "activation": "softmax"}, {"kind": "dropout", "rate": 0.5}],
], ids=["softmax-activation", "dropout-last"])
def test_class_count_is_the_width_of_the_models_output(capsys, cli_data, hyper_file, tmp_path, tail,
                                                        command):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(_dense_net(*tail)))
    code, _, err = run(capsys, *_model_argv(command, arch, cli_data, hyper_file, tmp_path / "out"))
    assert (code, err) == (0, "")


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


@pytest.mark.parametrize("layer,field,value", [(2, "padding", 1), (3, "l2", 0.5), (3, "rate", 0.3)],
                         ids=["maxpool3d-padding", "batch_norm-l2", "batch_norm-rate"])
def test_architecture_field_its_layer_does_not_read_exits_1(capsys, tmp_path, layer, field, value):
    spec = json.loads(fixture_path("pet_8_mini").read_text())
    spec["layers"][layer][field] = value
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(spec))
    code, _, err = run(capsys, "inspect", arch)
    kind = spec["layers"][layer]["kind"]
    assert code == 1 and err.startswith("error:") and f"{kind} takes no {field}" in err


@pytest.mark.parametrize("fixture,edit,key", [
    ("pet_8_mini", lambda d: d.update(layer=[]), "layer"),
    ("pet_8_mini", lambda d: d.update(branch_a={}), "branch_a"),
    ("two_branch_mini", lambda d: d.update(input_dims=[99, 99, 99, 1]), "input_dims"),
    ("two_branch_mini", lambda d: d["two_branch"].update(heads=[]), "heads"),
], ids=["layer", "branch_a", "two-branch-input_dims", "two-branch-heads"])
def test_architecture_key_nothing_reads_exits_1(capsys, tmp_path, fixture, edit, key):
    spec = json.loads(fixture_path(fixture).read_text())
    edit(spec)
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(spec))
    code, _, err = run(capsys, "inspect", arch)
    assert code == 1 and err.startswith("error:") and repr(key) in err


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


@pytest.mark.parametrize("doc", [{"epoch": 5}, {"shuffle": "no"}, {"shuffle": True}, {"l2_lambda": 0.1}],
                         ids=["epoch", "shuffle-str", "shuffle", "l2_lambda"])
def test_unknown_hyperparameter_exits_1(capsys, cli_data, tmp_path, doc):
    """Also the keys training no longer reads: it always shuffles, and L2 is per layer in the spec."""
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps(doc))
    code, _, err = run(capsys, "train", "--arch", fixture_path("pet_8_mini"), "--hyper", hyper,
                       "--data", cli_data, "--out-dir", tmp_path / "o")
    assert code == 1 and err.startswith("error:") and f"unknown hyperparameter {next(iter(doc))!r}" in err
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
    assert manifest == manifest_on_disk(out_dir)


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
    assert "2 of the 3 ids" in err and "nobody-1, nobody-2" in err
    assert not out.exists()


def test_index_with_no_test_ids_exits_1(capsys, cli_data, mini_checkpoint, tmp_path):
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"train": ["synth-0-000"], "test": []}))
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "test-eval", "--checkpoint", mini_checkpoint, "--data", cli_data,
                       "--index", index, "--out", out)
    assert code == 1 and "index file" in err and "non-empty list" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["split", "train", "rkfold", "test-eval"])
def test_a_subject_id_in_two_records_exits_2(capsys, hyper_file, mini_checkpoint, tmp_path, command):
    """A repeated subject would otherwise land on both sides of a split."""
    data = tmp_path / "data"
    records.gen_synthetic(2, dims=(16, 16, 16), seed=7, out_dir=data)
    (data / "synth-0-000-copy.rec").write_bytes((data / "synth-0-000.rec").read_bytes())
    out = tmp_path / "out"
    model = ["--arch", fixture_path("pet_8_mini"), "--hyper", hyper_file, "--data", data]
    argv = {"split": ["split", "--data", data, "--test-frac", "0.5", "--out", out],
            "train": ["train", *model, "--out-dir", out],
            "rkfold": ["rkfold", *model, "--k", "2", "--reps", "1", "--out-dir", out],
            "test-eval": ["test-eval", "--checkpoint", mini_checkpoint, "--data", data, "--out", out],
            }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "subject id 'synth-0-000' is in both synth-0-000-copy.rec and synth-0-000.rec" in err
    assert not out.exists()


def _small_dense_checkpoint(path):
    """A checkpoint whose forward pass is small beside the records it scores."""
    spec = graph.spec_from_dict({"name": "dense", "input_dims": [16, 16, 16, 1], "layers": [
        {"kind": "flatten"}, {"kind": "dense", "units": 3, "activation": "softmax"}]})
    checkpoint.save_checkpoint(graph.build(spec, seed=0), path)
    return path


def test_test_eval_with_an_index_holds_only_the_test_records(capsys, synth_dataset, tmp_path):
    ckpt = _small_dense_checkpoint(tmp_path / "dense.avc")
    index = tmp_path / "index.json"
    assert run(capsys, "split", "--data", synth_dataset, "--test-frac", "0.25", "--seed", "1",
               "--out", index)[0] == 0
    argv = ["test-eval", "--checkpoint", ckpt, "--data", synth_dataset, "--index", index]
    code, _, _ = run(capsys, *argv, "--out", tmp_path / "first.json")  # warms the imports
    assert code == 0
    test_stack = 6 * 16**3 * 4  # 6 of 24 PET volumes, float32
    record = (synth_dataset / "synth-0-000.rec").stat().st_size
    bound = test_stack + ckpt.stat().st_size + 6 * record
    assert traced_peak(lambda: run(capsys, *argv, "--out", tmp_path / "m.json")) < bound
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_preprocess_holds_one_record_at_a_time(capsys, synth_dataset, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "minmax"}]))
    argv = ["preprocess", "--data", synth_dataset, "--chain", chain, "--out-dir"]
    assert run(capsys, *argv, tmp_path / "first")[0] == 0  # warms the imports
    record = (synth_dataset / "synth-0-000.rec").stat().st_size
    assert traced_peak(lambda: run(capsys, *argv, tmp_path / "prep")) < 6 * record  # of 24
    written = json.loads((tmp_path / "prep" / "manifest.json").read_text())
    assert written == manifest_on_disk(tmp_path / "prep")


def _records_of_two_sizes(directory):
    for i, side in enumerate((16, 18)):
        rec = records.gen_synthetic(1, dims=(side,) * 3, seed=i)[0][i]
        records.write_record(rec, directory / f"{rec.subject_id}.rec")


def test_preprocess_resizing_records_of_mixed_dims_exits_0(capsys, tmp_path):
    data, out_dir = tmp_path / "data", tmp_path / "prep"
    data.mkdir()
    _records_of_two_sizes(data)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "resize", "target_dims": [12, 12, 12]}]))
    code, _, err = run(capsys, "preprocess", "--data", data, "--chain", chain, "--out-dir", out_dir)
    assert code == 0, err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["dims"] == {"PET": [12, 12, 12, 1], "MRI": [12, 12, 12, 1]}
    assert manifest == manifest_on_disk(out_dir) and len(manifest["files"]) == 2


def test_preprocess_writing_records_of_mixed_dims_exits_2_without_a_manifest(capsys, tmp_path):
    data, out_dir = tmp_path / "data", tmp_path / "prep"
    data.mkdir()
    _records_of_two_sizes(data)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "minmax"}]))
    code, _, err = run(capsys, "preprocess", "--data", data, "--chain", chain, "--out-dir", out_dir)
    assert code == 2 and "inconsistent PET dims: [16, 16, 16, 1] vs [18, 18, 18, 1]" in err
    assert not (out_dir / "manifest.json").exists()


def test_a_failed_preprocess_rerun_leaves_no_manifest(capsys, tmp_path):
    data, out_dir = tmp_path / "data", tmp_path / "prep"
    records.gen_synthetic(2, dims=(8, 8, 8), seed=3, out_dir=data)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"op": "minmax"}]))
    argv = ["preprocess", "--data", data, "--chain", chain, "--out-dir", out_dir]
    assert run(capsys, *argv)[0] == 0 and (out_dir / "manifest.json").exists()
    last = sorted(data.glob("*.rec"))[-1]  # the others are rewritten before it fails
    rec = records.read_record(last)
    records.write_record(dataclasses.replace(rec, volumes=[(m, np.ones_like(v)) for m, v in rec.volumes]),
                         last)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "constant volume" in err
    assert not (out_dir / "manifest.json").exists()


def test_preprocess_of_a_missing_data_directory_leaves_nothing(capsys, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text("[]")
    code, _, err = run(capsys, "preprocess", "--data", tmp_path / "none", "--chain", chain,
                       "--out-dir", tmp_path / "prep")
    assert code == 2 and "cannot scan record directory" in err
    assert not (tmp_path / "prep").exists()


def test_augment_preview_of_a_record_whose_id_is_too_long_exits_1(capsys, tmp_path):
    rec = records.PatientRecord("s" * 65_535, 0, [("PET", np.ones((8, 8, 8, 1), np.float32))])
    records.write_record(rec, tmp_path / "long.rec")
    cfg = tmp_path / "aug.json"
    cfg.write_text(json.dumps({"max_shift_frac": 0.02}))
    code, _, err = run(capsys, "augment-preview", "--record", tmp_path / "long.rec", "--config", cfg,
                       "--out", tmp_path / "p.rec")
    assert code == 1 and "65,535 UTF-8 bytes" in err
    assert not (tmp_path / "p.rec").exists()


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
