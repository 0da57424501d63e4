"""The file module: typed read errors, atomic writes, and no file access elsewhere."""

import ast
import collections
import os
import pathlib
import stat

import numpy as np
import pytest

from voxcnn import checkpoint, fileio, graph, records, train as T
from voxcnn.errors import FormatError, InputError, SpecError, StorageError
from voxcnn.fixtures import load_fixture

SRC = pathlib.Path(fileio.__file__).parent


def small_record(subject_id="subj-01"):
    vol = np.arange(6 * 6 * 6, dtype=np.float32).reshape(6, 6, 6, 1)
    return records.PatientRecord(subject_id, 0, [("PET", vol)])


# ---------------------------------------------------------------------------
# Reading


@pytest.mark.parametrize("content,word", [
    (None, "cannot read"),
    ("dir", "cannot read"),
    (b'{"a": "\xff"}', "UTF-8"),
    (b'{"a": ', "JSON"),
], ids=["missing", "directory", "not-utf8", "not-json"])
@pytest.mark.parametrize("error", [SpecError, InputError, FormatError])
def test_unreadable_input_raises_the_callers_class(tmp_path, content, word, error):
    path = tmp_path / "in.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(error, match=word) as info:
        fileio.read_json(path, error, "config")
    assert type(info.value) is error


# ---------------------------------------------------------------------------
# Writing


def _checkpoint_writer(path):
    checkpoint.save_checkpoint(graph.build(load_fixture("pet_8_mini"), seed=0), path)


WRITERS = {
    "record": lambda path: records.write_record(small_record(), path),
    "checkpoint": _checkpoint_writer,
    "json": lambda path: fileio.write_json(path, {"a": 1}),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
@pytest.mark.parametrize("failure", [OSError(5, "Input/output error"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_a_failed_replace_leaves_the_directory_as_it_was(tmp_path, monkeypatch, kind, failure):
    target = tmp_path / "out"
    target.write_bytes(b"old")

    def failing_replace(src, dst):
        assert os.path.exists(src)  # the temp file exists when the write fails
        raise failure

    monkeypatch.setattr(os, "replace", failing_replace)
    expected = StorageError if isinstance(failure, OSError) else KeyboardInterrupt
    with pytest.raises(expected):
        WRITERS[kind](target)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old"


def test_a_write_into_a_missing_directory_raises_storage_error(tmp_path):
    with pytest.raises(StorageError, match="cannot write"):
        fileio.write_json(tmp_path / "missing" / "x.json", {})
    assert list(tmp_path.iterdir()) == []


def test_written_files_get_the_umask_mode(tmp_path):
    curve = T.LearningCurve([T.CurveRow(0, 1.0, 0.5)])
    writers = {
        "r.rec": lambda p: records.write_record(small_record(), p),
        "m.avc": _checkpoint_writer,
        "manifest.json": lambda p: records.write_manifest(records.manifest_for([], []), p),
        "arch.json": lambda p: graph.save_spec(load_fixture("pet_8_mini"), p),
        "curve.csv": curve.write_csv,
    }
    old = os.umask(0o027)
    try:
        for name, write in writers.items():
            write(tmp_path / name)
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {name: 0o640 for name in writers}


def test_make_dirs_over_a_file_raises_storage_error(tmp_path):
    (tmp_path / "f").write_text("x")
    with pytest.raises(StorageError, match="cannot create directory"):
        fileio.make_dirs(tmp_path / "f")
    fileio.make_dirs(tmp_path / "a" / "b")
    fileio.make_dirs(tmp_path / "a" / "b")  # an existing directory is fine
    assert (tmp_path / "a" / "b").is_dir()


# ---------------------------------------------------------------------------
# Each file is read once


def test_load_dataset_reads_each_file_once(synth_dataset, monkeypatch):
    reads = collections.Counter()
    read_bytes = fileio.read_bytes

    def spy(path, *args):
        reads[pathlib.Path(path).name] += 1
        return read_bytes(path, *args)

    monkeypatch.setattr(fileio, "read_bytes", spy)
    volumes, labels, ids = records.load_dataset(synth_dataset)
    assert len(ids) == 24
    assert reads == {f"{sid}.rec": 1 for sid in ids}


# ---------------------------------------------------------------------------
# No module but fileio opens, replaces or parses files

_FILE_CALLS = {
    "os": {"open", "fdopen", "replace", "rename", "makedirs", "mkdir"},
    "io": {"open"},
    "json": {"load", "dump"},
    "shutil": {"copy", "copyfile", "move"},
}


def file_access(source: str) -> list[str]:
    """The file-touching calls and imports in Python ``source``, as ``module.name`` strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                found.append("open")
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.attr in _FILE_CALLS.get(f.value.id, ()) or f.value.id == "tempfile":
                    found.append(f"{f.value.id}.{f.attr}")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if node.module == "tempfile" or a.name in _FILE_CALLS.get(node.module, ())]
    return found


def test_the_scan_finds_each_kind_of_file_access():
    source = ("import tempfile\nfrom os import replace\nwith open(p) as fh:\n    json.load(fh)\n"
              "os.replace(a, b)\ntempfile.mkstemp()\nos.makedirs(d)\n# open(p) in a comment\n"
              "fileio.read_bytes(p)\njson.loads(s)\n")
    assert sorted(file_access(source)) == sorted([
        "tempfile", "os.replace", "open", "json.load", "os.replace", "tempfile.mkstemp",
        "os.makedirs",
    ])


def test_only_the_file_module_touches_files():
    offenders = {p.name: file_access(p.read_text(encoding="utf-8"))
                 for p in sorted(SRC.glob("*.py")) if p.name != "fileio.py"}
    assert {name: calls for name, calls in offenders.items() if calls} == {}
    assert "os.replace" in file_access((SRC / "fileio.py").read_text(encoding="utf-8"))
