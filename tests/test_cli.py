import contextlib
import hashlib
import io
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blprs.cli as cli_module
from blprs.checkpoint import load_checkpoint, save_checkpoint
from blprs.cli import export_curve_csv, main
from blprs.data import LabelMap, load_dataset_dir
from blprs.network import NetworkConfig, build_network
from blprs.training import TrainingReport


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds"
    assert main(["synth", "--out", str(root), "--per-class", "4",
                 "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model")
    model = out / "m.blpr"
    curve = out / "curve.csv"
    code = main([
        "train", "--data", str(synth_dir), "--epochs", "2",
        "--split", "0.75", "--seed", "7",
        "--out", str(model), "--curve", str(curve),
    ])
    assert code == 0
    return model, curve


class TestSynth:
    def test_writes_tree_and_labels(self, synth_dir):
        labels_file = synth_dir / "labels.txt"
        assert labels_file.is_file()
        labels = labels_file.read_text(encoding="utf-8").splitlines()
        assert len(labels) == 16
        for label in labels:
            files = list((synth_dir / label).glob("*.pgm"))
            assert len(files) == 4

    def test_deterministic_given_seed(self, synth_dir, tmp_path):
        other = tmp_path / "ds2"
        assert main(["synth", "--out", str(other), "--per-class", "4",
                     "--seed", "3"]) == 0
        label = LabelMap()[0]
        a = (synth_dir / label / "00000.pgm").read_bytes()
        b = (other / label / "00000.pgm").read_bytes()
        assert a == b

    def test_bad_labels_flag_names_the_file(self, capsys, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("a\nb\n", encoding="utf-8")
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}:")
        assert "got 2" in err
        assert not out.exists()

    def test_empty_out_fails_before_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "", "--per-class", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: --out [^\n]*\n", err), err
        assert list(tmp_path.iterdir()) == []

    def test_tree_matches_the_golden(self, tmp_path):
        # Digest computed when every image was warped on its own and every
        # class directory was created once per image.
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--per-class", "3", "--seed", "1"]) == 0
        files = sorted((p.relative_to(out).as_posix().encode("utf-8"), p.read_bytes())
                       for p in out.rglob("*") if p.is_file())
        assert len(files) == 16 * 3 + 1
        digest = hashlib.sha256()
        for rel, data in files:
            digest.update(b"%d:%s%d:" % (len(rel), rel, len(data)) + data)
        assert digest.hexdigest() == (
            "ca29d005d3b4c6c21f43ea3646d4c3326963700e2af32363bba4b6da92d591c6"
        )

    @pytest.mark.parametrize("flags, field", [
        (["--shear", "nan"], "shear_range"),
        (["--rotation", "nan"], "rotation_range_deg"),
        (["--translate", "inf"], "translate_range_px"),
        (["--noise", "nan"], "noise_std"),
        (["--scale-low", "0", "--scale-high", "0"], "scale_range"),
        (["--scale-low", "-1.15", "--scale-high", "-0.85"], "scale_range"),
        (["--translate", "1e19"], "translate_range_px"),
        (["--translate", "1e300"], "translate_range_px"),
        (["--scale-low", "1e-300", "--scale-high", "1e-300"], "scale_range"),
        (["--scale-low", "1", "--scale-high", "1e308"], "scale_range"),
        (["--shear", "1e300"], "shear_range"),
        (["--seed", "-1"], "seed"),
    ])
    def test_unrenderable_spec_fails_cleanly(self, capsys, tmp_path, flags, field):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--per-class", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {field} [^\n]*\n", err), err
        assert not out.exists()


class TestTrainCommand:
    def test_prints_report_columns(self, capsys, synth_dir, tmp_path):
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "1",
            "--split", "0.75", "--seed", "1", "--out", str(model),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final train error:" in out
        assert "test accuracy:" in out
        assert "total seconds:" in out
        assert "avg seconds/epoch:" in out
        assert model.is_file()

    def test_accuracy_in_range_and_avg_identity(self, capsys, synth_dir, tmp_path):
        model = tmp_path / "m.blpr"
        assert main([
            "train", "--data", str(synth_dir), "--epochs", "4",
            "--split", "0.75", "--seed", "2", "--out", str(model),
        ]) == 0
        out = capsys.readouterr().out
        acc = float(out.split("test accuracy: ")[1].split("%")[0])
        total = float(out.split("total seconds: ")[1].splitlines()[0])
        avg = float(out.split("avg seconds/epoch: ")[1].splitlines()[0])
        assert 0.0 <= acc <= 100.0
        assert avg == pytest.approx(total / 4, rel=1e-12)

    def test_invalid_dropout_fails_without_checkpoint(self, capsys, synth_dir, tmp_path):
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "1",
            "--dropout", "1.0", "--out", str(model),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not model.exists()

    def test_negative_seed_is_named_before_the_data_is_read(
        self, capsys, monkeypatch, synth_dir, tmp_path
    ):
        def no_loading(*args):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli_module, "load_dataset_dir", no_loading)
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "1",
            "--seed", "-1", "--out", str(model),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: seed [^\n]*\n", err), err
        assert not model.exists()

    @pytest.mark.parametrize("split", ["1.5", "1", "0", "-0.25", "nan"])
    def test_bad_split_is_named_before_the_data_is_read(
        self, capsys, monkeypatch, synth_dir, tmp_path, split
    ):
        calls = []
        monkeypatch.setattr(cli_module, "load_dataset_dir", lambda *args: calls.append(args))
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "1",
            "--split", split, "--out", str(model),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: train fraction must be in (0,1), got {float(split)}\n"
        assert calls == []
        assert not model.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_fails_without_checkpoint(
        self, capsys, synth_dir, tmp_path, rate
    ):
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "1",
            "--lr", rate, "--out", str(model),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.filterwarnings("error")
    def test_diverging_learning_rate_fails_without_checkpoint(
        self, capsys, synth_dir, tmp_path
    ):
        model = tmp_path / "m.blpr"
        code = main([
            "train", "--data", str(synth_dir), "--epochs", "2",
            "--lr", "1e300", "--out", str(model),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: epoch 1 batch \d+ diverged: [^\n]*\n", err)
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_missing_output_directory_fails_before_training(
        self, capsys, synth_dir, tmp_path, flag
    ):
        model = tmp_path / "m.blpr"
        paths = {"--out": str(model), "--curve": str(tmp_path / "c.csv")}
        paths[flag] = str(tmp_path / "nodir" / "x")
        code = main(["train", "--data", str(synth_dir), "--epochs", "1",
                     "--out", paths["--out"], "--curve", paths["--curve"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {paths[flag]}:")
        assert captured.out == ""
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_existing_directory_as_output_fails_before_training(
        self, capsys, monkeypatch, synth_dir, tmp_path, flag
    ):
        def no_training(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli_module, "train", no_training)
        paths = {"--out": tmp_path / "m.blpr", "--curve": tmp_path / "c.csv"}
        paths[flag].mkdir()
        code = main(["train", "--data", str(synth_dir), "--epochs", "1",
                     "--out", str(paths["--out"]), "--curve", str(paths["--curve"])])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {paths[flag]}:")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [paths[flag].name]

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe\n", "utf-8"),
        ("\n".join(LabelMap().labels[:15]).encode("utf-8"), "got 15"),
    ], ids=["not-utf8", "15-labels"])
    def test_bad_labels_file_names_the_file(
        self, capsys, tmp_path, content, message
    ):
        data = tmp_path / "d"
        data.mkdir()
        (data / "labels.txt").write_bytes(content)
        code = main(["train", "--data", str(data), "--epochs", "1",
                     "--out", str(tmp_path / "m.blpr")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / 'labels.txt'}:")
        assert message in err

    def test_missing_data_dir_fails_cleanly(self, capsys, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--epochs", "1", "--out", str(tmp_path / "m.blpr")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_prints_accuracy_and_confusion(self, capsys, synth_dir, trained):
        model, _ = trained
        assert main(["eval", "--model", str(model), "--data", str(synth_dir)]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        matrix_lines = [l for l in out.splitlines()
                        if l and l.lstrip()[0].isdigit()]
        assert len(matrix_lines) == 16
        assert all(len(l.split()) == 16 for l in matrix_lines)


class TestPredictCommand:
    def test_runs_twice_identically(self, capsys, synth_dir, trained):
        model, _ = trained
        image = next((synth_dir / LabelMap()[0]).glob("*.pgm"))
        assert main(["predict", "--model", str(model), "--image", str(image)]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "--model", str(model), "--image", str(image)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("predicted: ")
        assert len(first.splitlines()) == 17  # prediction + 16 scores

    def test_class_count_label_mismatch_fails_cleanly(self, capsys, synth_dir, tmp_path):
        model = tmp_path / "twenty.blpr"
        save_checkpoint(build_network(NetworkConfig(class_count=20), seed=1),
                        LabelMap(), model)
        image = next((synth_dir / LabelMap()[0]).glob("*.pgm"))
        assert main(["predict", "--model", str(model), "--image", str(image)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err
        assert "Traceback" not in err

    def test_non_finite_checkpoint_fails_cleanly(self, capsys, synth_dir, tmp_path):
        net = build_network(NetworkConfig(), seed=1)
        net.states[-1].weights[3, 0] = float("nan")
        model = tmp_path / "nan.blpr"
        save_checkpoint(net, LabelMap(), model)
        image = next((synth_dir / LabelMap()[0]).glob("*.pgm"))
        assert main(["predict", "--model", str(model), "--image", str(image)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {model}:")
        assert "F2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content", [
        b"P5\n0 0\n255\n",
        b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00",
    ])
    def test_bad_image_header_names_the_file(
        self, capsys, trained, tmp_path, content
    ):
        model, _ = trained
        image = tmp_path / "bad.pgm"
        image.write_bytes(content)
        assert main(["predict", "--model", str(model), "--image", str(image)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {image}:")
        assert "Traceback" not in err


class TestInspectCommand:
    def test_paper_convention_table(self, capsys):
        assert main(["inspect", "--convention", "paper"]) == 0
        out = capsys.readouterr().out
        for value in ("156", "1,872", "93,600", "4,816", "100,444"):
            assert value in out

    def test_standard_convention_table(self, capsys):
        assert main(["inspect", "--convention", "standard"]) == 0
        out = capsys.readouterr().out
        for value in ("156", "1,812", "90,300", "4,816", "97,084"):
            assert value in out

    def test_repeated_calls_in_one_process_keep_defaults(self, capsys):
        assert main(["inspect", "--convention", "standard"]) == 0
        assert "97,084" in capsys.readouterr().out
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "total (paper convention): 100,444" in out

    def test_unknown_convention_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--convention", "loose"])
        assert exc.value.code == 2


class TestCurveCsv:
    def _report(self, epochs):
        errors = [1.0 / (i + 1) for i in range(epochs)]
        seconds = [0.25] * epochs
        return TrainingReport(
            per_epoch_error=errors,
            per_epoch_seconds=seconds,
            total_seconds=0.25 * epochs,
            avg_seconds_per_epoch=0.25,
            final_train_error=errors[-1],
        )

    def test_row_count_and_numbering(self, tmp_path):
        path = tmp_path / "c.csv"
        export_curve_csv(self._report(100), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == "epoch,mean_error,seconds"
        for k, line in enumerate(lines[1:], start=1):
            assert line.split(",")[0] == str(k)

    def test_reexport_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        report = self._report(7)
        export_curve_csv(report, a)
        export_curve_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_plain_decimal_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        report = self._report(3)
        report.per_epoch_error[1] = 1.2345678901234567e-07
        export_curve_csv(report, path)
        row = path.read_text().splitlines()[2].split(",")
        assert "e" not in row[1] and "E" not in row[1]
        assert float(row[1]) == 1.2345678901234567e-07

    def test_empty_report_rejected(self, tmp_path):
        report = TrainingReport([], [], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            export_curve_csv(report, tmp_path / "x.csv")


class TestCliPlumbing:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_model_path(self, capsys, tmp_path):
        code = main(["eval", "--model", str(tmp_path / "no.blpr"),
                     "--data", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Property: every argument list of every subcommand either works or fails
# with one `error:` line, and a failed command writes nothing.

_ABSENT = None
_HUGE = "99999999999999999999"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """What the drawn argument lists point at, by role: a 2-per-class synth
    tree, a model trained on it, and a missing path, a directory, /dev/null
    and corrupt files for every kind of input."""
    root = tmp_path_factory.mktemp("world")
    tree = root / "tree"
    assert main(["synth", "--out", str(tree), "--per-class", "2", "--seed", "5"]) == 0
    model = root / "model.blpr"
    assert main(["train", "--data", str(tree), "--epochs", "1", "--split", "0.5",
                 "--out", str(model)]) == 0
    image = tree / LabelMap()[3] / "00001.pgm"
    raw = model.read_bytes()
    files = {
        "truncated.blpr": raw[:len(raw) // 2],
        "zero-maps.blpr": raw[:5] + b"\0" + raw[6:],  # in_maps = 0
        "header.pgm": b"P5\n0 0\n255\n",
        "small.ppm": b"P6\n7 5\n255\n" + bytes(range(105)),
        "15-labels.txt": "\n".join(LabelMap().labels[:15]).encode("utf-8"),
        "not-utf8.txt": b"\xff\xfe\n",
        "dot-dot.txt": "\n".join(("..", *LabelMap().labels[1:])).encode("utf-8"),
        "dot.txt": "\n".join((".", *LabelMap().labels[1:])).encode("utf-8"),
        "slash.txt": "\n".join(("a/b", *LabelMap().labels[1:])).encode("utf-8"),
        "nul.txt": "\n".join(("a\0b", *LabelMap().labels[1:])).encode("utf-8"),
        "labels.txt": (tree / "labels.txt").read_bytes(),
    }
    for name, content in files.items():
        (root / name).write_bytes(content)
    bad_tree = root / "bad-tree"
    shutil.copytree(tree, bad_tree)
    (bad_tree / LabelMap()[0] / "00000.pgm").write_bytes(b"P5\n32 32\n255\n")
    (root / "empty").mkdir()
    common = [str(root / "missing"), str(root / "empty"), "/dev/null"]
    bad_labels = ["dot-dot", "dot", "slash", "nul", "15-labels", "not-utf8"]
    return root, {  # role: (good paths, bad paths)
        "data": ([str(tree)], [str(bad_tree), str(root / "labels.txt"), *common]),
        "model": ([str(model)], [str(root / "truncated.blpr"),
                                 str(root / "zero-maps.blpr"), str(image), *common]),
        "image": ([str(image), str(root / "small.ppm")],
                  [str(root / "header.pgm"), str(model), *common]),
        "labels": ([_ABSENT, str(root / "labels.txt")],
                   [*(str(root / f"{name}.txt") for name in bad_labels), *common]),
    }


@st.composite
def _flags(draw, **choices):
    """``--flag=value`` arguments, each read by argparse as one value even
    when it is ``-inf``. Each flag takes one of its good values, absence
    among them, except at most one drawn as faulty, which takes a bad one."""
    faulty = draw(st.sampled_from([None, *choices]))
    argv = []
    for name, (good, bad) in choices.items():
        value = draw(st.sampled_from(bad if name == faulty and bad else good))
        if value is not _ABSENT:
            argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


def _arguments(paths):
    """One argument list for one subcommand, every value of a type its flag
    parses. Outputs are named relative to a fresh working directory, which
    holds a directory ``isdir`` and a file ``afile``. ``--epochs`` and
    ``--per-class`` are never absent: their defaults train for 1,000 epochs
    and write 1,600 images."""
    train = _flags(
        data=paths["data"],
        epochs=(["1", "2"], ["0", "-1", f"-{_HUGE}"]),
        lr=([_ABSENT, "0.5", "3", "1e-300"], ["0", "-1", "-0.0", "nan", "inf", "-inf",
                                             "1e300"]),
        batch=([_ABSENT, "1", "16"], ["17", "0", "-1", _HUGE]),
        dropout=([_ABSENT, "0", "0.5", "0.999"], ["1", "-0.1", "nan", "inf"]),
        split=([_ABSENT, "0.5", "0.99"], ["0.01", "0", "1", "-1", "nan", "inf"]),
        seed=([_ABSENT, "0", _HUGE], ["-1", f"-{_HUGE}"]),
        out=(["out.blpr", "afile"], ["nodir/out.blpr", "isdir", ""]),
        curve=([_ABSENT, "curve.csv"], ["out.blpr", "nodir/curve.csv", "isdir", ""]),
    ).map(lambda a: ["train", *a])
    eval_ = _flags(model=paths["model"], data=paths["data"]).map(
        lambda a: ["eval", *a])
    predict = _flags(model=paths["model"], image=paths["image"]).map(
        lambda a: ["predict", *a])
    inspect = _flags(convention=([_ABSENT, "paper", "standard"], [])).map(
        lambda a: ["inspect", *a])
    synth = _flags(
        out=(["ds", "nodir/ds", "isdir", "."], ["afile", "afile/ds", ""]),
        per_class=(["1", "2"], ["0", "-1", f"-{_HUGE}"]),
        seed=([_ABSENT, "0", _HUGE], ["-1", f"-{_HUGE}"]),
        rotation=([_ABSENT, "0", "-0.0", "15", "1e300"], ["-1", "nan", "inf", "1e308"]),
        scale_low=([_ABSENT, "0.001", "0.5"], ["0", "-1", "1e-300", "2", "nan", "inf"]),
        scale_high=([_ABSENT, "1000", "1.5"], ["1001", "0.1", "nan", "inf"]),
        translate=([_ABSENT, "0", "3", "10000"], ["10001", "1e300", "-1", "nan", "inf"]),
        shear=([_ABSENT, "0", "100"], ["101", "-1", "nan", "inf"]),
        noise=([_ABSENT, "0", "-0.0", "0.5", "1e300"], ["-1", "nan", "inf"]),
        labels=paths["labels"],
    ).map(lambda a: ["synth", *a])
    return {"train": train, "eval": eval_, "predict": predict, "inspect": inspect,
            "synth": synth}


def _value(argv, flag):
    return next((a.split("=", 1)[1] for a in argv if a.startswith(f"{flag}=")), None)


def _listing(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def _check_run(root, argv):
    """Run ``argv`` in a fresh working directory holding ``isdir`` and
    ``afile``: it exits 0, or 1 after one ``error:`` line and nothing else
    written, and what it wrote on success reads back."""
    work = Path(tempfile.mkdtemp(dir=root)).resolve()
    (work / "isdir").mkdir()
    (work / "afile").write_bytes(b"")
    before, tree_before = _listing(work), _listing(root / "tree")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # "" names the working directory
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 1:
        assert re.fullmatch(r"error: [^\n]+\n", err), (argv, err)
        assert out == "", argv
        assert _listing(work) == before, argv
    else:
        assert code == 0 and err == "" and out, (argv, code, err)
        if argv[0] == "train":
            load_checkpoint(work / _value(argv, "--out"))
            if _value(argv, "--curve") is not None:
                curve = work / _value(argv, "--curve")
                assert curve.read_text().startswith("epoch,mean_error,seconds\n")
        if argv[0] == "synth":
            tree = (work / _value(argv, "--out")).resolve()
            if not any((work / p).is_relative_to(tree) for p in before):
                # A tree in a fresh directory reads back whole.
                per_class = int(_value(argv, "--per-class"))
                labels = (tree / "labels.txt").read_text("utf-8").splitlines()
                tree_set = load_dataset_dir(tree, LabelMap(tuple(labels)))
                assert len(tree_set) == 16 * per_class, argv
            new = [work / p for p in _listing(work) if p not in before]
            assert all(p.is_relative_to(tree) or tree.is_relative_to(p) for p in new), argv
    assert _listing(root / "tree") == tree_before, argv
    shutil.rmtree(work)


# Examples per subcommand: about 4 s in all on a 2-CPU host.
@pytest.mark.parametrize("command, examples", [
    ("train", 200), ("eval", 40), ("predict", 40), ("inspect", 3), ("synth", 300),
])
def test_every_argument_list_works_or_fails_with_one_error_line(world, command, examples):
    root, paths = world

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(argv=_arguments(paths)[command])
    def run(argv):
        _check_run(root, argv)

    run()
