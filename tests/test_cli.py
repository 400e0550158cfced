import hashlib
import re

import pytest

import blprs.cli as cli_module
from blprs.checkpoint import save_checkpoint
from blprs.cli import export_curve_csv, main
from blprs.data import LabelMap
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
