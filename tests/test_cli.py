import builtins
import dataclasses
import errno
import json
import math
import re

import numpy as np
import pytest

from conftest import join, split, write_squad
from spanqa import autodiff as ad
from spanqa import diagnostics, training
from spanqa.checkpoint import FORMAT_VERSION, load_checkpoint, load_for_resume
from spanqa import cli
from spanqa.cli import main
from spanqa.metrics import evaluate
from spanqa.data import load_squad
from spanqa.model import ModelConfig, param_shapes


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, fixtures_dir):
    """A quick 12-iteration checkpoint over the tiny fixture."""
    out = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    code = main([
        "train", "--data", str(fixtures_dir / "tiny_squad.json"),
        "--glove", str(fixtures_dir / "tiny_glove.txt"),
        "--out", str(out), "--iters", "12", "--batch-size", "8",
        "--hidden", "8", "--dropout", "0.0", "--embed-dim", "32", "--seed", "1",
    ])
    assert code == 0
    return out


class TestStats:
    def test_tiny_fixture_fractions(self, fixtures_dir, capsys):
        code = main(["stats", "--data", str(fixtures_dir / "tiny_squad.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "examples: 32" in out
        assert "answers under 20 tokens:  100.00%" in out
        assert "contexts under 300 tokens: 100.00%" in out

    def test_hand_counted_fractions(self, tmp_path, capsys):
        long_context = " ".join(["word"] * 350)
        short_context = "the answer is here because twenty one tokens " \
                        "pad pad pad pad pad pad pad pad pad pad pad pad"
        path = write_squad(tmp_path, [
            (long_context, [("q1", "What?", [("word word", 0)])]),
            (short_context, [("q2", "What?", [("here", short_context.index("here"))])]),
        ])
        code = main(["stats", "--data", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "answers under 20 tokens:  100.00%" in out
        assert "contexts under 300 tokens: 50.00%" in out

    def test_wrong_field_type_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = write_squad(tmp_path, [("ab cd", [("q1", "Q?", [("cd", "3")])])])
        code = main(["stats", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "answer_start" in err
        assert "Traceback" not in err

    def test_missing_file_exit_code(self, capsys):
        code = main(["stats", "--data", "/nonexistent/squad.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "/nonexistent/squad.json" in err


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained_checkpoint):
        assert trained_checkpoint.exists()
        log = trained_checkpoint.with_suffix(".ckpt.log")
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["iteration"] for r in records] == list(range(1, 13))
        assert all("train_loss" in r and "seconds" in r for r in records)

    def test_identical_logs_across_runs(self, fixtures_dir, tmp_path):
        logs = []
        for run in range(2):
            out = tmp_path / f"run{run}.ckpt"
            code = main([
                "train", "--data", str(fixtures_dir / "tiny_squad.json"),
                "--glove", str(fixtures_dir / "tiny_glove.txt"),
                "--out", str(out), "--iters", "6", "--batch-size", "8",
                "--hidden", "8", "--dropout", "0.1", "--embed-dim", "32",
                "--seed", "4",
            ])
            assert code == 0
            records = [json.loads(line)
                       for line in (tmp_path / f"run{run}.ckpt.log").read_text().splitlines()]
            # wall-clock seconds necessarily differ between runs
            logs.append([(r["iteration"], r["train_loss"]) for r in records])
        assert logs[0] == logs[1]

    def test_dev_eval_records(self, fixtures_dir, tmp_path):
        out = tmp_path / "dev.ckpt"
        code = main([
            "train", "--data", str(fixtures_dir / "tiny_squad.json"),
            "--dev", str(fixtures_dir / "tiny_squad.json"),
            "--glove", str(fixtures_dir / "tiny_glove.txt"),
            "--out", str(out), "--iters", "4", "--batch-size", "8",
            "--hidden", "8", "--dropout", "0.0", "--embed-dim", "32",
            "--eval-every", "2", "--seed", "2",
        ])
        assert code == 0
        records = [json.loads(line)
                   for line in (tmp_path / "dev.ckpt.log").read_text().splitlines()]
        assert [r["iteration"] for r in records if "dev_f1" in r] == [2, 4]


    def test_dev_run_keeps_best_checkpoint_and_writes_last(self, fixtures_dir,
                                                           tmp_path, monkeypatch,
                                                           capsys):
        # dev F1 peaks at iteration 4 of 6: --out must keep that model
        scores = iter([40.0, 70.0, 55.0])
        real_evaluate = training.evaluate

        def scripted(predictions, examples):
            return dataclasses.replace(real_evaluate(predictions, examples),
                                       f1=next(scores))

        monkeypatch.setattr(training, "evaluate", scripted)
        out = tmp_path / "best.ckpt"
        code = main([
            "train", "--data", str(fixtures_dir / "tiny_squad.json"),
            "--dev", str(fixtures_dir / "tiny_squad.json"),
            "--glove", str(fixtures_dir / "tiny_glove.txt"),
            "--out", str(out), "--iters", "6", "--batch-size", "8",
            "--hidden", "8", "--dropout", "0.0", "--embed-dim", "32",
            "--eval-every", "2", "--seed", "2",
        ])
        assert code == 0
        assert load_for_resume(out)[1].step == 4
        assert load_for_resume(f"{out}.last")[1].step == 6
        printed = capsys.readouterr().out
        assert f"checkpoint at {out}.last" in printed
        assert f"best dev F1 70.00; checkpoint at {out}" in printed

    def test_resumed_dev_run_keeps_best_checkpoint(self, fixtures_dir, tmp_path,
                                                   monkeypatch, capsys):
        # dev F1 peaks at the first eval: a resumed run must not overwrite
        # --out with a worse model at its first eval
        scores = iter([70.0, 40.0, 10.0])
        real_evaluate = training.evaluate

        def scripted(predictions, examples):
            return dataclasses.replace(real_evaluate(predictions, examples),
                                       f1=next(scores))

        monkeypatch.setattr(training, "evaluate", scripted)
        out = tmp_path / "best.ckpt"
        common = ["--data", str(fixtures_dir / "tiny_squad.json"),
                  "--dev", str(fixtures_dir / "tiny_squad.json"),
                  "--glove", str(fixtures_dir / "tiny_glove.txt"),
                  "--out", str(out), "--batch-size", "8", "--eval-every", "2"]
        assert main(["train", *common, "--iters", "4", "--hidden", "8",
                     "--dropout", "0.0", "--embed-dim", "32", "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["train", *common, "--iters", "6",
                     "--resume", f"{out}.last"]) == 0
        assert load_for_resume(out)[1].step == 2
        last, state = load_for_resume(f"{out}.last")
        assert (state.step, last.best_dev_f1) == (6, 70.0)
        assert f"best dev F1 70.00; checkpoint at {out}" in capsys.readouterr().out

    def test_resume_without_dev_keeps_the_best_checkpoint(self, fixtures_dir,
                                                           tmp_path, capsys,
                                                           monkeypatch):
        # the checkpoint records a best dev F1: resumed without --dev, the
        # final model would replace the best-dev one at --out under that F1,
        # so the run is refused before any data is loaded or file written
        out = tmp_path / "m.ckpt"
        files = ["--data", str(fixtures_dir / "tiny_squad.json"),
                 "--glove", str(fixtures_dir / "tiny_glove.txt"),
                 "--out", str(out), "--batch-size", "8"]
        assert main(["train", *files, "--dev", str(fixtures_dir / "tiny_squad.json"),
                     "--eval-every", "2", "--iters", "4", "--hidden", "8",
                     "--embed-dim", "32"]) == 0
        written = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert load_checkpoint(out).best_dev_f1 is not None
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_squad",
                            lambda *args: pytest.fail("the data were loaded"))
        code = main(["train", *files, "--resume", f"{out}.last", "--iters", "6"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--dev" in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written

    def test_run_without_dev_writes_only_out(self, trained_checkpoint):
        assert load_for_resume(trained_checkpoint)[1].step == 12
        assert not trained_checkpoint.with_suffix(".ckpt.last").exists()

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"),
                                            ("--eval-every", "0"),
                                            ("--eval-every", "-1"),
                                            ("--max-answer-len", "0"),
                                            ("--context-cap", "0"),
                                            ("--lr", "0"),
                                            ("--lr", "-0.001"),
                                            ("--lr", "nan"),
                                            ("--iters", "-1")])
    def test_nonpositive_count_is_an_error(self, fixtures_dir, tmp_path, capsys,
                                           monkeypatch, flag, value):
        # rejected before any file is loaded or opened, so an earlier run's
        # checkpoint and log keep their bytes
        monkeypatch.setattr(cli, "load_squad",
                            lambda *args: pytest.fail("the data were loaded"))
        monkeypatch.setattr(training, "train_step",
                            lambda *args: pytest.fail("a train step ran"))
        fixture = str(fixtures_dir / "tiny_squad.json")
        out = tmp_path / "m.ckpt"
        log = tmp_path / "m.ckpt.log"
        out.write_bytes(b"an earlier checkpoint")
        log.write_text('{"iteration": 1}\n')
        code = main(["train", "--data", fixture, "--dev", fixture,
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--out", str(out), "--iters", "2", "--hidden", "4",
                     "--embed-dim", "32", flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert flag[2:].replace("-", "_") in err
        assert out.read_bytes() == b"an earlier checkpoint"
        assert log.read_text() == '{"iteration": 1}\n'

    def test_missing_out_directory_fails_before_training(self, fixtures_dir,
                                                         tmp_path, capsys,
                                                         monkeypatch):
        # a missing directory, an --out that is a directory, and with --dev a
        # <out>.last that is one: each fails before anything is trained
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kw: calls.append(args))
        data = str(fixtures_dir / "tiny_squad.json")
        missing, directory = tmp_path / "absent", tmp_path / "dir.ckpt"
        best = tmp_path / "best.ckpt"
        directory.mkdir()
        (tmp_path / "best.ckpt.last").mkdir()
        cases = [(missing / "m.ckpt", [], 2, f"file not found: {missing}"),
                 (directory, [], 1, f"error: [Errno {errno.EISDIR}] is a directory: "
                                    f"'{directory}'"),
                 (best, ["--dev", data], 1, f"error: [Errno {errno.EISDIR}] is a "
                                            f"directory: '{best}.last'")]
        for out, flags, want, message in cases:
            code = main(["train", "--data", data,
                         "--glove", str(fixtures_dir / "tiny_glove.txt"),
                         "--out", str(out), "--log", str(tmp_path / "m.log"),
                         "--iters", "2", *flags])
            assert (code, capsys.readouterr().err) == (want, message + "\n")
        assert calls == []


    def test_missing_log_directory_fails_before_loading(self, fixtures_dir, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_squad",
                            lambda *args: pytest.fail("the data were loaded"))
        missing = tmp_path / "absent"
        code = main(["train", "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--out", str(tmp_path / "m.ckpt"), "--log", str(missing / "m.log")])
        assert (code, capsys.readouterr().err) == (2, f"file not found: {missing}\n")


class TestResumeFlags:
    def _resume(self, checkpoint, fixtures_dir, out, *flags):
        return main([
            "train", "--data", str(fixtures_dir / "tiny_squad.json"),
            "--glove", str(fixtures_dir / "tiny_glove.txt"),
            "--out", str(out), "--iters", "14", "--batch-size", "8",
            "--resume", str(checkpoint), *flags,
        ])

    @pytest.mark.parametrize("flags,name", [
        (("--hidden", "16"), "--hidden"),
        (("--embed-dim", "50"), "--embed-dim"),
        (("--dropout", "0.3"), "--dropout"),
        (("--context-cap", "100"), "--context-cap"),
        (("--seed", "2"), "--seed"),
    ])
    def test_conflicting_flag_rejected(self, trained_checkpoint, fixtures_dir,
                                       tmp_path, capsys, flags, name):
        out = tmp_path / "resumed.ckpt"
        code = self._resume(trained_checkpoint, fixtures_dir, out, *flags)
        assert code == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_matching_or_omitted_flags_accepted(self, trained_checkpoint,
                                                fixtures_dir, tmp_path):
        out = tmp_path / "resumed.ckpt"
        code = self._resume(trained_checkpoint, fixtures_dir, out,
                            "--hidden", "8", "--dropout", "0.0", "--seed", "1")
        assert code == 0
        records = [json.loads(line)
                   for line in (tmp_path / "resumed.ckpt.log").read_text().splitlines()]
        assert [r["iteration"] for r in records] == [13, 14]

    def test_resumed_log_drops_the_abandoned_runs_records(self, fixtures_dir,
                                                          tmp_path):
        # train to 5, resume to 8, then resume from the step-5 copy to 10:
        # the log must not hold iterations 6-8 twice
        out, copy = tmp_path / "m.ckpt", tmp_path / "step5.ckpt"

        def run(iters, *flags):
            assert main(["train", "--data", str(fixtures_dir / "tiny_squad.json"),
                         "--glove", str(fixtures_dir / "tiny_glove.txt"),
                         "--out", str(out), "--iters", str(iters),
                         "--batch-size", "8", "--hidden", "8", "--embed-dim", "32",
                         *flags]) == 0

        run(5)
        copy.write_bytes(out.read_bytes())
        run(8, "--resume", str(out))
        run(10, "--resume", str(copy))
        log = (tmp_path / "m.ckpt.log").read_text().splitlines()
        records = [json.loads(line) for line in log]
        assert [r["iteration"] for r in records] == list(range(1, 11))

    @pytest.mark.parametrize("lines,kept", [
        (['{"iteration": 1}\n', '{"iteration": 2}\n', '{"iteration": 3}\n'], 2),
        (['{"iteration": 1}\n', '{"iteration": 2}\n', '{"iteration'], 2),
        (['{"iteration": 1}\n', '{"iteration": 2}'], 1),
        (['{"iteration": 1}\n', 'not json\n', '{"iteration": 2}\n'], 1),
        (['{"iteration": 1}\n', '{"loss": 2}\n', '{"iteration": 2}\n'], 1),
        (['{"iteration": 3}\n', '{"iteration": 1}\n', '{"iteration": 2}\n'], 3),
    ])
    def test_resumed_log_keeps_records_up_to_the_step(self, tmp_path, lines, kept):
        # at step 2; a line that does not parse or has no newline ends the scan
        path = tmp_path / "train.log"
        path.write_text("".join(lines))
        with cli._open_resumed_log(path, 2) as handle:
            handle.write('{"iteration": 3}\n')
        assert path.read_text() == "".join(
            lines[:kept]) + '{"iteration": 3}\n'

    def test_resume_may_overwrite_its_own_checkpoint(self, trained_checkpoint,
                                                      fixtures_dir, tmp_path):
        # the Adam moments are read from --resume before --out is first
        # written, so both flags may name one file
        other = tmp_path / "other.ckpt"
        same = tmp_path / "same.ckpt"
        same.write_bytes(trained_checkpoint.read_bytes())
        assert self._resume(trained_checkpoint, fixtures_dir, other) == 0
        assert self._resume(same, fixtures_dir, same) == 0
        assert load_for_resume(same)[1].step == 14
        assert same.read_bytes() == other.read_bytes()


class TestPredictAndEval:
    def test_predictions_file(self, trained_checkpoint, fixtures_dir, tmp_path,
                              capsys):
        out = tmp_path / "preds.json"
        code = main([
            "predict", "--ckpt", str(trained_checkpoint),
            "--data", str(fixtures_dir / "tiny_squad.json"),
            "--glove", str(fixtures_dir / "tiny_glove.txt"),
            "--out", str(out), "--batch-size", "8",
        ])
        assert code == 0
        predictions = json.loads(out.read_text())
        examples = load_squad(fixtures_dir / "tiny_squad.json")
        assert sorted(predictions) == sorted(ex.qid for ex in examples)
        assert list(predictions) == sorted(predictions)  # keys sorted on disk
        by_qid = {ex.qid: ex for ex in examples}
        for qid, answer in predictions.items():
            assert answer in by_qid[qid].context_text  # original-case substring

    def test_predictions_feed_evaluate_same_as_eval(self, trained_checkpoint,
                                                    fixtures_dir, tmp_path,
                                                    capsys):
        out = tmp_path / "preds.json"
        main(["predict", "--ckpt", str(trained_checkpoint),
              "--data", str(fixtures_dir / "tiny_squad.json"),
              "--glove", str(fixtures_dir / "tiny_glove.txt"),
              "--out", str(out), "--batch-size", "8"])
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(trained_checkpoint),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--batch-size", "8"])
        printed = capsys.readouterr().out
        assert code == 0
        match = re.search(r"F1: ([0-9.]+)\s+EM: ([0-9.]+)", printed)
        examples = load_squad(fixtures_dir / "tiny_squad.json")
        report = evaluate(json.loads(out.read_text()), examples)
        assert float(match.group(1)) == pytest.approx(report.f1, abs=0.005)
        assert float(match.group(2)) == pytest.approx(report.em, abs=0.005)
        assert "Who" in printed and "Other" in printed  # category table shape

    def test_eval_deterministic(self, trained_checkpoint, fixtures_dir, capsys):
        outputs = []
        for _ in range(2):
            main(["eval", "--ckpt", str(trained_checkpoint),
                  "--data", str(fixtures_dir / "tiny_squad.json"),
                  "--glove", str(fixtures_dir / "tiny_glove.txt"),
                  "--batch-size", "8"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_empty_data_writes_empty_object(self, trained_checkpoint,
                                            fixtures_dir, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"data": []}))
        out = tmp_path / "empty_preds.json"
        code = main(["predict", "--ckpt", str(trained_checkpoint),
                     "--data", str(empty),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == {}

    def test_unwritable_out(self, trained_checkpoint, fixtures_dir, tmp_path,
                            capsys, monkeypatch):
        def decode(*args, **kwargs):
            raise AssertionError("decoded before checking the output directory")

        monkeypatch.setattr(training, "predict_answers", decode)
        # a missing directory, and an --out that is a directory
        for out in ["/nonexistent-dir/preds.json", str(tmp_path)]:
            code = main(["predict", "--ckpt", str(trained_checkpoint),
                         "--data", str(fixtures_dir / "tiny_squad.json"),
                         "--glove", str(fixtures_dir / "tiny_glove.txt"),
                         "--out", out])
            assert code == 3
            assert capsys.readouterr().err.startswith(
                f"cannot write predictions to {out}: ")

    def test_failed_write_keeps_the_previous_file(self, trained_checkpoint,
                                                  fixtures_dir, tmp_path, capsys,
                                                  monkeypatch):
        out = tmp_path / "preds.json"
        out.write_bytes(b'{"q": "an earlier answer"}\n')
        real_open = builtins.open

        class DiskFull:
            """A handle to `out` or its temp file: a write writes half its
            data, then raises."""
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return DiskFull(handle) if str(file).startswith(str(out)) else handle

        monkeypatch.setattr(builtins, "open", failing_open)
        code = main(["predict", "--ckpt", str(trained_checkpoint),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"), "--out", str(out)])
        monkeypatch.undo()
        assert code == 3
        assert capsys.readouterr().err.startswith(f"cannot write predictions to {out}: ")
        assert out.read_bytes() == b'{"q": "an earlier answer"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.json"]

    def test_non_string_id_is_an_error_not_a_traceback(self, trained_checkpoint,
                                                       fixtures_dir, tmp_path,
                                                       capsys):
        # an int id beside a string one made sorting the predictions raise
        path = write_squad(tmp_path, [("ab cd", [(7, "Q?", [("cd", 3)]),
                                                 ("b", "Q?", [("ab", 0)])])])
        code = main(["eval", "--ckpt", str(trained_checkpoint), "--data", str(path),
                     "--glove", str(fixtures_dir / "tiny_glove.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'id'" in err
        assert "Traceback" not in err

    def test_repeated_id_is_an_error(self, trained_checkpoint, fixtures_dir,
                                     tmp_path, capsys):
        path = write_squad(tmp_path, [("ab cd", [("q1", "Q?", [("cd", 3)]),
                                                 ("q1", "Q?", [("ab", 0)])])])
        code = main(["eval", "--ckpt", str(trained_checkpoint), "--data", str(path),
                     "--glove", str(fixtures_dir / "tiny_glove.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'q1' is repeated" in err

    def test_perfect_predictions_fixture(self, fixtures_dir):
        # feeding gold answers straight through scores 100/100
        examples = load_squad(fixtures_dir / "tiny_squad.json")
        gold = {ex.qid: ex.answer_texts[0] for ex in examples}
        report = evaluate(gold, examples)
        assert report.f1 == 100.0
        assert report.em == 100.0

    def test_directory_as_checkpoint(self, fixtures_dir, tmp_path, capsys):
        code = main(["eval", "--ckpt", str(tmp_path),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_nonpositive_max_answer_len_is_named(self, trained_checkpoint,
                                                 fixtures_dir, tmp_path, capsys,
                                                 command):
        out = tmp_path / "preds.json"
        code = main([command, "--ckpt", str(trained_checkpoint),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--max-answer-len", "0"]
                    + (["--out", str(out)] if command == "predict" else []))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: max_answer_len must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--batch-size", "--max-answer-len"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_nonpositive_size_fails_before_loading(self, trained_checkpoint,
                                                   fixtures_dir, tmp_path, capsys,
                                                   monkeypatch, command, flag):
        for module, name in [(cli, "load_squad"), (cli, "load_glove"),
                             (cli.ckpt, "load_checkpoint")]:
            monkeypatch.setattr(module, name, lambda *args, _name=name, **kw:
                                pytest.fail(f"{_name} was called"))
        out = tmp_path / "preds.json"
        code = main([command, "--ckpt", str(trained_checkpoint),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"), flag, "0"]
                    + (["--out", str(out)] if command == "predict" else []))
        field = flag[2:].replace("-", "_")
        assert (code, capsys.readouterr().err) == (
            1, f"error: {field} must be >= 1, got 0\n")
        assert not out.exists()

    def test_corrupt_checkpoint_version(self, trained_checkpoint, tmp_path,
                                        fixtures_dir, capsys):
        mutated = tmp_path / "bad.ckpt"
        current = b'"version":%d' % FORMAT_VERSION
        raw = trained_checkpoint.read_bytes()
        assert current in raw
        mutated.write_bytes(raw.replace(current, b'"version":7', 1))
        code = main(["eval", "--ckpt", str(mutated),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt")])
        assert code == 1
        assert "version" in capsys.readouterr().err


def format_5_tensors(raw):
    """The metadata and payload tensors of a saved checkpoint as format 5 laid
    them out: each head's FC2 bias b2 (zero, with zero moments) among the
    parameters, and every parameter and its two Adam moments, the moments
    named adam.m/<name> and adam.v/<name>, sorted by name."""
    metadata, payload = split(raw)
    shapes = param_shapes(ModelConfig(**metadata["config"]))
    flat = np.frombuffer(payload, "<f4")
    tensors, offset = {}, 0
    for prefix in ("", "adam.m/", "adam.v/"):
        for name, shape in shapes.items():
            size = math.prod(shape)
            tensors[prefix + name] = flat[offset:offset + size].reshape(shape)
            offset += size
        for head in ("start_head", "end_head"):
            tensors[f"{prefix}{head}.b2"] = np.zeros(1, "<f4")
    return metadata, dict(sorted(tensors.items()))


def format_5(raw, version=5):
    """A saved checkpoint's bytes as format 5 wrote them. Format 4 held the
    same bytes under its own version number, each LSTM direction's W and b a
    tensor of its own; the version alone refuses either file."""
    metadata, tensors = format_5_tensors(raw)
    metadata["version"] = version
    return join(metadata, b"".join(t.tobytes() for t in tensors.values()))


def format_3(raw):
    """A saved checkpoint's bytes as format 3 wrote them: version 3, the
    encoder's depth in the config, and a manifest of the tensor layout."""
    metadata, tensors = format_5_tensors(raw)
    manifest, offset = [], 0
    for name, tensor in tensors.items():
        manifest.append({"name": name, "shape": list(tensor.shape), "offset": offset})
        offset += tensor.nbytes
    metadata.update(version=3, tensors=manifest)
    metadata["config"]["encoder_layers"] = 2
    return join(metadata, b"".join(t.tobytes() for t in tensors.values()))


@pytest.mark.parametrize("command,flag", [("eval", "--ckpt"), ("train", "--resume")])
def test_format_3_checkpoint_is_refused_by_name(trained_checkpoint, fixtures_dir,
                                                tmp_path, capsys, monkeypatch,
                                                command, flag):
    # and format-4 and format-5 files the same way
    monkeypatch.setattr(cli, "load_squad",
                        lambda *args: pytest.fail("the data were loaded"))
    out = tmp_path / "new.ckpt"
    for version, convert in [(3, format_3), (4, lambda raw: format_5(raw, 4)),
                             (5, format_5)]:
        old = tmp_path / f"format{version}.ckpt"
        old.write_bytes(convert(trained_checkpoint.read_bytes()))
        code = main([command, flag, str(old),
                     "--data", str(fixtures_dir / "tiny_squad.json"),
                     "--glove", str(fixtures_dir / "tiny_glove.txt")]
                    + (["--out", str(out)] if command == "train" else []))
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {old}: format version {version}, expected 6\n")
        assert not out.exists()


def _name(flags: dict, flag: str, path) -> None:
    """Point `flag` at `path`; "<out>.last" names it through --out."""
    if flag == "<out>.last":
        flags["--out"] = path.with_suffix("")   # shared.last -> shared
    else:
        flags[flag] = path


def _refuse_reads(monkeypatch):
    for module, attr in [(cli, "load_squad"), (cli, "load_glove"),
                         (cli.ckpt, "load_checkpoint"), (cli.ckpt, "load_for_resume")]:
        monkeypatch.setattr(module, attr,
                            lambda *args, **kw: pytest.fail("an input was read"))


class TestOutputNamesAnInput:
    """An output path that names one of the run's inputs is refused, naming
    both flags, before any file is read or written."""

    @pytest.mark.parametrize("output,other", [
        *((out, source) for out in ("--out", "<out>.last", "--log")
          for source in ("--data", "--dev", "--glove")),
        ("--log", "--resume"), ("--log", "--out"), ("--log", "<out>.last"),
    ])
    def test_train_refuses(self, trained_checkpoint, fixtures_dir, tmp_path,
                           capsys, monkeypatch, output, other):
        squad, glove = fixtures_dir / "tiny_squad.json", fixtures_dir / "tiny_glove.txt"
        shared = tmp_path / "shared.last"
        source = {"--data": squad, "--dev": squad, "--glove": glove}.get(
            other, trained_checkpoint)
        shared.write_bytes(source.read_bytes())
        flags = {"--data": squad, "--dev": squad, "--glove": glove,
                 "--out": tmp_path / "m.ckpt", "--log": tmp_path / "m.log"}
        _name(flags, output, shared)
        _name(flags, other, shared)
        written = {path: path.read_bytes() for path in tmp_path.iterdir()}
        _refuse_reads(monkeypatch)
        code = main(["train", *(str(part) for item in flags.items() for part in item),
                     "--iters", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and output in err and other in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written

    @pytest.mark.parametrize("other", ["--data", "--glove", "--ckpt"])
    def test_predict_refuses(self, trained_checkpoint, fixtures_dir, tmp_path,
                             capsys, monkeypatch, other):
        flags = {"--data": fixtures_dir / "tiny_squad.json",
                 "--glove": fixtures_dir / "tiny_glove.txt", "--ckpt": trained_checkpoint}
        shared = tmp_path / "shared"
        original = flags[other].read_bytes()
        shared.write_bytes(original)
        flags[other] = flags["--out"] = shared
        _refuse_reads(monkeypatch)
        code = main(["predict", *(str(part) for item in flags.items() for part in item)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--out" in err and other in err
        assert shared.read_bytes() == original

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    def test_a_link_is_the_same_file(self, fixtures_dir, tmp_path, capsys,
                                     monkeypatch, link):
        data = tmp_path / "squad.json"
        data.write_bytes((fixtures_dir / "tiny_squad.json").read_bytes())
        alias = tmp_path / "alias.log"
        (alias.symlink_to if link == "symlink" else alias.hardlink_to)(data)
        _refuse_reads(monkeypatch)
        code = main(["train", "--data", str(data),
                     "--glove", str(fixtures_dir / "tiny_glove.txt"),
                     "--out", str(tmp_path / "m.ckpt"), "--log", str(alias)])
        assert code == 1
        assert "--log" in capsys.readouterr().err
        assert data.read_bytes() == (fixtures_dir / "tiny_squad.json").read_bytes()

    def test_resume_may_continue_its_own_last_checkpoint(self, fixtures_dir,
                                                          tmp_path):
        # with --dev, <out>.last may name --resume: resumed in place, it ends
        # byte for byte as an uninterrupted run's
        def run(out, iters, *flags):
            assert main(["train", "--data", str(fixtures_dir / "tiny_squad.json"),
                         "--dev", str(fixtures_dir / "tiny_squad.json"),
                         "--glove", str(fixtures_dir / "tiny_glove.txt"),
                         "--out", str(out), "--iters", str(iters),
                         "--batch-size", "8", "--eval-every", "2", *flags]) == 0

        model = ["--hidden", "8", "--embed-dim", "32", "--seed", "5"]
        straight, resumed = tmp_path / "straight.ckpt", tmp_path / "resumed.ckpt"
        run(straight, 6, *model)
        run(resumed, 4, *model)
        run(resumed, 6, "--resume", f"{resumed}.last")
        assert (tmp_path / "resumed.ckpt.last").read_bytes() == \
            (tmp_path / "straight.ckpt.last").read_bytes()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_an_input_named_out_tmp_is_kept(trained_checkpoint, fixtures_dir, tmp_path, command):
    # the data is named <out>.tmp, beside --out: writing --out leaves it as it was
    out = tmp_path / {"train": "m.ckpt", "predict": "preds.json"}[command]
    data = tmp_path / f"{out.name}.tmp"
    original = (fixtures_dir / "tiny_squad.json").read_bytes()
    data.write_bytes(original)
    flags = {"train": ["--iters", "2", "--hidden", "8", "--embed-dim", "32",
                       "--batch-size", "8"],
             "predict": ["--ckpt", str(trained_checkpoint)]}[command]
    code = main([command, "--data", str(data), "--glove", str(fixtures_dir / "tiny_glove.txt"),
                 "--out", str(out), *flags])
    assert code == 0
    assert data.read_bytes() == original
    assert out.stat().st_size > 0


class TestGradcheckCommand:
    def test_passes_and_prints_per_op(self, capsys):
        code = main(["gradcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        for op in ("matmul", "cross_entropy", "end_to_end"):
            assert op in out
        assert "all passed" in out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        # an op whose forward is a sum of relus, one `ad.head` with W1 = I,
        # b1 = 0 and W2 = 1, but whose gradient path doubles it: the
        # analytic/numeric mismatch must be reported as a failure
        def relu_sum(x):
            return ad.head([x], np.eye(3), np.zeros(3), np.ones((1, 3)))

        def forged(t):
            frozen = ad.Tensor(t.data.copy())  # same values, no grad path
            doubled = ad.add(relu_sum(t), relu_sum(t))
            return ad.add(doubled, ad.mul(relu_sum(frozen), -1.0))

        real_cases = diagnostics.op_gradcheck_cases
        monkeypatch.setattr(
            diagnostics, "op_gradcheck_cases",
            lambda seed: real_cases(seed) + [
                ("forged", forged, np.random.default_rng(0).normal(size=(3, 3)),
                 np.ones((3, 1)))])
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == 1
        assert re.search(r"^forged .* FAIL$", out, re.MULTILINE)
        assert "gradcheck: FAILURES above" in out


def _run_module(*args):
    """`python -m spanqa.cli ARGS` in a child process that imports the same
    spanqa as this one, installed or not."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spanqa
    source_root = str(Path(spanqa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "spanqa.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entrypoint_runs():
    result = _run_module("gradcheck")
    assert result.returncode == 0
    assert "all passed" in result.stdout


def test_info_log_lines_reach_stderr(fixtures_dir, tmp_path):
    # a 20-token cap leaves some gold spans outside the context, so training
    # drops those examples and says so at INFO level
    result = _run_module(
        "train", "--data", str(fixtures_dir / "tiny_squad.json"),
        "--glove", str(fixtures_dir / "tiny_glove.txt"),
        "--out", str(tmp_path / "m.ckpt"), "--iters", "1", "--batch-size", "4",
        "--hidden", "4", "--embed-dim", "32", "--context-cap", "20")
    assert result.returncode == 0, result.stderr
    assert "INFO spanqa.data: dropped" in result.stderr
