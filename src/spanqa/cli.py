"""Command-line entry point: `qa stats|train|eval|predict|gradcheck`."""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys

from . import checkpoint as ckpt
from . import diagnostics
from . import training
from .data import dataset_stats, load_glove, load_squad, replace_file
from .metrics import CATEGORIES, evaluate
from .model import ModelConfig

EXIT_MISSING_FILE = 2
EXIT_UNWRITABLE = 3

# `qa train` flags that set a ModelConfig field. They default to None, so a
# value given explicitly can be told apart from one left out.
CONFIG_FLAGS = {"--hidden": "hidden_size", "--dropout": "dropout_rate",
                "--embed-dim": "embedding_dim", "--context-cap": "context_cap",
                "--seed": "seed"}


class ResumeConflictError(ValueError):
    """A `qa train --resume` flag contradicts the checkpoint: a model flag
    differs from its config, or `--dev` is missing although it records a
    best dev F1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qa", description="extractive question answering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags `train`, `eval` and `predict` share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True)
    shared.add_argument("--glove", required=True)
    shared.add_argument("--batch-size", type=int, default=40)
    shared.add_argument("--max-answer-len", type=int, default=20)

    stats = sub.add_parser("stats", help="dataset statistics")
    stats.add_argument("--data", required=True, help="SQuAD v1.1 JSON file")

    train = sub.add_parser("train", parents=[shared], help="train a model")
    train.add_argument("--dev", default=None)
    train.add_argument("--out", required=True,
                       help="checkpoint output path; with --dev, the best-dev "
                            "checkpoint, and the final one goes to <out>.last")
    train.add_argument("--log", default=None,
                       help="JSONL training log (default: <out>.log)")
    train.add_argument("--iters", type=int, default=50_000)
    for flag, field in CONFIG_FLAGS.items():
        default = getattr(ModelConfig, field)
        train.add_argument(flag, dest=field, type=type(default),
                           help=f"default {default}")
    train.add_argument("--eval-every", type=int, default=500)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--resume", default=None,
                       help="checkpoint to continue from")

    evalp = sub.add_parser("eval", parents=[shared], help="evaluate a checkpoint")
    evalp.add_argument("--ckpt", required=True)

    predict = sub.add_parser("predict", parents=[shared],
                             help="write a predictions JSON file")
    predict.add_argument("--ckpt", required=True)
    predict.add_argument("--out", required=True)

    grad = sub.add_parser("gradcheck", help="gradient checks for every op")
    grad.add_argument("--seed", type=int, default=0)
    return parser


def _histogram_lines(title, hist, width):
    lines = [title]
    top = max(max(hist), 1)
    for i, count in enumerate(hist):
        lo = i * width + 1
        label = f"{lo:>4}-{lo + width - 1:<4}" if i < len(hist) - 1 else f"{lo:>4}+    "
        bar = "#" * int(round(40 * count / top))
        lines.append(f"  {label} {count:>8} {bar}")
    return lines


def cmd_stats(args) -> int:
    examples = load_squad(args.data)
    stats = dataset_stats(examples)
    print(f"examples: {stats.example_count}")
    print(f"answers under 20 tokens:  {100 * stats.answer_under_20_fraction:.2f}%")
    print(f"contexts under 300 tokens: {100 * stats.context_under_300_fraction:.2f}%")
    for line in _histogram_lines("answer length histogram (tokens):",
                                 stats.answer_length_hist, 2):
        print(line)
    for line in _histogram_lines("context length histogram (tokens):",
                                 stats.context_length_hist, 50):
        print(line)
    return 0


def _given_config(args) -> dict:
    """ModelConfig fields of the model flags given on the command line."""
    return {field: getattr(args, field) for field in CONFIG_FLAGS.values()
            if getattr(args, field) is not None}


def _check_resume_flags(args, loaded: ckpt.CheckpointData) -> None:
    """Reject a model flag whose value differs from the resumed checkpoint's,
    and a resume without --dev of a checkpoint that records a best dev F1:
    its final model would replace the best-dev one at --out under that
    F1."""
    for flag, field in CONFIG_FLAGS.items():
        value, saved = getattr(args, field), getattr(loaded.config, field)
        if value is not None and value != saved:
            raise ResumeConflictError(f"{flag} {value} conflicts with {field}={saved} "
                                      f"in the checkpoint {args.resume}")
    if loaded.best_dev_f1 is not None and not args.dev:
        raise ResumeConflictError(
            f"the checkpoint {args.resume} records a best dev F1 of "
            f"{loaded.best_dev_f1:.2f}; resume it with --dev")


def _open_resumed_log(path, step: int):
    """The JSONL log at `path`, opened to append after iteration `step`.

    A run killed after its checkpoint at `step` may have logged later
    iterations, which the resumed run logs again, so the file is cut after
    its last record at or before `step`. A line that does not parse, such as
    a torn last line, ends the part kept.
    """
    keep = offset = 0
    try:
        with open(path, "rb") as handle:
            for line in handle:
                offset += len(line)
                if not line.endswith(b"\n"):   # torn: every record ends one
                    break
                try:
                    iteration = json.loads(line)["iteration"]
                    if iteration <= step:
                        keep = offset
                except (ValueError, KeyError, TypeError):
                    break
        os.truncate(path, keep)
    except FileNotFoundError:
        pass
    return open(path, "a", encoding="utf-8")


def _check_writable(path) -> None:
    """Raise the OSError that writing a file at `path` would meet because its
    directory is missing or `path` is a directory, before any work is done."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(errno.ENOENT, "no such directory", out_dir)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)


def _same_file(a, b) -> bool:
    """Whether paths `a` and `b` name one file: their real paths match, or
    both exist and os.path.samefile says so (a hard link, say)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:   # one of them does not exist yet
        return False


def _refuse_same_file(outputs: dict, others: dict) -> None:
    """Raise ValueError, naming both flags, if a path in `outputs` names the
    same file as one in `others`; a flag whose path is None is skipped."""
    for out_flag, out in outputs.items():
        for flag, path in others.items():
            if path is not None and _same_file(out, path):
                raise ValueError(f"{out_flag} {out} names the same file as "
                                 f"{flag} {path}; writing it would destroy it")


def cmd_train(args) -> int:
    training.check_settings(args.batch_size, args.max_answer_len, args.eval_every,
                            args.lr, args.iters)
    log_path = args.log or f"{args.out}.log"
    log_flag = "--log" if args.log else "<out>.log"
    checkpoints = {"--out": args.out, **({"<out>.last": f"{args.out}.last"}
                                         if args.dev else {})}
    outputs = {**checkpoints, log_flag: log_path}
    # no output may replace an input. --out may name --resume, which is read
    # whole before any checkpoint is written; the log may name neither.
    _refuse_same_file(outputs, {"--data": args.data, "--dev": args.dev,
                                "--glove": args.glove})
    _refuse_same_file({log_flag: log_path}, {"--resume": args.resume, **checkpoints})
    # fail now, not after loading or training when the file is first written
    for path in outputs.values():
        _check_writable(path)
    if args.resume:
        loaded, state = ckpt.load_for_resume(args.resume)
        _check_resume_flags(args, loaded)
        config, params, best_dev_f1 = loaded.config, loaded.params, loaded.best_dev_f1
    else:
        config = ModelConfig(**_given_config(args))
        params = state = best_dev_f1 = None
    examples = load_squad(args.data)
    dev_examples = load_squad(args.dev) if args.dev else None
    table = load_glove(args.glove, dim=config.embedding_dim)

    def save_improved(result):
        ckpt.save_checkpoint(args.out, result.params, config, result.state,
                             result.best_dev_f1)

    with (_open_resumed_log(log_path, state.step) if args.resume
          else open(log_path, "w", encoding="utf-8")) as log_handle:
        result = training.train(
            examples, table, config, iters=args.iters, batch_size=args.batch_size,
            lr=args.lr, dev_examples=dev_examples, eval_every=args.eval_every,
            max_answer_len=args.max_answer_len, params=params, state=state,
            best_dev_f1=best_dev_f1, log_handle=log_handle,
            on_improve=save_improved)
    # with --dev, --out holds the best-dev model and the final one goes beside it
    last_path = f"{args.out}.last" if args.dev else args.out
    ckpt.save_checkpoint(last_path, result.params, config, result.state,
                         result.best_dev_f1)
    print(f"trained {result.state.step} iterations; checkpoint at {last_path}")
    if args.dev:
        print(f"best dev F1 {result.best_dev_f1:.2f}; checkpoint at {args.out}"
              if result.best_dev_f1 is not None else
              f"no dev evaluation ran; {args.out} not written")
    return 0


def _report_lines(report):
    lines = [f"F1: {report.f1:.2f}  EM: {report.em:.2f}  (n={report.total})",
             f"{'category':<10} {'F1':>7} {'EM':>7} {'count':>7}"]
    lines.append(f"{'Total':<10} {report.f1:>7.2f} {report.em:>7.2f} "
                 f"{report.total:>7}")
    for cat in CATEGORIES:
        if cat in report.per_category:
            f1, em, count = report.per_category[cat]
            lines.append(f"{cat:<10} {f1:>7.2f} {em:>7.2f} {count:>7}")
    return lines


def _load_and_predict(args):
    """Examples of --data and their predicted answers from --ckpt."""
    training.check_settings(args.batch_size, args.max_answer_len)
    loaded = ckpt.load_checkpoint(args.ckpt)
    table = load_glove(args.glove, dim=loaded.config.embedding_dim)
    examples = load_squad(args.data)
    return examples, training.predict_answers(
        examples, loaded.params, table, loaded.config,
        batch_size=args.batch_size, max_answer_len=args.max_answer_len)


def cmd_eval(args) -> int:
    examples, predictions = _load_and_predict(args)
    for line in _report_lines(evaluate(predictions, examples)):
        print(line)
    return 0


def cmd_predict(args) -> int:
    _refuse_same_file({"--out": args.out}, {"--data": args.data,
                                            "--glove": args.glove, "--ckpt": args.ckpt})
    try:
        # fail now, not after every question is decoded
        _check_writable(args.out)
    except OSError as exc:
        print(f"cannot write predictions to {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    _, predictions = _load_and_predict(args)
    text = json.dumps(predictions, ensure_ascii=False, sort_keys=True, indent=1) + "\n"
    try:
        # a failed write leaves an existing predictions file as it was
        replace_file(args.out, lambda handle: handle.write(text.encode("utf-8")))
    except OSError as exc:
        print(f"cannot write predictions to {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    rows, all_ok = diagnostics.run_gradcheck_suite(seed=args.seed)
    for name, err, threshold in rows:
        verdict = "ok" if err < threshold else "FAIL"
        print(f"{name:<19} worst rel err {err:.3e}  (< {threshold:.0e})  {verdict}")
    print("gradcheck: " + ("all passed" if all_ok else "FAILURES above"))
    return 0 if all_ok else 1


_COMMANDS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    # Library modules log through `logging` (dropped examples, empty
    # questions); the command line shows their INFO lines on stderr. A host
    # that configured logging already keeps its own setup.
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
