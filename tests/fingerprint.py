"""Print sha256 prefixes of what training, checkpointing and decoding produce.

Two trees that print the same lines train, save, reload and decode bit for
bit alike on these inputs, so a change meant to keep behaviour can show it
by running this on both trees and comparing the output. Run it from the
repository root:

    PYTHONPATH=src python tests/fingerprint.py

Each line is a name and the first 16 hex digits of a sha256, in one fixed
order. Losses are hashed as float64 values; params, m and v as their float32
tensors laid end to end in `model.param_shapes` order; answers as JSON with
sorted keys; `p_start` and `p_end` as the float32 rows of the first decode
batch of 40. The inputs are the paper-shape examples and dev files of
`perfbench/gen.py` and the bundled fixture.

Two lines follow the hashes: the tracemalloc peaks, in MiB, of paper-shape
train steps 2-4 at B=20 and at B=40, each counted from its step's start,
after step 1 as a warm-up. They are measurements, not hashes, but they are
as repeatable on one host as the hashes are.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from spanqa import checkpoint, data, model, training

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/ is not a package)

FIXTURES = ROOT / "tests" / "fixtures"


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def tensors(named: dict[str, np.ndarray]) -> str:
    return digest(b"".join(np.ascontiguousarray(t).tobytes() for t in named.values()))


def losses(values) -> str:
    return digest(np.array(values, dtype=np.float64).tobytes())


def answers(predictions: dict[str, str]) -> str:
    return digest(json.dumps(predictions, sort_keys=True).encode("utf-8"))


def paper_steps(batch_size: int, steps: int):
    """`steps` train_steps at the paper's shape (seed 1, dropout 0.2) on the
    first batches of `gen.paper_examples(1)`: the losses, params and state,
    and the tracemalloc peak in MiB of each step after the first."""
    examples, table = gen.paper_examples(1)
    config = model.ModelConfig(hidden_size=gen.HIDDEN, dropout_rate=0.2,
                               embedding_dim=gen.EMBED_DIM, context_cap=300, seed=1)
    params = model.init_params(config)
    state = training.init_optimizer(params)
    batches = data.build_batches(examples, table, batch_size,
                                 context_cap=config.context_cap, training=True)
    values, peaks = [], []
    for k, batch in enumerate(batches[:steps]):
        if k:
            tracemalloc.start()
        values.append(training.train_step(params, batch, table, state, config))
        if k:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return values, params, state, peaks


def fixture_run(workdir: Path):
    """A 24-iteration fixture run, its answers on the fixture, and the bytes
    of its checkpoint saved again after `load_for_resume`."""
    examples = data.load_squad(FIXTURES / "tiny_squad.json")
    table = data.load_glove(FIXTURES / "tiny_glove.txt", dim=32)
    config = model.ModelConfig(hidden_size=16, dropout_rate=0.2, embedding_dim=32,
                               seed=3)
    run = training.train(examples, table, config, iters=24, batch_size=8)
    predictions = training.predict_answers(examples, run.params, table, config)
    first, second = workdir / "first.ckpt", workdir / "second.ckpt"
    checkpoint.save_checkpoint(first, run.params, config, run.state)
    loaded, state = checkpoint.load_for_resume(first)
    checkpoint.save_checkpoint(second, loaded.params, loaded.config, state,
                               loaded.best_dev_f1)
    return run, predictions, second.read_bytes()


def dev_outputs(seed: int, workdir: Path):
    """`p_start` and `p_end` of the first decode batch of `gen`'s dev inputs
    for `seed`, and the answers to all of its questions."""
    paths = gen.write_dev_inputs(seed, workdir)
    loaded = checkpoint.load_checkpoint(paths["ckpt"])
    table = data.load_glove(paths["glove"], dim=loaded.config.embedding_dim)
    examples = data.load_squad(paths["squad"])
    first = data.make_batch(examples[:40], table, loaded.config.context_cap)
    out = model.forward(first, loaded.params, table, loaded.config)
    predictions = training.predict_answers(examples, loaded.params, table, loaded.config)
    return out.p_start, out.p_end, predictions


def main() -> None:
    values, params, state, _ = paper_steps(20, 3)
    print("paper B=20 x3 losses", losses(values))
    print("paper B=20 x3 params", tensors(params))
    print("paper B=20 x3 m     ", tensors(state.m))
    print("paper B=20 x3 v     ", tensors(state.v))
    values, params, _, peaks_40 = paper_steps(40, 4)
    print("paper B=40 x4 losses", losses(values))
    print("paper B=40 x4 params", tensors(params))
    with tempfile.TemporaryDirectory() as workdir:
        run, predictions, resaved = fixture_run(Path(workdir))
    print("fixture losses      ", losses([r.train_loss for r in run.records]))
    print("fixture params      ", tensors(run.params))
    print("fixture m           ", tensors(run.state.m))
    print("fixture v           ", tensors(run.state.v))
    print("fixture answers     ", answers(predictions))
    for seed in (1, 2):
        with tempfile.TemporaryDirectory() as workdir:
            p_start, p_end, predictions = dev_outputs(seed, Path(workdir))
        print(f"dev seed {seed} p_start  ", digest(p_start.tobytes()))
        print(f"dev seed {seed} p_end    ", digest(p_end.tobytes()))
        print(f"dev seed {seed} answers  ", answers(predictions))
    print("fixture ckpt resaved", digest(resaved))
    for batch_size, peaks in ((20, paper_steps(20, 4)[3]), (40, peaks_40)):
        print(f"paper B={batch_size} steps 2-4 peak MiB",
              " / ".join(f"{peak:.1f}" for peak in peaks))


if __name__ == "__main__":
    main()
