"""Damaged checkpoint files: each one loads bit-exactly or raises CheckpointError.

Truncations and single-bit flips are drawn by hypothesis over one small
trained checkpoint, read whole by `load_for_resume`. No damage may surface
as any other exception. `load_checkpoint` runs the same checks and reads
only the parameters; `load_for_resume` reads the parameters and the Adam
moments in one pass.
"""

import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import join, split
from memtrace import traced
from spanqa.checkpoint import (MAGIC, CheckpointError, CheckpointVersionError,
                               CheckpointMetadataError, CheckpointTruncatedError,
                               load_checkpoint, load_for_resume, save_checkpoint)
from spanqa.diagnostics import make_tiny_problem
from spanqa.model import ModelConfig, init_params, param_count, param_shapes
from spanqa.training import AdamState, init_optimizer, train_step

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
HEADER = len(MAGIC) + 8


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@pytest.fixture(scope="module")
def original(workdir):
    """The bytes of a checkpoint after one train step (non-zero Adam moments)."""
    config, params, table, batch = make_tiny_problem(seed=41)
    state = init_optimizer(params)
    train_step(params, batch, table, state, config)
    path = workdir / "original.ckpt"
    save_checkpoint(path, params, config, state)
    return path.read_bytes()


def load_bytes(workdir, raw, load=load_checkpoint):
    path = workdir / "damaged.ckpt"
    path.write_bytes(raw)
    return load(path)


def resaved(workdir, raw):
    """The bytes save_checkpoint writes for what load_for_resume reads from
    a file of bytes `raw`."""
    loaded, state = load_bytes(workdir, raw, load_for_resume)
    path = workdir / "resaved.ckpt"
    save_checkpoint(path, loaded.params, loaded.config, state,
                    best_dev_f1=loaded.best_dev_f1)
    return path.read_bytes()


def flip(raw, bit):
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def test_join_reproduces_a_saved_file(original):
    assert join(*split(original)) == original


@FUZZ
@given(data=st.data())
def test_every_truncation_is_rejected(workdir, original, data):
    cut = data.draw(st.integers(0, len(original) - 1))
    with pytest.raises(CheckpointError):
        load_bytes(workdir, original[:cut], load_for_resume)


@FUZZ
@given(data=st.data())
def test_bit_flip_before_payload_is_rejected(workdir, original, data):
    payload_start = len(original) - len(split(original)[1])
    damaged = flip(original, data.draw(st.integers(0, 8 * payload_start - 1)))
    with pytest.raises(CheckpointError):
        load_bytes(workdir, damaged, load_for_resume)


@FUZZ
@given(data=st.data())
def test_bit_flip_in_payload_loads_the_flipped_value(workdir, original, data):
    payload_start = len(original) - len(split(original)[1])
    bit = data.draw(st.integers(8 * payload_start, 8 * len(original) - 1))
    damaged = flip(original, bit)
    assert resaved(workdir, damaged) == damaged


def test_metadata_has_exactly_five_keys(original):
    metadata, _ = split(original)
    assert sorted(metadata) == ["best_dev_f1", "config", "metadata_crc32", "step",
                                "version"]


@pytest.mark.parametrize("key", ["config", "step", "best_dev_f1"])
def test_missing_metadata_key_is_named(workdir, original, key):
    metadata, payload = split(original)
    del metadata[key]
    with pytest.raises(CheckpointMetadataError, match=key):
        load_bytes(workdir, join(metadata, payload))


def test_metadata_checksum_guards_values(workdir, original):
    # a digit of the step changed in place keeps the JSON valid
    metadata, payload = split(original)
    block = original[HEADER:len(original) - len(payload)]
    assert b'"step":1,' in block
    damaged = original.replace(b'"step":1,', b'"step":7,', 1)
    with pytest.raises(CheckpointMetadataError, match="checksum"):
        load_bytes(workdir, damaged)


def test_missing_checksum_is_rejected(workdir, original):
    metadata, payload = split(original)
    del metadata["metadata_crc32"]
    block = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with pytest.raises(CheckpointMetadataError, match="checksum"):
        load_bytes(workdir, MAGIC + len(block).to_bytes(8, "little") + block + payload)


@pytest.mark.parametrize("extra", [{"tensors": [["encoder.l0.W", [8, 9], 0]]},
                                   {"extra": None},
                                   {"tensors": [], "extra": 1}],
                         ids=["tensors", "extra", "both"])
def test_unknown_metadata_key_is_named(workdir, original, extra):
    # a leftover key of an older format, or any other, is refused by name
    # even under a valid checksum
    metadata, payload = split(original)
    with pytest.raises(CheckpointMetadataError,
                       match=re.escape(f"unknown metadata keys {sorted(extra)}")):
        load_bytes(workdir, join({**metadata, **extra}, payload))


@pytest.mark.parametrize("value", ["70", True])
def test_mistyped_best_dev_f1_is_rejected(workdir, original, value):
    metadata, payload = split(original)
    metadata["best_dev_f1"] = value
    with pytest.raises(CheckpointMetadataError, match="best_dev_f1"):
        load_bytes(workdir, join(metadata, payload))


@pytest.mark.parametrize("key,value", [("hidden_size", True), ("hidden_size", 4.0),
                                       ("dropout_rate", "0.1"), ("seed", None),
                                       ("context_cap", False)])
def test_mistyped_config_field_is_rejected(workdir, original, key, value):
    metadata, payload = split(original)
    metadata["config"][key] = value
    with pytest.raises(CheckpointMetadataError, match=key):
        load_bytes(workdir, join(metadata, payload))


def test_config_with_encoder_layers_is_rejected(workdir, original):
    # format 3 stored the encoder's depth; the model now fixes it at 2
    metadata, payload = split(original)
    metadata["config"]["encoder_layers"] = 2
    with pytest.raises(CheckpointMetadataError, match="encoder_layers"):
        load_bytes(workdir, join(metadata, payload))


def test_out_of_range_config_field_is_rejected(workdir, original):
    metadata, payload = split(original)
    metadata["config"]["context_cap"] = 0
    with pytest.raises(CheckpointMetadataError, match="context_cap"):
        load_bytes(workdir, join(metadata, payload))


def test_int_in_float_config_field_loads(workdir, original):
    metadata, payload = split(original)
    metadata["config"]["dropout_rate"] = 0
    assert load_bytes(workdir, join(metadata, payload)).config.dropout_rate == 0


def test_metadata_length_high_bit_is_truncation(workdir, original):
    # the length field is checked against the file before it sizes a read
    with pytest.raises(CheckpointTruncatedError, match="metadata block truncated"):
        load_bytes(workdir, flip(original, 8 * HEADER - 1))


@pytest.mark.parametrize("raw", [lambda raw: raw[:-1], lambda raw: raw + b"\0"],
                         ids=["short", "long"])
def test_payload_one_byte_off_is_truncation(workdir, original, raw):
    with pytest.raises(CheckpointTruncatedError, match="layout expects"):
        load_bytes(workdir, raw(original))


def test_loaded_tensors_own_their_memory(workdir, original):
    loaded, state = load_bytes(workdir, original, load_for_resume)
    tensors = [*loaded.params.values(), *state.m.values(), *state.v.values()]
    for tensor in tensors:
        assert tensor.dtype == np.dtype("<f4")
        assert tensor.flags.c_contiguous and tensor.flags.writeable
        assert tensor.flags.owndata
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(tensors, 2))


def test_only_the_resume_loader_reads_the_moments(tmp_path):
    # load_checkpoint holds the parameters and a small fixed overhead
    # (metadata, layout, dicts), not the moments' twice as many bytes
    config = ModelConfig(hidden_size=32, embedding_dim=20)
    params = init_params(config)
    rng = np.random.default_rng(5)
    state = init_optimizer(params)
    for moments in (state.m, state.v):
        for name in moments:
            moments[name] = rng.normal(size=params[name].shape).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, state)
    _, _, peak = traced(load_checkpoint, path)
    assert peak < sum(p.nbytes for p in params.values()) + 128 * 1024
    loaded, read = load_for_resume(path)
    assert read.step == state.step
    for name in params:
        assert np.array_equal(loaded.params[name], params[name])
        assert np.array_equal(read.m[name], state.m[name])
        assert np.array_equal(read.v[name], state.v[name])


def test_payload_is_twelve_bytes_per_parameter(workdir, original):
    # each parameter and its two Adam moments, float32 each
    config = load_bytes(workdir, original).config
    payload = split(original)[1]
    assert len(payload) == 12 * param_count(init_params(config))


def counting(shapes, start):
    """A tensor of each shape, in parameter order, counting up in eighths
    from `start`; the count where the last one stops."""
    tensors = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        tensors[name] = (np.arange(start, start + size, dtype=np.float32) / 8).reshape(shape)
        start += size
    return tensors, start


# the sha256 of the file saved below in format 6; a change to key order,
# separators, tensor shapes, tensor order or payload bytes moves it
PINNED_SHA256 = "ed7af744b62a3ea0a613c93de072eba1bcaea3689e491f3eeb4431c67486551b"


def test_format_6_bytes_are_pinned(tmp_path):
    # no random numbers, so only a change to the format can move the digest
    config = ModelConfig(hidden_size=2, embedding_dim=3, seed=4)
    shapes = param_shapes(config)
    params, count = counting(shapes, 0)
    m, count = counting(shapes, count)
    v, _ = counting(shapes, count)
    path = tmp_path / "pinned.ckpt"
    save_checkpoint(path, params, config, AdamState(m=m, v=v, step=7), best_dev_f1=12.5)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
    loaded, state = load_for_resume(path)
    assert (loaded.config, state.step, loaded.best_dev_f1) == (config, 7, 12.5)
    for name in shapes:
        assert np.array_equal(loaded.params[name], params[name]), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


@pytest.mark.parametrize("version", ["6", 6.0, True, None, [6], 1, 2, 3, 3.0, 4, 4.0, [4],
                                     5, 5.0])
def test_other_versions_are_rejected(workdir, original, version):
    metadata, payload = split(original)
    metadata["version"] = version
    with pytest.raises(CheckpointVersionError,
                       match=re.escape(f"format version {version!r}, expected 6")):
        load_bytes(workdir, join(metadata, payload))
