"""Self-describing binary checkpoints.

Layout: ASCII magic ``QACKPT1\\n``, an 8-byte little-endian length, a JSON
metadata block (format version, model config, iteration, counter-based RNG
root, a tensor manifest of name/shape/byte-offset, and a CRC-32 of the rest of
the metadata), then the raw little-endian float64 tensor payloads in manifest
order. Adam moments are stored alongside parameters under ``adam.m/`` and
``adam.v/`` names. Writes go to a temp file and are renamed into place, so an
interrupted save never corrupts an existing checkpoint.

Loading checks the file in O(#tensors) and raises a ``CheckpointError``
subclass for any file it cannot take at its word: wrong magic or version,
truncation, metadata that is not JSON, lacks a key or fails its checksum, or a
manifest whose tensors leave the payload, overlap, or do not match the
config's parameters. The payload carries no checksum, so a flipped payload bit
loads as the value the file now holds. Files written before the checksum
existed carry none and load unchecked.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .model import ModelConfig, param_shapes
from .training import AdamState

__all__ = ["MAGIC", "FORMAT_VERSION", "CheckpointError", "CheckpointMagicError",
           "CheckpointVersionError", "CheckpointTruncatedError",
           "CheckpointMetadataError", "CheckpointManifestError",
           "CheckpointMissingTensorError", "CheckpointData", "save_checkpoint",
           "load_checkpoint"]

MAGIC = b"QACKPT1\n"
FORMAT_VERSION = 1
_CHECKSUM_KEY = "metadata_crc32"


class CheckpointError(ValueError):
    """Base class for unreadable checkpoint files."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """The file declares an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """The tensor payload is shorter or longer than the manifest promises."""


class CheckpointMetadataError(CheckpointError):
    """The metadata is not JSON, lacks or mistypes a key, or fails its checksum."""


class CheckpointManifestError(CheckpointError):
    """A manifest entry is malformed, lies outside the payload, overlaps
    another, or does not match the config's parameters."""


class CheckpointMissingTensorError(CheckpointError):
    """A parameter or one of its Adam moments has no tensor in the file."""


@dataclass
class CheckpointData:
    config: ModelConfig
    params: dict[str, np.ndarray]
    state: AdamState
    iteration: int


def _collect_tensors(params: dict[str, np.ndarray],
                     state: AdamState) -> dict[str, np.ndarray]:
    tensors = dict(params)
    for name, value in state.m.items():
        tensors[f"adam.m/{name}"] = value
    for name, value in state.v.items():
        tensors[f"adam.v/{name}"] = value
    return tensors


def _encode(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: dict[str, np.ndarray], config: ModelConfig,
                    state: AdamState, iteration: int | None = None) -> None:
    """Atomically write params + optimizer state; bit-exact round trip."""
    if iteration is None:
        iteration = state.step
    tensors = _collect_tensors(params, state)
    manifest = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    metadata = {
        "version": FORMAT_VERSION,
        "config": config.to_dict(),
        "iteration": iteration,
        "adam": {"step": state.step, "beta1": state.beta1, "beta2": state.beta2,
                 "eps": state.eps},
        "rng_state": {"scheme": "counter-v1", "seed": config.seed},
        "tensors": manifest,
    }
    metadata[_CHECKSUM_KEY] = zlib.crc32(_encode(metadata))
    meta_bytes = _encode(metadata)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(meta_bytes).to_bytes(8, "little"))
        handle.write(meta_bytes)
        for blob in blobs:
            handle.write(blob)
    os.replace(tmp_path, path)


def _field(path, mapping, key, kinds, where="metadata"):
    """mapping[key], an instance of one of `kinds`; a bool is never a number."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise CheckpointMetadataError(
            f"{path}: {where} key {key!r} is missing or not "
            f"{' or '.join(kind.__name__ for kind in kinds)}")
    return value


def _read_metadata(path, block: bytes) -> dict:
    try:
        metadata = json.loads(block.decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError
        raise CheckpointMetadataError(f"{path}: metadata is not JSON: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointMetadataError(f"{path}: metadata is not a JSON object")
    # the version comes first: another version's checksum rules are unknown
    if metadata.get("version") != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {metadata.get('version')!r}, "
            f"expected {FORMAT_VERSION}")
    checksum = metadata.pop(_CHECKSUM_KEY, None)
    if checksum is not None and checksum != zlib.crc32(_encode(metadata)):
        raise CheckpointMetadataError(f"{path}: metadata fails its checksum")
    return metadata


def _read_config(path, payload: dict) -> ModelConfig:
    try:
        config = ModelConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointMetadataError(f"{path}: invalid model config: {exc}") from exc
    for field in fields(config):
        # an int field takes only ints, a float field ints or floats
        value = getattr(config, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, type(field.default))):
            raise CheckpointMetadataError(
                f"{path}: config {field.name}={value!r} has the wrong type")
    return config


def _tensor_spans(path, manifest, config: ModelConfig,
                  payload_bytes: int) -> dict[str, tuple[int, tuple[int, ...]]]:
    """{name: (offset, shape)} of a manifest that tiles the payload exactly
    with the config's parameters and their two Adam moments."""
    shapes = param_shapes(config)
    wanted = dict(shapes)
    for prefix in ("adam.m/", "adam.v/"):
        wanted.update({prefix + name: shape for name, shape in shapes.items()})
    spans: dict[str, tuple[int, tuple[int, ...]]] = {}
    for index, entry in enumerate(manifest):
        where = f"manifest entry {index}"
        name = _field(path, entry, "name", (str,), where)
        shape = tuple(_field(path, entry, "shape", (list,), where))
        offset = _field(path, entry, "offset", (int,), where)
        if name in spans:
            raise CheckpointManifestError(f"{path}: tensor {name!r} listed twice")
        if name not in wanted:
            raise CheckpointManifestError(
                f"{path}: tensor {name!r} is no parameter of the config")
        if shape != wanted[name]:
            raise CheckpointManifestError(
                f"{path}: tensor {name!r} has shape {list(shape)}, the config "
                f"needs {list(wanted[name])}")
        spans[name] = (offset, wanted[name])
    missing = [name for name in wanted if name not in spans]
    if missing:
        raise CheckpointMissingTensorError(
            f"{path}: no tensor {missing[0]!r} ({len(missing)} missing)")
    expected = sum(8 * math.prod(shape) for _, shape in spans.values())
    if payload_bytes != expected:
        raise CheckpointTruncatedError(
            f"{path}: payload is {payload_bytes} bytes, manifest expects {expected}")
    # the spans sum to the payload; in range and disjoint, they tile it exactly
    previous_end, previous = 0, "the payload start"
    for start, end, name in sorted((offset, offset + 8 * math.prod(shape), name)
                                   for name, (offset, shape) in spans.items()):
        if start < previous_end or end > payload_bytes:
            raise CheckpointManifestError(
                f"{path}: tensor {name!r} at bytes [{start}, {end}) overlaps "
                f"{previous} or leaves the {payload_bytes}-byte payload")
        previous_end, previous = end, repr(name)
    return spans


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint; any damaged or inconsistent file raises CheckpointError."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic, not a checkpoint file")
    cursor = len(MAGIC)
    meta_len = int.from_bytes(raw[cursor:cursor + 8], "little")
    cursor += 8
    if len(raw) < cursor + meta_len:
        raise CheckpointTruncatedError(f"{path}: metadata block truncated")
    metadata = _read_metadata(path, raw[cursor:cursor + meta_len])
    cursor += meta_len
    config = _read_config(path, _field(path, metadata, "config", (dict,)))
    iteration = _field(path, metadata, "iteration", (int,))
    adam = _field(path, metadata, "adam", (dict,))
    step = _field(path, adam, "step", (int,), "adam")
    beta1, beta2, eps = (_field(path, adam, key, (int, float), "adam")
                         for key in ("beta1", "beta2", "eps"))
    spans = _tensor_spans(path, _field(path, metadata, "tensors", (list,)), config,
                          len(raw) - cursor)
    tensors = {name: np.frombuffer(raw, dtype="<f8", count=math.prod(shape),
                                   offset=cursor + offset).reshape(shape).copy()
               for name, (offset, shape) in spans.items()}
    params = {name: tensors[name] for name in param_shapes(config)}
    state = AdamState(m={name: tensors[f"adam.m/{name}"] for name in params},
                      v={name: tensors[f"adam.v/{name}"] for name in params},
                      step=step, beta1=beta1, beta2=beta2, eps=eps)
    return CheckpointData(config=config, params=params, state=state,
                          iteration=iteration)
