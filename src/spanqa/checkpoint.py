"""Binary checkpoints.

Layout: ASCII magic ``QACKPT1\\n``, an 8-byte little-endian length, a JSON
metadata block, then the raw little-endian float32 tensors. The metadata
holds exactly the format version, the model config, the Adam step, the best
dev F1 so far (null before any dev evaluation), and a CRC-32 of the rest of
the metadata. Writes go through ``data.replace_file``, which syncs a temp
file and renames it into place, so a crash or a power loss never corrupts an
existing checkpoint.

The config fixes the tensor layout, so the file does not store it: the
payload is three blocks [params | m | v], the parameters and then their two
Adam moments, each block laid end to end in ``model.param_shapes`` order. A
saved parameter costs 12 bytes: itself and its two moments, 4 bytes each.

Format version 6 is the only one written or read: version 1 to 5 files raise
``CheckpointVersionError`` and are not converted.

Loading raises a ``CheckpointError`` subclass for any file it cannot take at
its word: wrong magic, a format version other than 6, truncation, a payload
size other than the config's layout, and metadata that is not JSON, lacks,
mistypes or adds a key, or lacks or fails its checksum. The payload carries no
checksum, so a flipped payload bit loads as the value the file now holds.

Both loaders check the file's size against the layout before they allocate
any tensor, then read each tensor straight into its own array in one pass
over one open file. ``load_checkpoint`` reads only the parameter block, so
prediction never holds the moments; ``load_for_resume`` reads all three
blocks and returns the Adam state beside the parameters, before a resumed run
writes any file. Each loaded tensor owns its memory, so moments loaded to
resume are freed once the first update replaces them.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import replace_file
from .model import ModelConfig, param_shapes
from .training import AdamState

__all__ = ["MAGIC", "FORMAT_VERSION", "CheckpointError", "CheckpointMagicError",
           "CheckpointVersionError", "CheckpointTruncatedError",
           "CheckpointMetadataError", "CheckpointData", "save_checkpoint",
           "load_checkpoint", "load_for_resume"]

MAGIC = b"QACKPT1\n"
FORMAT_VERSION = 6
# the payload's dtype; loading converts it to native float32
_DTYPE = np.dtype("<f4")
_CHECKSUM_KEY = "metadata_crc32"
_KEYS = {"version", "config", "step", "best_dev_f1"}   # and the checksum


class CheckpointError(ValueError):
    """Base class for unreadable checkpoint files."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """The file declares an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """The tensor payload is shorter or longer than the config's layout."""


class CheckpointMetadataError(CheckpointError):
    """The metadata is not JSON, lacks, mistypes or adds a key, or lacks or
    fails its checksum."""


@dataclass
class CheckpointData:
    config: ModelConfig
    params: dict[str, np.ndarray]
    best_dev_f1: float | None


def _encode(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: dict[str, np.ndarray], config: ModelConfig,
                    state: AdamState, best_dev_f1: float | None = None) -> None:
    """Atomically and durably write params + optimizer state as float32, the
    current format version; bit-exact round trip for float32 tensors."""
    names = list(param_shapes(config))
    metadata = {
        "version": FORMAT_VERSION,
        "config": asdict(config),
        "step": state.step,
        "best_dev_f1": best_dev_f1,
    }
    metadata[_CHECKSUM_KEY] = zlib.crc32(_encode(metadata))
    meta_bytes = _encode(metadata)

    def write(handle):
        handle.write(MAGIC)
        handle.write(len(meta_bytes).to_bytes(8, "little"))
        handle.write(meta_bytes)
        for tensors in (params, state.m, state.v):
            for name in names:
                handle.write(np.ascontiguousarray(tensors[name], dtype=_DTYPE))

    replace_file(path, write)


def _field(path, metadata: dict, key, kinds):
    """metadata[key], an instance of one of `kinds`; a bool is never a number."""
    value = metadata.get(key)
    if key not in metadata or not isinstance(value, kinds) or isinstance(value, bool):
        raise CheckpointMetadataError(
            f"{path}: key {key!r} is missing or not "
            f"{' or '.join(dict.fromkeys(kind.__name__ for kind in kinds))}")
    return value


def _read_metadata(path, block: bytes) -> dict:
    try:
        metadata = json.loads(block.decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError
        raise CheckpointMetadataError(f"{path}: metadata is not JSON: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointMetadataError(f"{path}: metadata is not a JSON object")
    # the version comes first: another version's checksum rules are unknown
    version = metadata.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
    if metadata.pop(_CHECKSUM_KEY, None) != zlib.crc32(_encode(metadata)):
        raise CheckpointMetadataError(f"{path}: metadata lacks or fails its checksum")
    unknown = sorted(metadata.keys() - _KEYS)
    if unknown:
        raise CheckpointMetadataError(f"{path}: unknown metadata keys {unknown}")
    return metadata


def _read_config(path, payload: dict) -> ModelConfig:
    for field in fields(ModelConfig):
        # an int field takes only ints, a float field ints or floats
        _field(path, payload, field.name, (int, type(field.default)))
    try:
        return ModelConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointMetadataError(f"{path}: invalid model config: {exc}") from exc


def _read_header(path, handle) -> tuple[ModelConfig, int, float | None]:
    """The config, Adam step and best dev F1 of the checkpoint open at
    `handle`, left at the payload, whose size matches the config's layout."""
    size = os.fstat(handle.fileno()).st_size
    if handle.read(len(MAGIC)) != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic, not a checkpoint file")
    meta_len = int.from_bytes(handle.read(8), "little")
    cursor = len(MAGIC) + 8 + meta_len
    # the length field is bounded by the file before it sizes a read
    if size < cursor:
        raise CheckpointTruncatedError(f"{path}: metadata block truncated")
    metadata = _read_metadata(path, handle.read(meta_len))
    config = _read_config(path, _field(path, metadata, "config", (dict,)))
    step = _field(path, metadata, "step", (int,))
    best_dev_f1 = _field(path, metadata, "best_dev_f1", (int, float, type(None)))
    block = sum(_DTYPE.itemsize * math.prod(shape)
                for shape in param_shapes(config).values())
    if size - cursor != 3 * block:
        raise CheckpointTruncatedError(
            f"{path}: payload is {size - cursor} bytes, layout expects {3 * block}")
    return config, step, best_dev_f1


def _read_block(path, handle, shapes: dict) -> dict[str, np.ndarray]:
    """The float32 tensor of each shape, read in order from `handle`'s
    position, each straight into its own new array."""
    tensors = {}
    for name, shape in shapes.items():
        tensor = np.empty(shape, dtype=_DTYPE)
        if handle.readinto(tensor) != tensor.nbytes:
            raise CheckpointTruncatedError(f"{path}: payload ends inside {name!r}")
        tensors[name] = tensor.astype(np.float32, copy=False)
    return tensors


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint's config and parameters; any damaged or inconsistent
    file raises CheckpointError.

    Every check runs before anything is allocated for the payload, then only
    the parameter block is read, each tensor straight into its own new
    float32 array. The Adam moments stay on disk: `load_for_resume` reads
    them.
    """
    with open(path, "rb") as handle:
        config, _, best_dev_f1 = _read_header(path, handle)
        params = _read_block(path, handle, param_shapes(config))
    return CheckpointData(config=config, params=params, best_dev_f1=best_dev_f1)


def load_for_resume(path) -> tuple[CheckpointData, AdamState]:
    """Read a whole checkpoint, [params | m | v], with the checks of
    `load_checkpoint`, through one open file: the model and its Adam state."""
    with open(path, "rb") as handle:
        config, step, best_dev_f1 = _read_header(path, handle)
        shapes = param_shapes(config)
        params, m, v = [_read_block(path, handle, shapes) for _ in range(3)]
    return (CheckpointData(config=config, params=params, best_dev_f1=best_dev_f1),
            AdamState(m=m, v=v, step=step))
