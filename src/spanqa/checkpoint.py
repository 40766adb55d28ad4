"""Self-describing binary checkpoints.

Layout: ASCII magic ``QACKPT1\\n``, an 8-byte little-endian length, a JSON
metadata block, then the raw little-endian float32 tensors. The metadata
holds exactly the format version, the model config, the Adam step, the best
dev F1 so far (null before any dev evaluation), the tensor manifest of
name/shape/byte-offset, and a CRC-32 of the rest of the metadata. Writes go
to a temp file that is flushed to disk and then renamed into place, so an
interrupted save or a power loss never corrupts an existing checkpoint.

The config fixes the tensor layout: its parameters and their Adam moments
(under ``adam.m/`` and ``adam.v/`` names), sorted by name and laid end to
end, so the payload is three contiguous blocks [m | v | params]. The file
keeps the manifest to document its payload, and loading requires it to be
exactly that layout. A saved parameter costs 12 bytes: itself and its two
moments, 4 bytes each.

Format version 3 is the one written. A version 2 file, whose payload is the
same layout in float64 (8 bytes per element), still loads: each tensor is
read at its 8-byte offset and narrowed to float32, so resuming from it and
saving writes version 3.

Loading raises a ``CheckpointError`` subclass for any file it cannot take at
its word: wrong magic, a format version other than 3 or 2 (version 1 files
are rejected, not converted), truncation, metadata that is not JSON, lacks or
mistypes a key, or lacks or fails its checksum, and a manifest other than
the config's layout. The payload carries no checksum, so a flipped payload
bit loads as the value the file now holds.

Loading checks the file's size against the layout before it allocates any
tensor, then reads only the parameters, each straight into its own array.
The Adam moments are read the same way on the first access to
``CheckpointData.state``, so prediction never holds them; a resumed run
reads them before it saves. If the file was replaced or rewritten in between
(a different device, inode, size or modification time), that access raises
``CheckpointChangedError`` rather than pair the loaded parameters with
another file's moments. Each loaded tensor owns its memory, so moments
loaded to resume are freed once the first update replaces them.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .model import ModelConfig, param_shapes
from .training import AdamState

__all__ = ["MAGIC", "FORMAT_VERSION", "CheckpointError", "CheckpointMagicError",
           "CheckpointVersionError", "CheckpointTruncatedError",
           "CheckpointMetadataError", "CheckpointManifestError",
           "CheckpointMissingTensorError", "CheckpointChangedError",
           "CheckpointData", "save_checkpoint", "load_checkpoint"]

MAGIC = b"QACKPT1\n"
FORMAT_VERSION = 3
# payload dtype of each format version that loads; only FORMAT_VERSION is written
_PAYLOAD_DTYPES = {3: np.dtype("<f4"), 2: np.dtype("<f8")}
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
    """The metadata is not JSON, lacks or mistypes a key, or lacks or fails
    its checksum."""


class CheckpointManifestError(CheckpointError):
    """A manifest entry differs from the config's tensor layout."""


class CheckpointMissingTensorError(CheckpointError):
    """A parameter or one of its Adam moments has no tensor in the file."""


class CheckpointChangedError(CheckpointError):
    """The file changed between loading its parameters and reading its Adam
    moments."""


@dataclass
class CheckpointData:
    config: ModelConfig
    params: dict[str, np.ndarray]
    best_dev_f1: float | None
    _read_state: Callable[[], AdamState] = field(repr=False, compare=False)

    @cached_property
    def state(self) -> AdamState:
        """The Adam state, read from the file on first access; raises
        CheckpointChangedError if the file changed since loading."""
        return self._read_state()


def _layout(config: ModelConfig, itemsize: int) -> list[dict]:
    """The manifest of a config's checkpoint: each parameter and its two Adam
    moments, sorted by name and laid end to end, `itemsize` bytes per
    element."""
    shapes = param_shapes(config)
    named = dict(shapes)
    for prefix in ("adam.m/", "adam.v/"):
        named.update({prefix + name: shape for name, shape in shapes.items()})
    layout, offset = [], 0
    for name in sorted(named):
        layout.append({"name": name, "shape": list(named[name]), "offset": offset})
        offset += itemsize * math.prod(named[name])
    return layout


def _encode(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: dict[str, np.ndarray], config: ModelConfig,
                    state: AdamState, best_dev_f1: float | None = None) -> None:
    """Atomically and durably write params + optimizer state as float32, the
    current format version; bit-exact round trip for float32 tensors."""
    tensors = dict(params)
    for name in params:
        tensors[f"adam.m/{name}"] = state.m[name]
        tensors[f"adam.v/{name}"] = state.v[name]
    dtype = _PAYLOAD_DTYPES[FORMAT_VERSION]
    layout = _layout(config, dtype.itemsize)
    metadata = {
        "version": FORMAT_VERSION,
        "config": asdict(config),
        "step": state.step,
        "best_dev_f1": best_dev_f1,
        "tensors": layout,
    }
    metadata[_CHECKSUM_KEY] = zlib.crc32(_encode(metadata))
    meta_bytes = _encode(metadata)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(meta_bytes).to_bytes(8, "little"))
        handle.write(meta_bytes)
        for entry in layout:
            handle.write(np.ascontiguousarray(tensors[entry["name"]], dtype=dtype))
        # on disk before the rename: a rename that lands first would let a
        # power loss put a torn file in place of the old checkpoint
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    # the rename is durable only once the directory entry is on disk too
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


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
    if type(version) is not int or version not in _PAYLOAD_DTYPES:
        raise CheckpointVersionError(
            f"{path}: format version {version!r}, expected {FORMAT_VERSION} "
            f"(or 2, narrowed on load)")
    if metadata.pop(_CHECKSUM_KEY, None) != zlib.crc32(_encode(metadata)):
        raise CheckpointMetadataError(f"{path}: metadata lacks or fails its checksum")
    return metadata


def _read_config(path, payload: dict) -> ModelConfig:
    for field in fields(ModelConfig):
        # an int field takes only ints, a float field ints or floats
        _field(path, payload, field.name, (int, type(field.default)))
    try:
        return ModelConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointMetadataError(f"{path}: invalid model config: {exc}") from exc


def _check_manifest(path, manifest: list, layout: list[dict]) -> None:
    """Raise unless `manifest` is `layout`, entry by entry."""
    present = [entry.get("name") for entry in manifest if isinstance(entry, dict)]
    for wanted in layout:
        if wanted["name"] not in present:
            raise CheckpointMissingTensorError(f"{path}: no tensor {wanted['name']!r}")
    # every name is present, so the manifest is no shorter than the layout
    for index, entry in enumerate(manifest):
        wanted = layout[index] if index < len(layout) else None
        if entry != wanted:
            raise CheckpointManifestError(
                f"{path}: manifest entry {index} is {entry!r}, the config "
                f"needs {wanted!r}")


def _identity(stat) -> tuple:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _read_tensors(path, handle, start: int, entries: list[dict],
                  dtype: np.dtype) -> dict[str, np.ndarray]:
    """Each manifest entry's float32 tensor, read from the payload of `dtype`
    at byte `start` straight into its own new array; a float64 tensor is
    read whole and narrowed into a new one."""
    tensors = {}
    for entry in entries:
        tensor = np.empty(entry["shape"], dtype=dtype)
        handle.seek(start + entry["offset"])
        if handle.readinto(tensor) != tensor.nbytes:
            raise CheckpointTruncatedError(f"{path}: payload ends inside "
                                           f"{entry['name']!r}")
        tensors[entry["name"]] = tensor.astype(np.float32, copy=False)
    return tensors


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint; any damaged or inconsistent file raises CheckpointError.

    Every check runs now, and nothing is allocated for the payload until the
    file's size matches the layout; then only the parameters are read, each
    straight into its own new float32 array. The Adam moments are read on the
    first access to `.state`, which raises CheckpointChangedError if the
    file's (device, inode, size, mtime) differs from what was loaded.
    """
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        size = stat.st_size
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
        dtype = _PAYLOAD_DTYPES[metadata["version"]]
        layout = _layout(config, dtype.itemsize)
        _check_manifest(path, _field(path, metadata, "tensors", (list,)), layout)
        expected = sum(dtype.itemsize * math.prod(entry["shape"]) for entry in layout)
        if size - cursor != expected:
            raise CheckpointTruncatedError(
                f"{path}: payload is {size - cursor} bytes, manifest expects {expected}")
        shapes = param_shapes(config)
        tensors = _read_tensors(path, handle, cursor,
                                [entry for entry in layout if entry["name"] in shapes],
                                dtype)
    params = {name: tensors[name] for name in shapes}
    moments = [entry for entry in layout if entry["name"] not in shapes]
    source = os.path.abspath(path)

    def read_state() -> AdamState:
        try:
            handle = open(source, "rb")
        except FileNotFoundError as exc:
            raise CheckpointChangedError(
                f"{path}: removed before its Adam moments were read") from exc
        with handle:
            if _identity(os.fstat(handle.fileno())) != _identity(stat):
                raise CheckpointChangedError(
                    f"{path}: changed after its parameters were loaded; its Adam "
                    f"moments would not match them")
            tensors = _read_tensors(path, handle, cursor, moments, dtype)
        return AdamState(m={name: tensors[f"adam.m/{name}"] for name in params},
                         v={name: tensors[f"adam.v/{name}"] for name in params},
                         step=step)

    return CheckpointData(config=config, params=params, best_dev_f1=best_dev_f1,
                          _read_state=read_state)
