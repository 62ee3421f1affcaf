"""Persistent cost-model checkpoints (the ModelStore).

The record store keeps the *evidence* a tuning run paid for; this
module keeps what the run *learned from it* — the cost model.  Without
it every warm-started run re-trains its model from scratch while the
seed rows ride along for free, so the verify stage is inaccurate for
exactly the rounds where accuracy matters most.  TLP/TenSet-style
pre-trained models cut tuning time precisely because checkpoints
outlive a single search; the ModelStore brings that to the online
modes.

Layout — checkpoints share the record store's cache directory::

    <cache_dir>/
        <workload>__<device>__<method>__<digest>.jsonl   # records
        models/
            index.json                                   # per-file metadata
            <workload>__<device>__<method>__<digest>__<kind>.json

One file per ``(store key, model kind)``, holding a *checkpoint blob*
(:func:`state_to_wire`) of a :meth:`repro.costmodel.base.CostModel.
save_state` dict: one JSON header line — ``ckpt_v`` (2), ``state_v``,
``kind``, ``feature_kind``, ``arch``, ``trained_trials`` and one
``[name, dtype, shape]`` per array — then every array's raw
little-endian bytes in header order, so a round trip is bit-identical
(the files keep version 1's ``.json`` name; only the header line is
JSON).  The runner builds the blob once and uploads it as it is; the store
checks it and writes those very bytes, so a stored checkpoint is named
by the SHA-256 of the uploaded bytes, which is also the file's.  A
runner that already holds those bytes leases a reference instead.
Version 1 files (one JSON envelope line, arrays as base64) still read:
:func:`state_from_wire` is the one decoder, for the store, the lease
and the in-process drain alike.

Staleness arbitration: a checkpoint only replaces the stored one when
it was trained on at least as many trials — a stale runner coming back
late cannot clobber a better-trained model.  The stored count is read
from the file's header line, never from its arrays.

A checkpoint file is replaced atomically and never evicted: reads take
no lock and write nothing, and the directory holds one file per
``(store key, model kind)`` until an operator deletes it (the index
tolerates a missing file).  The files and the index go through the
:mod:`repro.journal` primitives.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import CostModelError
from repro.journal import (
    atomic_write_bytes,
    file_lock,
    read_json_index,
    upsert_json_index,
)
from repro.service.store import StoreKey, _sanitize

#: Version of the checkpoint blob — bump when its layout changes
#: incompatibly (the model state inside carries its own ``state_v``,
#: see :data:`repro.costmodel.base.MODEL_STATE_VERSION`).  Version 1,
#: the JSON envelope, is still read.
CHECKPOINT_SCHEMA_VERSION = 2

#: Errors a damaged header or array table raises on its way through
#: ``json`` and numpy; each means "malformed checkpoint".
_MALFORMED = (
    KeyError, TypeError, ValueError, OverflowError, AttributeError, RecursionError
)


# ----------------------------------------------------------------------
# the checkpoint blob (bit-exact, never re-encoded)
# ----------------------------------------------------------------------
def state_to_wire(state: dict, trained_trials: int = 0) -> bytes:
    """The checkpoint blob of a ``save_state`` dict.

    ``trained_trials`` — how many measured trials the model was fitted
    on — drives staleness arbitration in :meth:`ModelStore.save_wire`.
    """
    arrays = []
    for name, value in state["params"].items():
        arr = np.asarray(value)
        arrays.append((name, arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)))
    header = {
        "ckpt_v": CHECKPOINT_SCHEMA_VERSION,
        "state_v": int(state["state_v"]),
        "kind": state["kind"],
        "feature_kind": state["feature_kind"],
        "arch": dict(state["arch"]),
        "trained_trials": int(trained_trials),
        "arrays": [[name, arr.dtype.str, list(arr.shape)] for name, arr in arrays],
    }
    line = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([line, b"\n", *(arr.data for _, arr in arrays)])


def state_from_wire(wire) -> dict:
    """Decode a checkpoint blob into a ``load_state`` dict.

    The one decoder: a version 2 blob or a version 1 JSON envelope,
    as bytes.  The dict also carries the blob's ``trained_trials``
    (``load_state`` ignores it); its arrays are read-only views of one
    buffer.  Anything else — a wrong or newer version, a damaged
    header, a byte count that does not add up, a non-numeric dtype,
    NaN or inf in a float array — raises
    :class:`~repro.errors.CostModelError`, which callers treat as "no
    checkpoint".
    """
    if not isinstance(wire, bytes):
        raise CostModelError(f"a checkpoint is bytes, not {type(wire).__name__}")
    line, _, body = wire.partition(b"\n")
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise CostModelError("checkpoint header is not a JSON object")
        version = header.get("ckpt_v")
        if version == 1 and type(version) is int:
            if body.strip():
                raise CostModelError("version 1 checkpoint has more than one line")
            return _state_from_v1(header)
        if version != CHECKPOINT_SCHEMA_VERSION or type(version) is not int:
            raise CostModelError(f"unsupported checkpoint version {version!r}")
        state = {
            "state_v": _count(header["state_v"]),
            "kind": header["kind"],
            "feature_kind": header["feature_kind"],
            "arch": header["arch"],
            "trained_trials": _count(header["trained_trials"]),
            "params": _arrays(header["arrays"], body),
        }
    except CostModelError:
        raise
    except _MALFORMED as exc:
        raise CostModelError(f"malformed checkpoint: {exc!r}") from None
    if not (
        isinstance(state["kind"], str)
        and isinstance(state["feature_kind"], str)
        and isinstance(state["arch"], dict)
    ):
        raise CostModelError("malformed checkpoint header")
    return state


def _count(value) -> int:
    """A header count: a non-negative JSON integer (not a bool)."""
    if type(value) is not int or value < 0:
        raise CostModelError(f"checkpoint count {value!r} is not a non-negative int")
    return value


def _arrays(table: list, body: bytes) -> dict[str, np.ndarray]:
    """The arrays a header's ``[name, dtype, shape]`` table lays out in
    ``body``, which they must fill exactly."""
    if not isinstance(table, list):
        raise CostModelError("checkpoint array table is not a list")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for entry in table:
        if not isinstance(entry, list) or len(entry) != 3:
            raise CostModelError(f"bad checkpoint array entry {entry!r}")
        name, dtype, shape = entry
        if not isinstance(name, str) or name in params:
            raise CostModelError(f"bad or repeated checkpoint array name {name!r}")
        if not isinstance(dtype, str):
            raise CostModelError(f"bad checkpoint array dtype {dtype!r}")
        dtype = np.dtype(dtype)
        # model parameters are numbers: a non-numeric array (e.g.
        # unicode) would pass every name/shape check downstream only to
        # raise TypeError mid-tuning, escaping the cold-start contract
        if dtype.kind not in "fiub" or dtype.str[0] == ">":
            raise CostModelError(f"non-numeric or big-endian checkpoint dtype {dtype}")
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise CostModelError(f"bad checkpoint array shape {shape!r}")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(body):
            raise CostModelError("checkpoint is shorter than its array table")
        arr = np.frombuffer(body, dtype, count=count, offset=offset).reshape(shape)
        offset += count * dtype.itemsize
        # trained parameters are always finite; NaN/inf only arrive via
        # corruption and would crash (or silently poison) models later
        if dtype.kind == "f" and not np.isfinite(arr).all():
            raise CostModelError(f"non-finite values in checkpoint array {name!r}")
        params[name] = arr
    if offset != len(body):
        raise CostModelError("checkpoint is longer than its array table")
    return params


def _v1_array(data: dict) -> np.ndarray:
    """One version 1 envelope array: dtype + shape + base64 of the bytes."""
    dtype = np.dtype(data["dtype"])
    if dtype.kind not in "fiub":  # float, signed/unsigned int, bool
        raise CostModelError(f"non-numeric checkpoint array dtype {dtype}")
    raw = base64.b64decode(data["data"])
    arr = np.frombuffer(raw, dtype=dtype)
    arr = arr.reshape([int(d) for d in data["shape"]]).copy()
    if dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise CostModelError("non-finite values in checkpoint array")
    return arr


def _state_from_v1(wire: dict) -> dict:
    """A version 1 envelope's state (files written before version 2)."""
    try:
        return {
            "state_v": int(wire["state_v"]),
            "kind": wire["kind"],
            "feature_kind": wire["feature_kind"],
            "arch": dict(wire["arch"]),
            "trained_trials": tolerant_count(wire.get("trained_trials", 0)),
            "params": {
                name: _v1_array(encoded)
                for name, encoded in wire["params"].items()
            },
        }
    except CostModelError:
        raise
    except (*_MALFORMED, binascii.Error) as exc:
        raise CostModelError(f"malformed checkpoint: {exc!r}") from None


def tolerant_count(value) -> int:
    """A non-negative int out of possibly-damaged JSON (0 otherwise).

    The single damage-tolerance rule for the index's and a stored
    header's trial counts: shared, hand-editable files must read as
    "never trained", not raise out of the serving hot path.
    """
    try:
        return max(0, int(value))
    except (TypeError, ValueError, OverflowError):
        return 0


def _with_trials(blob: bytes, trained_trials: int) -> bytes:
    """``blob`` with its header's trial count replaced (arrays untouched)."""
    line, newline, body = blob.partition(b"\n")
    header = {**json.loads(line), "trained_trials": trained_trials}
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + newline + body


def _stored_trials(path: Path) -> int:
    """The trial count in a stored checkpoint's header line (0 when the
    file is absent or damaged)."""
    try:
        with path.open("rb") as fh:
            header = json.loads(fh.readline())
    except (OSError, ValueError, RecursionError):
        return 0
    return tolerant_count(header.get("trained_trials")) if isinstance(header, dict) else 0


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ModelStore:
    """Cost-model checkpoints under ``<cache_dir>/models/``.

    Shares the cache directory (and the StoreKey identity) with
    :class:`~repro.service.store.RecordStore` so records and the model
    trained on them travel together.  Thread-safe the same way: one
    process-wide lock per store root plus advisory file locks.
    """

    DIR_NAME = "models"
    INDEX_NAME = "index.json"

    _LOCKS: dict[Path, threading.Lock] = {}
    _LOCKS_GUARD = threading.Lock()

    def __init__(self, cache_dir: str | Path) -> None:
        self.root = Path(cache_dir).expanduser() / self.DIR_NAME
        with ModelStore._LOCKS_GUARD:
            self._lock = ModelStore._LOCKS.setdefault(
                self.root.resolve(), threading.Lock()
            )

    # ------------------------------------------------------------------
    # paths and index
    # ------------------------------------------------------------------
    def path_for(self, key: StoreKey, kind: str) -> Path:
        stem = key.filename[: -len(".jsonl")]
        return self.root / f"{stem}__{_sanitize(kind)}.json"

    def _index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def save_state(
        self, key: StoreKey, state: dict, trained_trials: int
    ) -> str | None:
        """Persist a ``save_state`` dict under ``(key, state kind)``."""
        # only the e2e tracer binds this name (benchmarks/e2e/tracing.py,
        # ROADMAP 1c); nothing in src calls it
        return self.save_wire(
            key, state["kind"], state_to_wire(state, trained_trials=trained_trials)
        )

    def save_wire(
        self, key: StoreKey, kind: str, wire: bytes, max_trials: int | None = None
    ) -> str | None:
        """Persist a checkpoint blob as it is (wire ingest).

        Checks the blob fully (a remote runner's upload is not trusted)
        and requires its kind to match ``kind``.  A trial count above
        ``max_trials`` is lowered to it, which rewrites the header line
        only.  Staleness arbitration drops a blob trained on fewer
        trials than the stored one.  Returns the SHA-256 of the bytes
        written — the upload's own digest unless its count was lowered
        — or None when nothing was stored.
        """
        try:
            state = state_from_wire(wire)
        except CostModelError:
            return None
        if state["kind"] != kind:
            return None
        incoming, blob = state["trained_trials"], wire
        if max_trials is not None and incoming > max_trials:
            incoming = max(0, max_trials)
            blob = _with_trials(blob, incoming)
        path = self.path_for(key, kind)
        self.root.mkdir(parents=True, exist_ok=True)
        with self._lock, file_lock(path):
            if _stored_trials(path) > incoming:
                return None  # keep the better-trained checkpoint
            atomic_write_bytes(path, blob)
            upsert_json_index(
                self._index_path(),
                path.name,
                {**asdict(key), "kind": kind, "trained_trials": incoming},
            )
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load_wire(
        self, key: StoreKey, kind: str, have: str | None = None
    ) -> dict | str | None:
        """The stored checkpoint as a lease carries it, or None.

        That is the file's bytes as one base64 string — unchecked: the
        runner decodes it and cold-starts on damage.  When ``have`` is
        the file's SHA-256, the caller already holds these bytes and the
        answer is the reference ``{"ref": have, "trained_trials": n}``.
        """
        try:
            blob = self.path_for(key, kind).read_bytes()
        except OSError:
            return None
        if not blob:
            return None
        if have is not None and hashlib.sha256(blob).hexdigest() == have:
            return {"ref": have, "trained_trials": self.trained_trials(key, kind)}
        return base64.b64encode(blob).decode("ascii")

    def trained_trials(self, key: StoreKey, kind: str) -> int:
        """Trials the stored checkpoint was trained on (0 when absent).

        Served from the index — :meth:`save_wire` persists the count
        per entry — so callers that only need the staleness rank skip
        parsing the full parameter payload.
        """
        filename = self.path_for(key, kind).name
        if not (self.root / filename).exists():
            return 0
        entry = read_json_index(self._index_path()).get(filename)
        if not isinstance(entry, dict):
            return 0
        return tolerant_count(entry.get("trained_trials", 0))

    def stats(self) -> list[dict]:
        """Per-checkpoint summary (for ``repro.serve status``)."""
        out = []
        for filename, entry in sorted(read_json_index(self._index_path()).items()):
            if not isinstance(entry, dict) or not (self.root / filename).exists():
                continue
            out.append(
                {
                    "workload": entry.get("workload", ""),
                    "device": entry.get("device", ""),
                    "method": entry.get("method", ""),
                    "kind": entry.get("kind", ""),
                    "trained_trials": tolerant_count(entry.get("trained_trials", 0)),
                }
            )
        return out
