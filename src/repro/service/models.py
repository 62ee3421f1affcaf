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

One JSON file per ``(store key, model kind)``: the wire form of
:meth:`repro.costmodel.base.CostModel.save_state` (arrays as base64 of
their raw bytes, so round trips are bit-identical) plus a checkpoint
schema version and the number of trials the model was trained on.  The
same wire form ships over the ``repro.serve`` lease payload, so remote
runners warm-start without a shared filesystem.  A stored checkpoint is
named by the SHA-256 of its file (:func:`repro.journal.file_digest`):
a runner that already holds those bytes gets a reference instead.

Staleness arbitration: a checkpoint only replaces the stored one when
it was trained on at least as many trials — a stale runner coming back
late cannot clobber a better-trained model.

A checkpoint file is replaced atomically and never evicted: reads take
no lock and write nothing, and the directory holds one file per
``(store key, model kind)`` until an operator deletes it (the index
tolerates a missing file).  The files and the index go through the
:mod:`repro.journal` primitives.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import CostModelError
from repro.journal import (
    atomic_write_lines,
    file_digest,
    file_lock,
    read_json_index,
    upsert_json_index,
)
from repro.service.store import StoreKey, _sanitize

#: Version of the on-disk / on-wire checkpoint envelope — bump when the
#: envelope changes incompatibly (the model state inside carries its
#: own ``state_v``, see :data:`repro.costmodel.base.MODEL_STATE_VERSION`).
CHECKPOINT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# wire encoding (JSON-safe, bit-exact)
# ----------------------------------------------------------------------
def encode_array(arr: np.ndarray) -> dict:
    """JSON-safe array: dtype + shape + base64 of the raw bytes."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(data: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (bit-identical).

    Only numeric dtypes decode: model parameters are always numbers,
    and a non-numeric array (e.g. unicode) smuggled through an
    envelope would pass every name/shape check downstream only to
    raise TypeError mid-tuning — escaping the CostModelError-means-
    cold-start contract.
    """
    dtype = np.dtype(data["dtype"])
    if dtype.kind not in "fiub":  # float, signed/unsigned int, bool
        raise CostModelError(f"non-numeric checkpoint array dtype {dtype}")
    raw = base64.b64decode(data["data"])
    arr = np.frombuffer(raw, dtype=dtype)
    arr = arr.reshape([int(d) for d in data["shape"]]).copy()
    # trained parameters are always finite; NaN/inf only arrive via
    # corruption and would crash (or silently poison) models later
    if dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise CostModelError("non-finite values in checkpoint array")
    return arr


def state_to_wire(state: dict, trained_trials: int = 0) -> dict:
    """Checkpoint envelope for a ``save_state`` dict.

    ``trained_trials`` — how many measured trials the model was fitted
    on — drives staleness arbitration in :meth:`ModelStore.save_wire`.
    """
    return {
        "ckpt_v": CHECKPOINT_SCHEMA_VERSION,
        "state_v": int(state["state_v"]),
        "kind": state["kind"],
        "feature_kind": state["feature_kind"],
        "arch": dict(state["arch"]),
        "trained_trials": int(trained_trials),
        "params": {
            name: encode_array(np.asarray(value))
            for name, value in state["params"].items()
        },
    }


def state_from_wire(wire: dict) -> dict:
    """Decode a checkpoint envelope back into a ``load_state`` dict.

    Raises :class:`~repro.errors.CostModelError` for malformed or
    newer-versioned envelopes — callers treat that as "no checkpoint".
    A JSON number too big for an int (``1e999`` reads as inf) is
    malformed too.
    """
    try:
        if int(wire.get("ckpt_v", -1)) != CHECKPOINT_SCHEMA_VERSION:
            raise CostModelError(
                f"unsupported checkpoint version {wire.get('ckpt_v')!r}"
            )
        return {
            "state_v": int(wire["state_v"]),
            "kind": wire["kind"],
            "feature_kind": wire["feature_kind"],
            "arch": dict(wire["arch"]),
            "params": {
                name: decode_array(encoded)
                for name, encoded in wire["params"].items()
            },
        }
    except CostModelError:
        raise
    except (
        KeyError, TypeError, ValueError, OverflowError, AttributeError, binascii.Error
    ) as exc:
        raise CostModelError(f"malformed checkpoint: {exc}") from None


def tolerant_count(value) -> int:
    """A non-negative int out of possibly-damaged JSON (0 otherwise).

    The single damage-tolerance rule for the index's and the
    envelope's trial counts: shared, hand-editable files must read as
    "never trained", not raise out of the serving hot path.
    """
    try:
        return max(0, int(value))
    except (TypeError, ValueError, OverflowError):
        return 0


def wire_trained_trials(wire: dict) -> int:
    """The envelope's trial count (0 when absent or malformed)."""
    return tolerant_count(wire.get("trained_trials", 0))


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

    def save_wire(self, key: StoreKey, kind: str, wire: dict) -> str | None:
        """Persist an already-encoded checkpoint envelope (wire ingest).

        Validates the envelope fully (a remote runner's payload is not
        trusted), requires its kind to match ``kind``, and applies
        staleness arbitration: an envelope trained on fewer trials than
        the stored one is dropped.  Returns the stored file's digest, or
        None when nothing was stored.
        """
        if not isinstance(wire, dict):
            return None
        try:
            state = state_from_wire(wire)
        except CostModelError:
            return None
        if state.get("kind") != kind:
            return None
        incoming = wire_trained_trials(wire)
        path = self.path_for(key, kind)
        self.root.mkdir(parents=True, exist_ok=True)
        with self._lock, file_lock(path):
            if wire_trained_trials(read_json_index(path)) > incoming:
                return None  # keep the better-trained checkpoint
            atomic_write_lines(path, [json.dumps(wire)])
            upsert_json_index(
                self._index_path(),
                path.name,
                {**asdict(key), "kind": kind, "trained_trials": incoming},
            )
            return file_digest(path)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load_wire(
        self, key: StoreKey, kind: str, have: str | None = None
    ) -> dict | None:
        """The stored checkpoint envelope, or None.

        When ``have`` is the stored file's digest, the caller already
        holds these bytes: the answer is the reference ``{"ref": have,
        "trained_trials": n}`` instead, and the file is never parsed.
        """
        path = self.path_for(key, kind)
        if have is not None and file_digest(path) == have:
            return {"ref": have, "trained_trials": self.trained_trials(key, kind)}
        return read_json_index(path) or None

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
