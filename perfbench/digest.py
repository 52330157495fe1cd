"""Result identity: a digest over every field of a ``RunResult``.

``final_memory`` enters as a hash of its words, ``energy`` and ``periods``
by value, every other field by its exact ``repr`` (floats keep all their
digits). A change to any one field changes the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array


def _memory_hash(words: list[int] | None) -> str | None:
    if words is None:
        return None
    packed = array("I")
    try:
        packed.fromlist(words)
    except (OverflowError, TypeError):
        return hashlib.sha256(repr(words).encode()).hexdigest()
    return hashlib.sha256(packed).hexdigest()


def result_digest(result) -> str:
    """Digest of one ``repro.sim.results.RunResult``."""
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "final_memory":
            value = _memory_hash(value)
        elif dataclasses.is_dataclass(value):
            value = dataclasses.astuple(value)
        elif f.name == "periods":
            value = [dataclasses.astuple(p) for p in value]
        h.update(f"{f.name}={value!r};".encode())
    return h.hexdigest()[:20]


def stats_digest(stats: dict) -> str:
    """Digest of a ``repro run --stats-json`` document."""
    blob = json.dumps(stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]
