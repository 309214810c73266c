"""Deterministic random-stream derivation.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Experiments derive one generator per
(seed, role, index) triple through a fixed mixing function so that
results are bit-reproducible and independent of evaluation order or
worker count.

Mixing function
---------------
``stream(seed, *labels)`` encodes the 64-bit seed and each label into a
canonical byte string (integers as tagged big-endian 8-byte words,
strings as tagged UTF-8 with an 8-byte length prefix), hashes it with
SHA-256, and feeds the digest as eight 32-bit words of entropy into a
``numpy.random.SeedSequence`` backing a PCG64 generator.  Two calls with
the same arguments always return generators in identical states; any
change to seed or labels decorrelates the output stream.

Within a single operation that fans out over replicates, child streams
are produced up front with ``Generator.spawn``, which keys children off
the parent's seed sequence, so the assignment of randomness to replicate
indices never depends on scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

_PREFIX = b"quadglass-stream-v1"


def seed_sequence(seed: int, *labels: int | str) -> np.random.SeedSequence:
    """Build the SeedSequence for (seed, labels) via the documented mixing."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    parts = [_PREFIX, b"I", int(seed).to_bytes(8, "big")]
    for label in labels:
        if isinstance(label, bool):
            raise TypeError("labels must be ints or strings")
        if isinstance(label, (int, np.integer)):
            parts.append(b"i" + int(label).to_bytes(8, "big", signed=True))
        elif isinstance(label, str):
            raw = label.encode("utf-8")
            parts.append(b"s" + len(raw).to_bytes(8, "big") + raw)
        else:
            raise TypeError(f"labels must be ints or strings, got {type(label)!r}")
    digest = hashlib.sha256(b"".join(parts)).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]
    return np.random.SeedSequence(words)


def stream(seed: int, *labels: int | str) -> np.random.Generator:
    """Return a PCG64 generator keyed by (seed, labels)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *labels)))
