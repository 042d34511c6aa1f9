"""Reproducible per-replicate random number streams.

Every replicate of an ensemble gets its own counter-based stream keyed by
(master_seed, replicate_index), so results are bit-identical no matter how
replicates are batched or distributed over workers.

Stream layout.  Replicate j of master seed s is numpy's Philox4x64-10 under
the 128-bit key (s, j), with seeds and indices in [0, 2**64).  Each uniform
consumes one 64-bit output word, so draw d of replicate j is lane d % 4 of
the Philox block at counter d // 4 + 1 (numpy increments the counter before
it generates a block).  Draw d is therefore a pure function of (s, j, d), and
`uniforms` reads any window of draws of any run of replicates without
building a Generator per replicate; `replicate_stream` is the one-replicate
reference it is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replicate_stream", "uniforms"]

_KEY_SPACE = 1 << 64


def _check_key(master_seed: int, start: int, count: int = 1) -> None:
    if not 0 <= master_seed < _KEY_SPACE:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    if start < 0 or count < 0 or start + count > _KEY_SPACE:
        raise ValueError("replicate indices must lie in [0, 2**64)")


def replicate_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent Generator for one replicate, keyed by (master_seed, index)."""
    _check_key(master_seed, index)
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(
    master_seed: int,
    start: int,
    count: int,
    offset: int,
    length: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draws offset, ..., offset + length - 1 of replicates start, ..., start + count - 1.

    Row j of the returned (count, length) block equals
    `replicate_stream(master_seed, start + j).random(offset + length)[offset:]`
    bit for bit.  If `out` is given it must have shape (count, m) with
    m >= length; its first `length` columns are filled and returned as a view.
    """
    _check_key(master_seed, start, count)
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be nonnegative")
    if out is None:
        out = np.empty((count, length), dtype=np.float64)
    elif out.ndim != 2 or out.shape[0] != count or out.shape[1] < length:
        raise ValueError(f"out must have shape ({count}, >= {length}), got {out.shape}")
    block = out[:, :length]
    # One bit generator, re-keyed per row: setting the state is far cheaper
    # than constructing a Philox, whose SeedSequence pulls OS entropy.
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    key = np.array([master_seed, 0], dtype=np.uint64)
    counter = np.array([offset // 4, 0, 0, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # buffer spent: the next draw generates block offset // 4 + 1
        "has_uint32": 0,
        "uinteger": 0,
    }
    skip = offset % 4
    for j in range(count):
        key[1] = start + j
        bitgen.state = state
        if skip:
            gen.random(skip)
        gen.random(out=block[j])
    return block
