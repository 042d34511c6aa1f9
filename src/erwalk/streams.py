"""Reproducible counter-based random number streams.

Every stream is keyed by (master_seed, index), so any draw of any stream can
be read directly, and results are bit-identical no matter how the work that
reads them is batched or distributed over workers.

Stream layout.  Stream j of master seed s is numpy's Philox4x64-10 under
the 128-bit key (s, j), with seeds and indices in [0, 2**64).  Each uniform
consumes one 64-bit output word, so draw d of stream j is lane d % 4 of
the Philox block at counter d // 4 + 1 (numpy increments the counter before
it generates a block).  Draw d is therefore a pure function of (s, j, d), and
`uniform_rows` reads any window of draws of any list of streams without
building a Generator per stream; `replicate_stream` is the one-stream
reference it is tested against.  Offsets stop below 2**66, where the block
counter's word 0 would pass 2**64 before the window starts.

Two fills.  `uniform_rows` computes a block of rows in one of two ways, with
the same bits:

* Re-keying: one numpy Philox is set to key (s, j) and counter offset // 4
  per row, and fills the row in C at about 7-11 ns per draw.  The state is
  set from Python ints, which the setter reads in 0.48 us against 1.09 us
  for uint64 arrays; with the `random` call a row costs a fixed 2 us,
  which dominates rows of a few dozen draws.
* The array kernel computes Philox4x64-10 (Salmon, Moraes, Dror and Shaw,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11; the Random123
  constants) for every (row, block) pair of a chunk of rows at once, with
  uint64 numpy operations.  A round maps the counter words (w0, w1, w2, w3)
  under key (k0, k1) to (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1,
  lo(M0 w0)), with M0 = 0xD2E7470EE14C6C93, M1 = 0xCA5A826395121157 and the
  64 x 64 -> 128 bit products built from 32-bit halves.  Between rounds the
  key is bumped by (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B); there are 10
  rounds.  The counter of block b is (b mod 2**64, b >> 64, 0, 0), word 0
  carrying into word 1 as numpy's does, and a word x becomes the double
  (x >> 11) * 2**-53.  It costs about 0.15 ms per call and 40-50 ns per draw.

Dispatch.  The kernel fills blocks of at least 128 rows of at most 48
draws; everything else is re-keyed.  Measured on a 2-core Xeon VM (numpy
2.4, offset 3, fastest of 41 interleaved calls, re-keyed / kernel): 64 x 1
draws 0.14 / 0.16 ms; 96 x 8 0.21 / 0.21 ms; 128 x 1 0.26 / 0.17 ms;
128 x 16 0.28 / 0.25 ms; 128 x 48 0.30 / 0.37 ms; 256 x 48 0.59 / 0.57 ms;
512 x 48 1.18 / 0.74 ms; 2000 x 1 3.98 / 0.42 ms; 2000 x 32 4.38 / 2.68
ms; 2000 x 48 4.66 / 4.52 ms; 2000 x 56 4.73 / 5.75 ms.

Callers.  The per-step engines of `walkers` key a stream per time step:
transition n of replicate r reads draw r (collapsed) or draws 2r and
2r + 1 (full) of stream n, so one row holds a step's draws for a block of
replicates.  A block of 2048 replicates fills rows of 2048 or 4096 draws,
re-keyed one per step; a walk or a small ensemble fills thousands of steps
of a few draws each, which take the kernel.  The events engine keys a
stream per replicate and reads just the replicates still running: its
candidate k of replicate r reads draws 2k (the geometric gap) and 2k + 1
(the thinning coin), and each fill reads up to 48 draws (24 candidates).
"""

from __future__ import annotations

import numpy as np
# bound at import: loading numpy.random stays out of a run, and a test that
# replaces np.random.Generator to catch unkeyed draws still gets keyed ones here
from numpy.random import Generator, Philox

__all__ = ["replicate_stream", "uniform_rows"]

_KEY_SPACE = 1 << 64
#: from offset 2**66 on, the counter of the block before the window (offset // 4)
#: no longer fits counter word 0
_MAX_OFFSET = 1 << 66

# Philox4x64-10 as numpy implements it, from Random123's philox.h: the round
# multipliers of words 0 and 2, and the Weyl increments of key words 0 and 1
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_M_LO = _PHILOX_M & _LO32
_M_HI = _PHILOX_M >> 32

#: `uniform_rows` takes the array kernel for blocks of at least this many rows of
#: at most this many draws (the measurement is in the module docstring)
_KERNEL_MIN_ROWS = 128
_KERNEL_MAX_LENGTH = 48
#: (row, block) pairs per kernel pass; the pass's scratch is 128 bytes each
_KERNEL_CHUNK = 16384


def _check_key(master_seed: int, start: int, count: int = 1) -> None:
    if not 0 <= master_seed < _KEY_SPACE:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    if start < 0 or count < 0 or start + count > _KEY_SPACE:
        raise ValueError("replicate indices must lie in [0, 2**64)")


def replicate_stream(master_seed: int, index: int) -> Generator:
    """Independent Generator for the stream keyed by (master_seed, index): a
    replicate's in the events engine, a time step's in the per-step engines."""
    _check_key(master_seed, index)
    key = np.array([master_seed, index], dtype=np.uint64)
    return Generator(Philox(key=key))


def uniform_rows(
    master_seed: int,
    replicates,
    offset: int,
    length: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draws offset, ..., offset + length - 1 of the replicates `replicates`.

    `replicates` is a 1-d array of nonnegative integers below 2**64.  Row j
    of the returned (len(replicates), length) block equals
    `replicate_stream(master_seed, replicates[j]).random(offset + length)[offset:]`
    bit for bit.  If `out` is given it must be a float64 array of shape
    (len(replicates), m) with m >= length and contiguous rows; its first
    `length` columns are filled and returned as a view.
    """
    keys = np.asarray(replicates)
    if keys.ndim != 1 or (keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0)):
        raise ValueError("replicates must be a 1-d array of indices in [0, 2**64)")
    _check_key(master_seed, 0)
    keys = keys.astype(np.uint64, copy=False)
    count = len(keys)
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be nonnegative")
    if offset >= _MAX_OFFSET:
        raise ValueError(f"offset must be below 2**66, got {offset}")
    if out is None:
        out = np.empty((count, length), dtype=np.float64)
    elif out.ndim != 2 or out.shape[0] != count or out.shape[1] < length:
        raise ValueError(f"out must have shape ({count}, >= {length}), got {out.shape}")
    elif out.dtype != np.float64 or (out.size and out.shape[1] > 1 and out.strides[1] != out.itemsize):
        raise ValueError(f"out must be float64 with contiguous rows, got {out.dtype}, strides {out.strides}")
    block = out[:, :length]
    if count >= _KERNEL_MIN_ROWS and length <= _KERNEL_MAX_LENGTH:
        _philox_rows(master_seed, keys, offset, block)
    else:
        _rekeyed_rows(master_seed, keys, offset, block)
    return block


def _rekeyed_rows(master_seed: int, keys: np.ndarray, offset: int, block: np.ndarray) -> None:
    """Fill row j of `block` by re-keying one numpy Philox to (master_seed, keys[j])."""
    # Setting the state is far cheaper than constructing a Philox, whose
    # SeedSequence pulls OS entropy; the setter reads Python ints faster
    # than uint64 arrays, with the same bits.
    bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
    gen = Generator(bitgen)
    key = [master_seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [offset // 4, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer spent: the next draw generates block offset // 4 + 1
        "has_uint32": 0,
        "uinteger": 0,
    }
    skip = offset % 4
    for j, index in enumerate(keys.tolist()):
        key[1] = index
        bitgen.state = state
        if skip:
            gen.random(skip)
        gen.random(out=block[j])


def _mulhilo(a, hi, lo, t, u) -> None:
    """hi, lo = high and low words of the 128-bit products _PHILOX_M * a.

    Built from 32-bit halves, in place: `a`, `t` and `u` are overwritten.
    """
    np.multiply(a, _PHILOX_M, out=lo)
    np.bitwise_and(a, _LO32, out=u)  # u = a_lo
    np.multiply(u, _M_LO, out=t)
    np.right_shift(t, 32, out=t)  # t = (a_lo * m_lo) >> 32
    np.right_shift(a, 32, out=hi)  # hi = a_hi
    np.multiply(hi, _M_LO, out=a)
    np.add(t, a, out=t)  # t = a_hi * m_lo + ((a_lo * m_lo) >> 32), below 2**64
    np.multiply(u, _M_HI, out=u)
    np.bitwise_and(t, _LO32, out=a)
    np.add(u, a, out=u)  # u = a_lo * m_hi + (t & 0xFFFFFFFF), below 2**64
    np.multiply(hi, _M_HI, out=hi)
    np.right_shift(t, 32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(u, 32, out=u)
    np.add(hi, u, out=hi)


def _philox_rows(master_seed: int, keys: np.ndarray, offset: int, block: np.ndarray) -> None:
    """Fill `block` as `_rekeyed_rows` does, computing Philox4x64-10 for every
    (row, block) pair of a pass of rows at once with uint64 array operations."""
    count, length = block.shape
    skip = offset % 4
    nblocks = (skip + length + 3) // 4
    rows = max(1, min(count, _KERNEL_CHUNK // max(nblocks, 1)))
    # The state of every (row, block) pair is split by role: `a` holds words
    # 0 and 2, which a round multiplies, and `b` words 1 and 3, which it xors in.
    scratch = np.empty((6, 2, nblocks, rows), dtype=np.uint64)
    words = np.empty((rows, nblocks, 4), dtype=np.uint64)
    key = np.empty((2, 1, rows), dtype=np.uint64)
    # Round 1 sees the counter (c mod 2**64, c >> 64, 0, 0) of each Philox
    # block, the same for every row; only its final xor with key word 1
    # depends on the row.  So it runs once, on one column of counters.
    ctr = [offset // 4 + 1 + i for i in range(nblocks)]
    a1, b1, hi1, lo1, t1, u1 = np.zeros((6, 2, nblocks, 1), dtype=np.uint64)
    a1[0, :, 0] = [c % _KEY_SPACE for c in ctr]
    b1[0, :, 0] = [c // _KEY_SPACE for c in ctr]
    # A round maps (w0, w1, w2, w3) to
    # (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0)).
    _mulhilo(a1, hi1, lo1, t1, u1)
    np.bitwise_xor(hi1[::-1], b1, out=a1)
    for r0 in range(0, count, rows):
        n = min(rows, count - r0)
        a, b, hi, lo, t, u = scratch[..., :n]
        k = key[..., :n]
        k[0] = master_seed
        k[1, 0] = keys[r0:r0 + n]
        np.bitwise_xor(a1, k, out=a)
        np.copyto(b, lo1[::-1])
        for _ in range(_PHILOX_ROUNDS - 1):
            k += _PHILOX_W
            _mulhilo(a, hi, lo, t, u)
            np.bitwise_xor(hi[::-1], b, out=a)
            np.bitwise_xor(a, k, out=a)
            b, lo = lo[::-1], b
        # interleave the four words of each Philox block into the row's draws
        w = words[:n]
        for lane, word in enumerate((a[0], b[0], a[1], b[1])):
            np.right_shift(word.T, 11, out=w[:, :, lane])
        np.multiply(w.reshape(n, 4 * nblocks)[:, skip:skip + length], 2.0**-53, out=block[r0:r0 + n])
