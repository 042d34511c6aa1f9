import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from erwalk import streams
from erwalk.streams import (
    _KERNEL_CHUNK,
    _KERNEL_MAX_LENGTH,
    _KERNEL_MIN_ROWS,
    _check_key,
    _philox_rows,
    _rekeyed_rows,
    replicate_stream,
    uniform_rows,
)

SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
STARTS = st.one_of(st.sampled_from([0, 2**63]), st.integers(0, 2**63))
#: (count, length) pairs: a few rows, short or long, which are re-keyed; and
#: blocks just below, at and above the kernel's row and length thresholds,
#: some long enough to cross its chunk boundary
_NEAR_MAX = st.integers(_KERNEL_MAX_LENGTH - 4, _KERNEL_MAX_LENGTH + 2)
#: one row more than a kernel pass holds when each row spans 12 Philox blocks
_PAST_CHUNK = _KERNEL_CHUNK // 12 + 1
SHAPES = st.one_of(
    st.tuples(st.integers(0, 4), st.one_of(st.integers(0, 9), st.integers(4097, 4500))),
    st.tuples(st.integers(_KERNEL_MIN_ROWS - 2, _KERNEL_MIN_ROWS + 2), st.one_of(st.integers(0, 9), _NEAR_MAX)),
    st.tuples(st.integers(_PAST_CHUNK, _PAST_CHUNK + 300), _NEAR_MAX),
)
#: a block the array kernel fills at up to _KERNEL_MAX_LENGTH draws a row,
#: well above its row threshold (test_dispatch_on_shape checks that it does)
KERNEL_BLOCK = 256
#: the last offset below 2**66 whose counters pass 2**64 within 20 draws
CARRY_OFFSET = 4 * (2**64 - 1) - 8


def run_rows(seed, start, count, offset, length, out=None):
    """Rows of replicates start, ..., start + count - 1, keyed as the per-step
    engines key a block."""
    keys = np.arange(count, dtype=np.uint64) + np.uint64(start)
    return uniform_rows(seed, keys, offset, length, out=out)


def oracle(seed, start, count, offset, length):
    """Row j: draws offset .. offset+length-1 of replicate start+j, one Generator each."""
    out = np.empty((count, length))
    for j in range(count):
        out[j] = replicate_stream(seed, start + j).random(offset + length)[offset:]
    return out


class TestUniforms:
    @given(
        seed=SEEDS,
        start=STARTS,
        shape=SHAPES,
        offset=st.one_of(st.integers(0, 9), st.integers(0, 5000)),
        given_out=st.booleans(),
    )
    def test_matches_replicate_stream(self, seed, start, shape, offset, given_out):
        count, length = shape
        want = oracle(seed, start, count, offset, length)
        if given_out:
            out = np.full((count, length + 3), -1.0)
            got = run_rows(seed, start, count, offset, length, out=out)
            assert np.array_equal(out[:, :length], want)  # filled in place
            assert (out[:, length:] == -1.0).all()  # columns past length untouched
        else:
            got = run_rows(seed, start, count, offset, length)
        assert got.shape == (count, length)
        assert np.array_equal(got, want)

    def test_segments_concatenate(self):
        # reading a stream in windows gives the same draws as reading it whole
        whole = run_rows(9, 100, 3, 0, 50)
        parts = [run_rows(9, 100, 3, o, n) for o, n in [(0, 7), (7, 1), (8, 13), (21, 29)]]
        assert np.array_equal(np.hstack(parts), whole)

    def test_batch_independent(self):
        whole = run_rows(4, 10, 12, 5, 6)
        assert np.array_equal(run_rows(4, 15, 3, 5, 6), whole[5:8])

    @pytest.mark.parametrize("args", [
        (1, 0, 2, -1, 3),  # negative offset
        (1, 0, 2, 0, -1),  # negative length
        (1, 0, -1, 0, 3),  # negative count
        (-1, 0, 2, 0, 3),  # negative seed
        (2**64, 0, 2, 0, 3),  # seed outside the key space
        (1, 2**64 - 1, 2, 0, 3),  # replicate index 2**64
        (1, 0, 2, 2**66, 3),  # counter word 0 past 2**64 before the first block
        (1, 0, 300, 2**66 + 5, 3),  # the same for a block the kernel fills
    ])
    def test_rejects_bad_arguments(self, args):
        seed, start, count, offset, length = args
        with pytest.raises(ValueError):
            if count < 0 or start + count > 2**64:
                # a run's range of keys is checked once per call, before any block
                _check_key(seed, start, count)
            else:
                run_rows(*args)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (2,), (2, 5, 1)])
    def test_rejects_wrong_out_shape(self, shape):
        with pytest.raises(ValueError):
            run_rows(1, 0, 2, 0, 5, out=np.empty(shape))

    @pytest.mark.parametrize("count", [2, KERNEL_BLOCK])  # re-keyed and kernel
    @pytest.mark.parametrize("make", [
        lambda c: np.zeros((c, 7), dtype=np.float32),
        lambda c: np.zeros((c, 7), dtype=np.int64),
        lambda c: np.zeros((c, 7), order="F"),
        lambda c: np.zeros((c, 14))[:, ::2],
    ], ids=["float32", "int64", "fortran", "strided"])
    def test_rejects_wrong_out_layout(self, count, make):
        out = make(count)
        before = out.copy()
        with pytest.raises(ValueError, match="float64 with contiguous rows"):
            run_rows(1, 0, count, 0, 5, out=out)
        assert np.array_equal(out, before)  # nothing written

    @pytest.mark.parametrize("count,length,kernel", [
        (1, 11, False),
        (_KERNEL_MIN_ROWS - 1, 11, False),
        (_KERNEL_MIN_ROWS, 11, True),
        (_KERNEL_MIN_ROWS, _KERNEL_MAX_LENGTH, True),
        (_KERNEL_MIN_ROWS, _KERNEL_MAX_LENGTH + 1, False),
        (KERNEL_BLOCK, 11, True),
        (KERNEL_BLOCK, _KERNEL_MAX_LENGTH, True),
        (KERNEL_BLOCK, _KERNEL_MAX_LENGTH + 1, False),
        (2048, 2000, False),
    ])
    def test_dispatch_on_shape(self, monkeypatch, count, length, kernel):
        taken = []
        monkeypatch.setattr(streams, "_philox_rows", lambda *a: taken.append(True))
        monkeypatch.setattr(streams, "_rekeyed_rows", lambda *a: taken.append(False))
        for offset in (0, 3, 10**6):
            run_rows(5, 17, count, offset, length)
        assert taken == [kernel] * 3


class TestPhiloxKernel:
    """The array kernel against numpy's Philox, re-keyed per row."""

    @staticmethod
    def both(seed, start, count, offset, length):
        got = np.full((count, length), -1.0)
        want = np.full((count, length), -2.0)
        keys = np.arange(count, dtype=np.uint64) + np.uint64(start)
        _philox_rows(seed, keys, offset, got)
        _rekeyed_rows(seed, keys, offset, want)
        return got, want

    @given(
        seed=SEEDS,
        start=st.integers(0, 2**64 - 1),
        count=st.integers(0, 40),
        offset=st.one_of(st.integers(0, 9), st.integers(0, 2**40), st.integers(2**66 - 400, 2**66 - 1)),
        length=st.one_of(st.integers(0, 9), st.integers(0, 80)),
        chunk=st.sampled_from([1, 7, 64, _KERNEL_CHUNK]),
    )
    def test_matches_rekeyed_rows(self, seed, start, count, offset, length, chunk):
        count = min(count, 2**64 - start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "_KERNEL_CHUNK", chunk)  # passes of 1 row up to whole blocks
            got, want = self.both(seed, start, count, offset, length)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("skip", range(4))
    def test_rekeyed_rows_at_keys_past_2_63(self, skip):
        # the re-keyed fill sets the key as Python ints; seeds and indices of
        # 2**63 and more do not fit an int64, and must keep every bit
        keys = np.array([2**63, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        for seed in (2**63, 2**64 - 1):
            got = np.empty((3, 9))
            _rekeyed_rows(seed, keys, 8 + skip, got)
            for row, index in zip(got, keys.tolist()):
                assert np.array_equal(row, replicate_stream(seed, index).random(17 + skip)[8 + skip:])

    @pytest.mark.parametrize("offset", [CARRY_OFFSET, CARRY_OFFSET + 3, 2**66 - 1])
    def test_counter_carry(self, offset):
        # the window's counters pass 2**64, so word 0 carries into word 1;
        # no Generator read from draw 0 can reach these draws
        got, want = self.both(2**64 - 1, 2**64 - 5, 5, offset, 20)
        assert np.array_equal(got, want)
        assert np.array_equal(run_rows(2**64 - 1, 2**64 - _KERNEL_MIN_ROWS, _KERNEL_MIN_ROWS, offset, 20)[-5:], want)


class TestReplicateStream:
    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_rejects_keys_outside_64_bits(self, seed, index):
        with pytest.raises(ValueError):
            replicate_stream(seed, index)


class TestUniformRows:
    @pytest.mark.parametrize("count", [3, KERNEL_BLOCK + 1])  # re-keyed, kernel
    def test_rows_of_any_replicates(self, count):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        keys[0] = 2**64 - 1
        got = uniform_rows(2**64 - 1, keys, 5, 20)
        for j in (0, 1, count - 1):
            want = run_rows(2**64 - 1, int(keys[j]), 1, 5, 20)[0]
            assert np.array_equal(got[j], want)
        block = run_rows(3, 40, count, 0, 12)
        out = np.full((count, 16), -1.0)
        assert np.array_equal(uniform_rows(3, np.arange(40, 40 + count), 0, 12, out=out), block)
        assert (out[:, 12:] == -1.0).all()

    @pytest.mark.parametrize("keys", [[-1], [[1, 2]], [0.5]])
    def test_rejects_bad_indices(self, keys):
        with pytest.raises(ValueError, match="replicates"):
            uniform_rows(1, np.array(keys), 0, 4)

    def test_empty(self):
        assert uniform_rows(1, np.arange(0), 0, 4).shape == (0, 4)
