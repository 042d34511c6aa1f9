import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from erwalk.streams import replicate_stream, uniforms

SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
STARTS = st.one_of(st.sampled_from([0, 2**63]), st.integers(0, 2**63))


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
        count=st.integers(0, 4),
        offset=st.one_of(st.integers(0, 9), st.integers(0, 5000)),
        length=st.one_of(st.integers(0, 9), st.integers(4097, 4500)),
        given_out=st.booleans(),
    )
    def test_matches_replicate_stream(self, seed, start, count, offset, length, given_out):
        want = oracle(seed, start, count, offset, length)
        if given_out:
            out = np.full((count, length + 3), -1.0)
            got = uniforms(seed, start, count, offset, length, out=out)
            assert np.array_equal(out[:, :length], want)  # filled in place
            assert (out[:, length:] == -1.0).all()  # columns past length untouched
        else:
            got = uniforms(seed, start, count, offset, length)
        assert got.shape == (count, length)
        assert np.array_equal(got, want)

    def test_segments_concatenate(self):
        # reading a stream in windows gives the same draws as reading it whole
        whole = uniforms(9, 100, 3, 0, 50)
        parts = [uniforms(9, 100, 3, o, n) for o, n in [(0, 7), (7, 1), (8, 13), (21, 29)]]
        assert np.array_equal(np.hstack(parts), whole)

    def test_batch_independent(self):
        whole = uniforms(4, 10, 12, 5, 6)
        assert np.array_equal(uniforms(4, 15, 3, 5, 6), whole[5:8])

    @pytest.mark.parametrize("args", [
        (1, 0, 2, -1, 3),  # negative offset
        (1, 0, 2, 0, -1),  # negative length
        (1, 0, -1, 0, 3),  # negative count
        (-1, 0, 2, 0, 3),  # negative seed
        (2**64, 0, 2, 0, 3),  # seed outside the key space
        (1, 2**64 - 1, 2, 0, 3),  # replicate index 2**64
    ])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            uniforms(*args)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (2,), (2, 5, 1)])
    def test_rejects_wrong_out_shape(self, shape):
        with pytest.raises(ValueError):
            uniforms(1, 0, 2, 0, 5, out=np.empty(shape))


class TestReplicateStream:
    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_rejects_keys_outside_64_bits(self, seed, index):
        with pytest.raises(ValueError):
            replicate_stream(seed, index)
