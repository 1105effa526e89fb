import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from he3cap.errors import DomainError
from he3cap.seeding import pcg64_states


def _numpy_stream_state(seed: int, key: int) -> tuple[int, int]:
    """The PCG64 (state, inc) that numpy seeds from (seed, key)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


@given(
    seed=st.integers(1, 6).flatmap(lambda words: st.integers(0, 2 ** (32 * words) - 1)),
    keys=st.lists(st.integers(0, 300), min_size=1, max_size=8),
)
@example(seed=0, keys=[0, 300])
@example(seed=2**32 - 1, keys=[1])
@example(seed=2**32, keys=[2])
@example(seed=2**64, keys=[299])
@example(seed=2**128 + 1, keys=[0, 7, 124])
def test_states_are_numpys(seed, keys):
    states = pcg64_states(seed, np.array(keys, dtype=np.uint64))
    assert states == [_numpy_stream_state(seed, key) for key in keys]


def test_no_keys_give_no_states():
    assert pcg64_states(7, np.arange(0, dtype=np.uint64)) == []


@pytest.mark.parametrize("seed", [0, 7, 2**128 + 1])
def test_a_spawn_key_is_one_32_bit_word(seed):
    # numpy splits a spawn key of 2**32 or more into two words, which the
    # derivation does not restate, so a run holds fewer than 2**32 settings.
    last = 2**32 - 1
    keys = np.array([last], dtype=np.uint64)
    assert pcg64_states(seed, keys) == [_numpy_stream_state(seed, last)]
    with pytest.raises(DomainError, match="one 32-bit word"):
        pcg64_states(seed, keys + 1)
