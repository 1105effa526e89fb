"""numpy's SeedSequence-to-PCG64 seeding, restated for many spawn keys at once.

np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
costs about 20 microseconds a generator on a 2-core x86_64 VM, most of it in
building the SeedSequence.  pcg64_states derives the PCG64 (state, inc) of
every key in one pass instead: the seed's pool is mixed once, and each key is
mixed into its own copy of it over numpy uint64 arrays holding 32-bit words.
NEP 19 keeps SeedSequence and PCG64's seeding fixed across numpy versions,
and the tests check the states against numpy's own.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, hash_const, multiplier: int = _HASH_MULT_A):
    """SeedSequence's hash of a word, and the next constant.

    value and hash_const are ints, or uint64 arrays of words that broadcast
    together, so one call can hash many words with many constants.
    """
    hash_next = hash_const * multiplier & _MASK32
    value = (value ^ hash_const) * hash_next & _MASK32
    return value ^ (value >> 16), hash_next


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _constants(hash_const: int, count: int, multiplier: int) -> np.ndarray:
    """hash_const and the count - 1 hash constants after it, as a (count, 1) uint64 column."""
    column = []
    for _ in range(count):
        column.append(hash_const)
        hash_const = hash_const * multiplier & _MASK32
    return np.array(column, dtype=np.uint64)[:, None]


def pcg64_states(seed: int, keys: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that SeedSequence(entropy=seed, spawn_key=(key,)) seeds, per key.

    seed is a nonnegative int.  keys is a uint64 array of spawn keys; each
    must be one 32-bit word, as numpy splits a larger key into two, so a run
    holds fewer than 2**32 settings.  The seed's words, least significant
    first and zero-padded to the pool of four, are mixed once, in Python
    ints.  Every key is then mixed into its own copy of that pool, all four
    pool words at once as a (4, N) array, and the eight output words that
    make PCG64's 128-bit seed and sequence are hashed as one (8, N) array.
    """
    if keys.size and int(keys.max()) > _MASK32:
        raise DomainError("a spawn key must fit in one 32-bit word")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _HASH_INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                hashed, hash_const = _hashmix(pool[source], hash_const)
                pool[target] = _mix(pool[target], hashed)
    # Seed words past the pool's four are the same for every key.
    for word in words[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[target] = _mix(pool[target], hashed)
    # The key is hashed with the next four constants, one per pool word.
    hashed, _ = _hashmix(keys, _constants(hash_const, _POOL_SIZE, _HASH_MULT_A))
    pools = _mix(np.array(pool, dtype=np.uint64)[:, None], hashed)
    # generate_state(4, uint64): eight words hashed from the pool in turn.
    output, _ = _hashmix(
        np.concatenate([pools, pools]),
        _constants(_HASH_INIT_B, 2 * _POOL_SIZE, _HASH_MULT_B),
        _HASH_MULT_B,
    )
    # Little-endian word pairs: the seed's high and low halves, then the sequence's.
    halves = (output[0::2] | output[1::2] << 32).tolist()
    states = []
    for seed_high, seed_low, seq_high, seq_low in zip(*halves):
        # PCG64's srandom: from state 0 and this inc, step, add the seed, step.
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = (inc + (seed_high << 64 | seed_low)) * _PCG64_MULTIPLIER + inc
        states.append((state & _MASK128, inc))
    return states
