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


def _hashmix(value, hash_const: int, multiplier: int = _HASH_MULT_A):
    """SeedSequence's hash of a word, or of a uint64 array of words; also the next constant."""
    hash_next = hash_const * multiplier & _MASK32
    value = (value ^ hash_const) * hash_next & _MASK32
    return value ^ (value >> 16), hash_next


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def pcg64_states(seed: int, keys: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that SeedSequence(entropy=seed, spawn_key=(key,)) seeds, per key.

    seed is a nonnegative int.  keys is a uint64 array of spawn keys; each
    must be one 32-bit word, as numpy splits a larger key into two, so a run
    holds fewer than 2**32 settings.  The seed's words, least significant
    first and zero-padded to the pool of four, are mixed once; every key is
    then mixed into its own copy of that pool, and each pool hashed into
    PCG64's 128-bit seed and sequence.
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
    pools = [np.full(keys.shape, word, dtype=np.uint64) for word in pool]
    for word in [*words[_POOL_SIZE:], keys]:
        for target in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pools[target] = _mix(pools[target], hashed)
    # generate_state(4, uint64): eight words hashed from the pool in turn.
    hash_const = _HASH_INIT_B
    output = []
    for index in range(2 * _POOL_SIZE):
        hashed, hash_const = _hashmix(pools[index % _POOL_SIZE], hash_const, _HASH_MULT_B)
        output.append(hashed)
    # Little-endian word pairs: the seed's high and low halves, then the sequence's.
    halves = [(output[i] | output[i + 1] << 32).tolist() for i in range(0, len(output), 2)]
    states = []
    for seed_high, seed_low, seq_high, seq_low in zip(*halves):
        # PCG64's srandom: from state 0 and this inc, step, add the seed, step.
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = (inc + (seed_high << 64 | seed_low)) * _PCG64_MULTIPLIER + inc
        states.append((state & _MASK128, inc))
    return states
