"""numpy's SeedSequence and PCG64 streams, for many spawn keys at once.

`uniforms(seed, ids, size)` gives, in one numpy pass over the ids, the
rows `np.random.default_rng(np.random.SeedSequence(entropy=seed,
spawn_key=(id,))).random(size)`, bit for bit. It runs the same three
fixed algorithms on uint32 and uint64 arrays, one lane per id:

- SeedSequence's pool mixing (`mix_entropy`) and `generate_state(4,
  uint64)`, with numpy's hash constants;
- PCG64's seeding, `pcg_setseq_128_srandom_r`: the 128-bit state and
  increment are (hi, lo) pairs of uint64 arrays;
- per draw, one LCG step, the XSL-RR 128/64 output (O'Neill, "PCG: a
  family of simple fast space-efficient statistically good algorithms
  for random number generation", HMC-CS-2014-0905, 2014) and numpy's
  `next_double`, (x >> 11) 2^-53.

Every constant is typed, so no operand is promoted to a float. Arrays
wrap modulo 2^32 or 2^64, as the C code does.
"""

import operator

import numpy as np

_U32, _U64 = np.uint32, np.uint64
_MASK32 = 0xFFFFFFFF
_POOL = 4                   # SeedSequence's default pool size, in 32-bit words
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_SHIFT16 = _U32(16)
# PCG64's 128-bit multiplier, and the 32-bit limbs of its low word
_MULT_HI, _MULT_LO = _U64(2549297995355413924), _U64(4865540595714422341)
_MULT_LO_1, _MULT_LO_0 = _MULT_LO >> _U64(32), _MULT_LO & _U64(_MASK32)
_ONE, _S11, _S32, _S58, _S63, _S64 = (_U64(k) for k in (1, 11, 32, 58, 63, 64))
_TWO_M53 = np.float64(2.0 ** -53)


def _words(x):
    """The little-endian 32-bit words of an integer x >= 0; 0 is one word."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


class _Hash:
    """One of SeedSequence's hash chains: each call xors in the constant,
    steps it by the multiplier, multiplies by the new constant and folds
    the high half down (`hashmix`, and the loop of `generate_state`)."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        x = value ^ _U32(self.const)
        self.const = self.const * self.mult & _MASK32
        x = x * _U32(self.const)
        return x ^ (x >> _SHIFT16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT16)


def _pool(seed, spawn_words):
    """The entropy pool of SeedSequence(entropy=seed, spawn_key=(id,)),
    four uint32 arrays, for ids whose 32-bit words are the arrays
    spawn_words. The run entropy is padded to the pool size, because a
    spawn key follows it."""
    run = _words(seed)
    entropy = [np.array([w], dtype=_U32) for w in run + [0] * (_POOL - len(run))]
    entropy += spawn_words
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(v) for v in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for v in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(v))
    return pool


def _mulhi(a):
    """High 64 bits of the 128-bit product a * _MULT_LO, from 32-bit limbs."""
    a1, a0 = a >> _S32, a & _U64(_MASK32)
    mid = a1 * _MULT_LO_0 + ((a0 * _MULT_LO_0) >> _S32)
    low = a0 * _MULT_LO_1 + (mid & _U64(_MASK32))
    return a1 * _MULT_LO_1 + (mid >> _S32) + (low >> _S32)


def _step(hi, lo, inc_hi, inc_lo):
    """The LCG step state * multiplier + inc, modulo 2^128."""
    hi = _mulhi(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo     # the carry of the low words' sum


def uniforms(seed, ids, size):
    """(size, len(ids)) doubles on [0, 1): column k is the stream of
    SeedSequence(entropy=seed, spawn_key=(ids[k],)) through PCG64, as
    Generator.random(size) draws it. seed >= 0; each id in [0, 2^64)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    ids = np.fromiter(map(operator.index, ids), dtype=_U64, count=len(ids))
    lo_words, hi_words = (ids & _U64(_MASK32)).astype(_U32), (ids >> _S32).astype(_U32)
    two = hi_words != 0
    pool = [np.empty(len(ids), dtype=_U32) for _ in range(_POOL)]
    # an id of two words is one more word of entropy: one more mixing round
    for group, words in ((~two, [lo_words]), (two, [lo_words, hi_words])):
        if group.any():
            for p, q in zip(pool, _pool(seed, [w[group] for w in words])):
                p[group] = q
    # generate_state(4, uint64): eight words, cycling over the pool
    hashmix = _Hash(_INIT_B, _MULT_B)
    w32 = [hashmix(pool[i % _POOL]).astype(_U64) for i in range(2 * _POOL)]
    w64 = [w32[2 * k] | (w32[2 * k + 1] << _S32) for k in range(_POOL)]
    # PCG64 takes words 0 and 1 as its initial state, 2 and 3 as its
    # stream, high word first; from state 0, one step leaves the increment
    inc_hi = (w64[2] << _ONE) | (w64[3] >> _S63)
    inc_lo = (w64[3] << _ONE) | _ONE
    lo = inc_lo + w64[1]
    hi, lo = _step(inc_hi + w64[0] + (lo < w64[1]), lo, inc_hi, inc_lo)
    out = np.empty((size, len(ids)))
    for row in out:
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _S58
        x = (x >> rot) | (x << ((_S64 - rot) & _S63))
        np.multiply(x >> _S11, _TWO_M53, out=row)
    return out
