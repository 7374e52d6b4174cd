"""Numpy's seeded streams in plain Python: SeedSequence's hashing and a PCG64.

``default_rng(SeedSequence(seed))`` seeds a PCG64 from
``SeedSequence(seed).generate_state(4, uint64)``.  The hashing here is
SeedSequence's, with numpy's constants, and works on Python ints and on
uint32 arrays alike, so :mod:`chshsim.montecarlo` derives a whole chunk
of batch streams from it at once.  :class:`Stream` steps PCG64 with the
XSL-RR output (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905, 2014) in Python ints, and gives the
draws the strategies make bit for bit as numpy's ``Generator`` does.
This module imports no numpy.
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of a uint32 word (int or uint32 array), and the next constant."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _mix_in(pool: list, word, const: int):
    """Mix one entropy word beyond the pool size into every pool word."""
    out = []
    for p in pool:
        h, const = _hashmix(word, const)
        out.append(_mix(p, h))
    return out, const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence(seed)'s pool and the hash constant reached there.

    They are also SeedSequence(seed, spawn_key=(i,))'s before the spawn
    key is mixed in, so neither depends on i.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while (seed := seed >> 32) > 0:
        words.append(seed & _M32)
    words += [0] * (4 - len(words))  # missing pool words hash 0, as a spawn key's padding does
    const = _INIT_A
    pool = []
    for word in words[:4]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[4:]:
        pool, const = _mix_in(pool, word, const)
    return pool, const


def _generate_state(pool: list) -> list:
    """``generate_state(8, uint32)`` of a mixed pool (ints or uint32 arrays).

    As ``generate_state(4, uint64)`` the words pair up low word first:
    PCG64's initial state (high, low), then its sequence (high, low).
    """
    const = _INIT_B
    words = []
    for k in range(8):
        h, const = _hashmix(pool[k % 4], const, _MULT_B)
        words.append(h)
    return words


class Stream:
    """The draws of ``default_rng(SeedSequence(seed))`` that strategies make.

    ``integers(0, k, size=n, dtype="uint8")`` for k in {2, 4} and
    ``random(n)`` return lists equal to numpy's arrays, in any order of
    calls.  Any other ``integers`` request raises ``ValueError``, so no
    draw can silently differ from numpy's.
    """

    def __init__(self, seed: int):
        w = _generate_state(_seed_pool(seed)[0])
        init_hi, init_lo, seq_hi, seq_lo = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        # PCG64's seeding: inc = 2 seq + 1, state = (inc + init) * MULT + inc.
        self._inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (init_hi << 64 | init_lo)) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the unused high half of a word that gave a uint32

    def _next64(self) -> int:
        """Step the state, then output it by XSL-RR: the xor of its halves
        rotated right by its top six bits."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        hi = state >> 64
        x = (hi ^ state) & _M64
        rot = hi >> 58
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        """A uint32 word: a fresh word's low half, its high half the next time."""
        if self._half is not None:
            word, self._half = self._half, None
            return word
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, low, high, size, dtype) -> list[int]:
        """``size`` draws from [0, high) for high in {2, 4}, as uint8.

        Numpy draws a byte per value from buffered uint32 words, low byte
        first, and scales it by Lemire's method, which never rejects for
        these ranges: each draw is the top bit(s) of its byte.
        """
        if low != 0 or high not in (2, 4) or dtype != "uint8":
            raise ValueError(f"unsupported integers({low!r}, {high!r}, dtype={dtype!r})")
        shift = 7 if high == 2 else 6
        out = []
        for i in range(size):
            word = self._next32() if i % 4 == 0 else word >> 8
            out.append((word & 0xFF) >> shift)
        return out

    def random(self, size) -> list[float]:
        """``size`` uniforms in [0, 1), each a word's top 53 bits times 2^-53."""
        return [(self._next64() >> 11) * 2.0 ** -53 for _ in range(size)]
