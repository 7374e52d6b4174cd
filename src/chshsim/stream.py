"""The package's stream format in plain Python: SeedSequence's hashing and a PCG64.

The stream of a seed, and of batch i of a master seed, is what numpy's
``default_rng(SeedSequence(seed, spawn_key=(i,)))`` draws.  Numpy keeps
a bit generator's stream across releases, but not ``Generator``'s draws,
so the package defines the format here and the tests hold it to numpy.
The hashing is SeedSequence's, on Python ints and uint32 arrays alike,
so :mod:`chshsim.montecarlo` seeds a whole chunk of batches from it at
once.  :class:`Stream` steps PCG64 with the XSL-RR output (M. E. O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905, 2014) in
Python ints, and lays its draws out in numpy's bytes and words.  This
module imports no numpy.
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
_TOP_BITS = {2: bytes(b >> 7 for b in range(256)), 4: bytes(b >> 6 for b in range(256))}  # a byte's draw, by high


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


def _uint32_words(value: int) -> list[int]:
    """A non-negative int's uint32 words, low word first; 0 takes one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while (value := value >> 32) > 0:
        words.append(value & _M32)
    return words


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence(seed)'s pool and the hash constant reached there.

    They are also SeedSequence(seed, spawn_key=(i,))'s before the spawn
    key is mixed in, so neither depends on i.
    """
    words = _uint32_words(seed)
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
    """The draws of ``default_rng(SeedSequence(seed, spawn_key=(spawn_index,)))``,
    or with no spawn key if ``spawn_index`` is None, that the package makes.

    ``integers(0, k, size=n, dtype="uint8")`` for k in {2, 4} and
    ``random(n)`` return lists equal to numpy's arrays, in any order of
    calls.  Any other ``integers`` request raises ``ValueError``, so no
    draw can silently differ from numpy's.  A seed or spawn index that
    ``SeedSequence`` refuses is refused alike.
    """

    def __init__(self, seed: int, spawn_index: int | None = None):
        pool, const = _seed_pool(seed)
        for word in _uint32_words(spawn_index) if spawn_index is not None else ():
            pool, const = _mix_in(pool, word, const)
        w = _generate_state(pool)
        init_hi, init_lo, seq_hi, seq_lo = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        # PCG64's seeding: inc = 2 seq + 1, state = (inc + init) * MULT + inc.
        self._inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (init_hi << 64 | init_lo)) * _PCG_MULT + self._inc) & _M128
        self._half = b""  # the bytes of a uint64's high half, not yet drawn from

    def _random_raw(self, count: int) -> list[int]:
        """The next ``count`` uint64 words; each steps the state and outputs
        it by XSL-RR, the xor of its halves rotated right by its top six bits."""
        state, inc, words = self._state, self._inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _M128
            hi = state >> 64
            x = (hi ^ state) & _M64
            rot = hi >> 58
            words.append((x >> rot | x << (64 - rot)) & _M64)
        self._state = state
        return words

    def integers(self, low, high, size, dtype) -> list[int]:
        """``size`` draws from [0, high) for high in {2, 4}, as uint8.

        Numpy draws a byte per value from buffered uint32 words, low byte
        first, and scales it by Lemire's method, which never rejects for
        these ranges: each draw is the top bit(s) of its byte.  A uint64
        gives two uint32 words, low half first, the high one kept for later.
        """
        if low != 0 or high not in _TOP_BITS or dtype != "uint8":
            raise ValueError(f"unsupported integers({low!r}, {high!r}, dtype={dtype!r})")
        end = 4 * -(-size // 4)  # the bytes of whole uint32 words
        words = self._random_raw(-(-(end - len(self._half)) // 8))
        data = self._half + b"".join([word.to_bytes(8, "little") for word in words])
        self._half = data[end:]
        return list(data[:size].translate(_TOP_BITS[high]))

    def random(self, size) -> list[float]:
        """``size`` uniforms in [0, 1), each a word's top 53 bits times 2^-53."""
        return [(word >> 11) * 2.0 ** -53 for word in self._random_raw(size)]
