"""The package's stream against numpy's seeded Generator, the independent reference it is held to."""

import numpy as np
import pytest
from hypothesis import given, strategies as hs

from chshsim.stream import Stream

#: Draw orders, each a list of (method, args): an n-coin tape and then n
#: uniforms, as the quantum sampler draws; uniforms alone, as a mixture
#: draws; and the four-valued setting pairs first, as a simulated batch does.
ORDERS = {
    "coins-then-uniforms": [("integers", (0, 2)), ("random", ())],
    "uniforms": [("random", ())],
    "pairs-coins-uniforms": [("integers", (0, 4)), ("integers", (0, 2)), ("random", ())],
}


def draws(rng, order, n):
    """Every draw of ``order`` at size n, as Python lists."""
    out = []
    for method, args in order:
        if method == "integers":
            values = rng.integers(*args, size=n, dtype="uint8")
        else:
            values = rng.random(n)
        out.append(values.tolist() if isinstance(values, np.ndarray) else values)
    return out


def assert_stream_matches_numpy(seed, order, n, index=None):
    """``Stream(seed, index)`` draws what numpy's Generator of the seed
    draws, spawned with the one-entry key ``(index,)`` unless it is None."""
    key = () if index is None else (index,)
    numpy_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert draws(Stream(seed, index), order, n) == draws(numpy_rng, order, n), (seed, index, n)


#: Spawn indices: none, one word, its largest, two words from 2^32 on,
#: and three from 2^64 on.
SPAWN_INDICES = (None, 0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 63, 2 ** 64 + 3)


# 2^128 + 3 takes five 32-bit entropy words, one more than SeedSequence's
# pool, and its fifth word is mixed in before the spawn index's words.
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 3])
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_stream_draws_what_numpy_draws(seed, order):
    # n = 1-33 crosses the 4-byte uint32 and 8-byte uint64 word boundaries.
    for index in SPAWN_INDICES:
        for n in range(1, 34):
            assert_stream_matches_numpy(seed, order, n, index)


@given(
    seed=hs.integers(0, 2 ** 200),
    n=hs.integers(1, 33),
    order=hs.sampled_from(list(ORDERS.values())),
    index=hs.one_of(hs.none(), hs.integers(0, 2 ** 32 - 1), hs.integers(2 ** 32, 2 ** 96)),
)
def test_stream_draws_what_numpy_draws_for_drawn_seeds(seed, n, order, index):
    assert_stream_matches_numpy(seed, order, n, index)


@pytest.mark.parametrize(
    "low, high, dtype",
    [(0, 3, "uint8"), (0, 8, "uint8"), (1, 4, "uint8"), (0, 2, "uint16"), (0, 4, "int64"), (0, 2, np.uint8)],
)
def test_stream_refuses_draws_it_cannot_match(low, high, dtype):
    with pytest.raises(ValueError, match="unsupported integers"):
        Stream(0).integers(low, high, size=4, dtype=dtype)


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1)


@pytest.mark.parametrize("index, error", [(-1, ValueError), (-(2 ** 40), ValueError), (3.0, TypeError)])
def test_stream_refuses_a_spawn_index_that_seed_sequence_refuses(index, error):
    # A negative index must raise, not shift right forever.
    with pytest.raises(error):
        np.random.SeedSequence(0, spawn_key=(index,))
    with pytest.raises(error):
        Stream(0, index)
