"""The numpy-free stream against numpy's seeded Generator, which stays the reference."""

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


def assert_stream_matches_numpy(seed, order, n):
    numpy_rng = np.random.default_rng(np.random.SeedSequence(seed))
    assert draws(Stream(seed), order, n) == draws(numpy_rng, order, n), (seed, n)


# 2^128 + 3 takes five 32-bit entropy words, one more than SeedSequence's pool.
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 3])
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_stream_draws_what_numpy_draws(seed, order):
    # n = 1-33 crosses the 4-byte uint32 and 8-byte uint64 word boundaries.
    for n in range(1, 34):
        assert_stream_matches_numpy(seed, order, n)


@given(seed=hs.integers(0, 2 ** 200), n=hs.integers(1, 33), order=hs.sampled_from(list(ORDERS.values())))
def test_stream_draws_what_numpy_draws_for_drawn_seeds(seed, n, order):
    assert_stream_matches_numpy(seed, order, n)


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
