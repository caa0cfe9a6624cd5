"""Deterministic random streams keyed by (seed, label).

Every random draw in the package flows through a stream derived from an
explicit 64-bit seed and a short string label. Philox is counter-based, so
distinct (seed, label) pairs give statistically independent streams and the
same pair always reproduces the same draws.
"""

import hashlib
import operator

import numpy as np

from .errors import InvalidSpec


def check_integer(value, name: str) -> int:
    """`value` as an int; `InvalidSpec` unless it is an integer, numpy
    integers included and bools not, since any other value would alias an
    integer: int(1.5) and int(True) are both 1."""
    if isinstance(value, bool):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None


def check_seed(seed: int) -> int:
    """`seed` as an int; `InvalidSpec` unless `check_integer` accepts it
    and it lies in [0, 2^64)."""
    seed = check_integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise InvalidSpec(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def stream(seed: int, label: str = "") -> np.random.Generator:
    """Return the generator for the stream identified by (seed, label)."""
    seed = check_seed(seed)
    word = int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little"
    )
    key = seed | (word << 64)
    return np.random.Generator(np.random.Philox(key=key))
