"""Seeded random streams."""

import numpy as np
import pytest
from _oracles import derive_rng_int_list

from specx import derive_rng

PATHS = [
    (),
    ("snr",),
    ("snr-comm", 3, 7),
    ("mix", "mixing"),
    (True, False, 1.5, -0.0, np.float64(2.5)),
    (np.int64(9), np.uint8(255), np.int32(-4)),
    (0, 2**32 - 1, 2**32, 2**63, 2**64 + 5, -1, -(2**40)),
    ("x" * 40, "ü", ""),
]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, -1, -(2**35), 1234])
def test_derive_rng_draws_what_the_int_list_seeding_drew(seed):
    for path in PATHS:
        got = derive_rng(seed, *path)
        want = derive_rng_int_list(seed, *path)
        assert np.array_equal(got.integers(0, 2**63, size=4), want.integers(0, 2**63, size=4))
        assert np.array_equal(got.standard_normal(3), want.standard_normal(3))


def test_derive_rng_paths_give_distinct_streams():
    draws = {derive_rng(7, *path).integers(0, 2**63) for path in PATHS}
    assert len(draws) == len(PATHS)
