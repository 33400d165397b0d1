"""Seed derivation: the shared-prefix form equals the one-call form."""

from __future__ import annotations

import pytest

from moprompt.seeding import ROLE_ARMS, ROLE_ROLLOUT, derive_seed, derive_seeds


@pytest.mark.parametrize(
    "prefix, suffixes",
    [
        ((7, ROLE_ROLLOUT, 12), [(j,) for j in range(8)]),
        ((0, ROLE_ARMS), [(0, 1, 2, 3, 4), (7, 7, 7, 7, 7), ()]),
        ((-1, 2**64, 2**64 + 3), [(-5,), (2**70, -(2**65)), ()]),
        ((), [(), (1,), (-1, 0)]),
        ((3,), []),
    ],
    ids=["rollout", "arms", "negative-and-wide", "empty-prefix", "no-suffixes"],
)
def test_derive_seeds_equals_derive_seed(prefix, suffixes):
    expected = [derive_seed(*prefix, *s) for s in suffixes]
    assert derive_seeds(prefix, suffixes) == expected
    assert all(0 <= s < 2**63 for s in expected)
