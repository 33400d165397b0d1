"""Seed derivation: the shared-prefix form equals the one-call form, and
the streams keep their recorded values."""

from __future__ import annotations

import pytest

from moprompt.seeding import (
    ROLE_ARMS,
    ROLE_PROMPTS,
    ROLE_ROLLOUT,
    derive_seed,
    derive_seeds,
    unit_floats,
)


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


# Recorded outputs of the seeding functions. Every RNG stream in the package
# derives from them, so a change that shifted them would move every stream
# while the equality test above still passed.
@pytest.mark.parametrize(
    "parts, seed",
    [
        ((0,), 4275862941208139309),
        ((7, ROLE_PROMPTS, 12), 8963971323182740694),
        ((-1, 2**64, 2**64 + 3), 3747661465115930093),
        ((2**70, -(2**65)), 492311949195896420),
        ((), 12607451958),
    ],
    ids=["zero", "prompts", "negative-and-wide", "wide-pair", "empty"],
)
def test_derive_seed_literals(parts, seed):
    assert derive_seed(*parts) == seed


def test_derive_seeds_arms_prefix_literals():
    rows = [(0, 1, 2, 3, 4), (7, 7, 7, 7, 7), (4, 0, 6, 1, 2)]
    assert derive_seeds((3, ROLE_ARMS), rows) == [
        9009873576148907670,
        9130442129457344515,
        4853054908142331164,
    ]


def test_unit_floats_literals():
    assert unit_floats(0x9E3779B97F4A7C15, 5) == [
        0.43152799704850997,
        0.7457817572627011,
        0.7491496838738246,
        0.7002935135929024,
        0.8924068459997183,
    ]
