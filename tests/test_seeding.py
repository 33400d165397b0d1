"""Seed derivation: the shared-prefix and array forms equal the one-call
form, the streams keep their recorded values, and the SeedSequence replay
draws numpy's own streams."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from moprompt import seeding
from moprompt.seeding import (
    ROLE_ARMS,
    ROLE_NOISE,
    ROLE_PROMPTS,
    ROLE_ROLLOUT,
    derive_seed,
    derive_seeds,
    draw_streams,
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


# ---------------------------------------------------------------------------
# array form


def test_derive_seeds_array_form_equals_derive_seed_on_wide_grids():
    rng = np.random.default_rng(53)
    # Every step and prompt index at or above 2**53, where a float64 can no
    # longer hold each integer, and up to the top of the uint64 range.
    steps = rng.integers(2**53, 2**64 - 1, size=6, dtype=np.uint64, endpoint=True)
    steps[0] = 2**53
    steps[-1] = 2**64 - 1
    index = np.array([0, 1, 2**53 + 1, 2**63 + 7], dtype=np.uint64)
    grid = np.stack(np.meshgrid(steps, index, indexing="ij"), axis=-1)
    seeds = derive_seeds((2**60 + 3, ROLE_ROLLOUT), grid)
    assert seeds.dtype == np.uint64 and seeds.shape == (6, 4)
    for (i, j), s in np.ndenumerate(seeds):
        assert int(s) == derive_seed(2**60 + 3, ROLE_ROLLOUT, int(steps[i]), int(index[j]))
    # The noise key of each of those seeds: a seed column and a role column.
    keyed = np.stack([seeds, np.full_like(seeds, ROLE_NOISE)], axis=-1)
    for (i, j), s in np.ndenumerate(derive_seeds((), keyed)):
        assert int(s) == derive_seed(int(seeds[i, j]), ROLE_NOISE)


def test_derive_seeds_array_form_wraps_negative_parts():
    parts = np.array([[-1, 5], [-(2**63), 2**63 - 1], [0, -7]], dtype=np.int64)
    assert derive_seeds((9,), parts).tolist() == [derive_seed(9, *map(int, row)) for row in parts]


def test_derive_seeds_rejects_float_arrays():
    # Stacking a uint64 column with an int64 one promotes both to float64,
    # which rounds every seed above 2**53.
    mixed = np.column_stack([np.array([2**60 + 1], dtype=np.uint64), np.array([ROLE_NOISE])])
    assert mixed.dtype == np.float64
    with pytest.raises(TypeError, match="integer"):
        derive_seeds((), mixed)


# ---------------------------------------------------------------------------
# SeedSequence replay, with numpy's own SeedSequence as the oracle


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def replay_seeds() -> np.ndarray:
    rng = np.random.default_rng(19)
    random = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
    return np.concatenate([random, np.array(EDGE_SEEDS, dtype=np.uint64)])


def test_draw_streams_equal_numpy_seeded_streams():
    seeds = replay_seeds()
    draws = draw_streams(seeds, Generator.random, (3,))
    assert draws.shape == (seeds.shape[0], 3)
    for s, row in zip(seeds.tolist(), draws):
        assert np.array_equal(row, Generator(PCG64(s)).random(3)), s


def test_draw_streams_keep_the_seed_shape_and_stream_order():
    seeds = replay_seeds()[-12:].reshape(3, 4)
    draws = draw_streams(seeds, Generator.standard_normal, (5, 2))
    assert draws.shape == (3, 4, 5, 2)
    for (i, j), s in np.ndenumerate(seeds):
        assert np.array_equal(draws[i, j], Generator(PCG64(int(s))).standard_normal((5, 2)))
    assert draw_streams(np.zeros(0, dtype=np.uint64), Generator.random, (2,)).shape == (0, 2)


def test_replay_state_words_equal_seed_sequence():
    seeds = replay_seeds()
    words = seeding._pcg64_words(seeds)
    expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds.tolist()]
    assert np.array_equal(words, np.array(expected))
    # Only the request PCG64 makes is answered.
    with pytest.raises(ValueError, match="four uint64 state words"):
        seeding._StateWords(words[0]).generate_state(4, np.uint32)


def test_seeding_has_no_mutable_module_state():
    for name, value in vars(seeding).items():
        if name.startswith("__"):
            continue
        assert not isinstance(value, (list, dict, set, bytearray)), name
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
