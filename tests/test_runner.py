"""Tests for training orchestration, artifacts, and method dispatch."""

import csv
import hashlib
import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from moprompt import policy, runner
from moprompt.envs import builtin_env
from moprompt.policy import load_checkpoint
from moprompt.runner import (
    Adam,
    ConfigError,
    MetricsRecord,
    TrainConfig,
    compare_methods,
    config_from_dict,
    emit_scatter,
    read_metrics_csv,
    select_best_records,
    train,
    write_metrics_csv,
)
from moprompt.seeding import (
    ROLE_EVAL,
    ROLE_INIT,
    ROLE_NOISE,
    ROLE_OUTLIER,
    ROLE_PROMPTS,
    ROLE_ROLLOUT,
    derive_seed,
)


def adam_oracle(grads, lr, beta1, beta2, eps, x0):
    """Reference Adam trajectory written as the textbook recurrences."""
    m = 0.0
    v = 0.0
    x = x0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (v_hat**0.5 + eps)
        out.append(x)
    return out


def tiny_config(**overrides):
    env = overrides.pop("env", None) or builtin_env("tug-of-war", m=2, seed=0)
    base = dict(
        method="product",
        env=env,
        seeds=(0,),
        k=4,
        k_hat=8,
        steps=20,
        learning_rate=0.01,
        eval_every=10,
        eval_total_samples=32,
        hidden_dim=8,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_hand_rolled_iterates():
    grads = [0.3, -1.2, 0.05, 0.9]
    opt = Adam(1, lr=0.1)
    x = np.array([2.0])
    seen = []
    for g in grads:
        x = opt.update(x, np.array([g]))
        seen.append(float(x[0]))
    expected = adam_oracle(grads, 0.1, 0.9, 0.999, 1e-8, 2.0)
    assert seen == pytest.approx(expected, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-3, max_value=10.0))
def test_adam_first_step_moves_by_roughly_lr_against_gradient(g, lr):
    opt = Adam(1, lr=lr)
    moved = opt.update(np.zeros(1), np.array([g]))
    # With eps outside the sqrt, step one is -lr * g / (|g| + eps).
    assert moved[0] == pytest.approx(-lr * g / (abs(g) + 1e-8), rel=1e-12)
    opt = Adam(1, lr=lr)
    moved = opt.update(np.zeros(1), np.array([-g]))
    assert moved[0] == pytest.approx(lr * g / (abs(g) + 1e-8), rel=1e-12)


def test_adam_converges_on_quadratic():
    opt = Adam(1, lr=0.05)
    x = np.array([5.0])
    for _ in range(2000):
        x = opt.update(x, 2.0 * (x - 1.5))
    assert abs(x[0] - 1.5) < 1e-3


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        tiny_config(method="pareto")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tiny_config(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        tiny_config(steps=0)
    with pytest.raises(ConfigError):
        tiny_config(seeds=())
    with pytest.raises(ConfigError):
        tiny_config(temperature=0.0)


def test_eval_total_samples_must_split_evenly_over_inputs():
    # tug-of-war has 4 inputs: 2 and 130 would evaluate 4 and 128 samples.
    for total in (2, 130):
        with pytest.raises(ConfigError, match="multiple of env.n_inputs = 4"):
            tiny_config(eval_total_samples=total)
        with pytest.raises(ConfigError, match="multiple"):
            config_from_dict({"run": {"eval_total_samples": total}})
    cfg = tiny_config(eval_total_samples=8)
    noise = runner._eval_draws(cfg, 0)[1]
    assert noise.shape == (4, 2, cfg.env.m)


def test_numpy_integer_config_fields_train_and_checkpoint(tmp_path):
    env = builtin_env(
        "tug-of-war", m=np.int64(2), seed=0, vocab_size=np.int64(6), n_inputs=np.int32(2)
    )
    cfg = tiny_config(
        env=env,
        k=np.int64(3),
        steps=np.int64(2),
        eval_every=np.int64(1),
        hidden_dim=np.int64(4),
        out_dir=str(tmp_path),
    )
    assert len(train(cfg).records) == 3
    loaded = load_checkpoint(tmp_path / "checkpoint_0.txt")
    assert loaded.cfg.hidden_dim == 4 and type(loaded.cfg.hidden_dim) is int


def test_config_allows_zero_learning_rate():
    cfg = tiny_config(learning_rate=0.0)
    assert cfg.learning_rate == 0.0


def test_config_from_dict_applies_profile_defaults():
    cfg = config_from_dict({"method": "hvi"}, profile="desk")
    assert cfg.steps == 2000
    assert cfg.k_hat == 32
    assert cfg.eval_every == 100
    assert cfg.learning_rate == 0.01
    assert cfg.temperature == 0.25
    paper = config_from_dict({"method": "hvi"}, profile="paper")
    assert paper.steps == 12000
    assert paper.k_hat == 128
    assert paper.learning_rate == 1e-4
    assert paper.temperature == 1.0
    # The tables are read-only: no caller changes every later config.
    with pytest.raises(TypeError):
        runner.PROFILES["desk"]["steps"] = 1
    with pytest.raises(TypeError):
        runner.PROFILES["laptop"] = {}
    with pytest.raises(TypeError):
        runner._SECTIONS["run"] = frozenset()
    assert config_from_dict({"method": "hvi"}, profile="desk").steps == 2000


def test_config_from_dict_explicit_values_override_profile():
    data = {
        "method": "mgda",
        "env": {"name": "gaussian-arms", "m": 3, "seed": 11},
        "run": {"steps": 7, "k_hat": 3, "seeds": [4, 5], "out_dir": "x"},
        "optimizer": {"learning_rate": 0.5},
        "policy": {"hidden_dim": 4},
    }
    cfg = config_from_dict(data, profile="desk")
    assert cfg.method == "mgda"
    assert cfg.env.name == "gaussian-arms"
    assert cfg.env.m == 3
    assert cfg.steps == 7
    assert cfg.k_hat == 3
    assert cfg.seeds == (4, 5)
    assert cfg.out_dir == "x"
    assert cfg.learning_rate == 0.5
    assert cfg.hidden_dim == 4
    # overrides sit above data, key by key, and empty sections are empty.
    flags = {"method": "hvi", "env": {"m": 2}, "run": {"steps": 9}, "policy": None}
    cfg = config_from_dict({**data, "optimizer": None}, profile="desk", overrides=flags)
    assert (cfg.method, cfg.env.name, cfg.env.m, cfg.env.seed) == ("hvi", "gaussian-arms", 2, 11)
    assert (cfg.steps, cfg.k_hat, cfg.seeds, cfg.hidden_dim) == (9, 3, (4, 5), 4)
    assert cfg.learning_rate == 0.01


def test_config_from_dict_fails_closed():
    with pytest.raises(ConfigError):
        config_from_dict({"metod": "average"})
    with pytest.raises(ConfigError):
        config_from_dict({"env": {"noise": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"run": {"step": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="unknown key"):
        # Adam's betas and epsilon are fixed, not settings.
        config_from_dict({"optimizer": {"adam_beta1": 0.9}})
    with pytest.raises(ConfigError):
        config_from_dict({"policy": {"width": 8}})
    with pytest.raises(ConfigError):
        config_from_dict({}, profile="laptop")
    with pytest.raises(ConfigError):
        config_from_dict({"env": {"name": "maze"}})
    with pytest.raises(ConfigError):
        config_from_dict([])
    for bad in ({"run": 5}, {"env": [1, 2]}, {"policy": "abc"}, {"optimizer": [["learning_rate", 0.1]]}):
        with pytest.raises(ConfigError, match="must be a mapping"):
            config_from_dict(bad)
        with pytest.raises(ConfigError, match="must be a mapping"):
            config_from_dict({}, overrides=bad)
    with pytest.raises(ConfigError):
        config_from_dict({}, overrides={"run": {"step": 5}})
    with pytest.raises(ConfigError, match="context_dim"):
        config_from_dict({"env": {"context_dim": 0}})
    with pytest.raises(ConfigError, match="hidden_dim"):
        config_from_dict({"policy": {"hidden_dim": True}})
    with pytest.raises(ConfigError, match="out_dir"):
        config_from_dict({"run": {"out_dir": 5}})


def test_duplicate_seeds_fail_closed():
    # A repeated seed would write its metrics rows twice and overwrite its
    # own checkpoint.
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict({"run": {"seeds": [0, 0]}})
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict({"run": {"seeds": [3, 1, 3]}})
    assert config_from_dict({"run": {"seeds": [3, 1]}}).seeds == (3, 1)


# ---------------------------------------------------------------------------
# training loop behavior


def test_record_count_matches_eval_schedule():
    cfg = tiny_config(seeds=(0, 1), steps=25, eval_every=10)
    result = train(cfg)
    assert not result.aborts
    assert len(result.records) == 2 * (25 // 10 + 1)
    steps_seen = sorted({r.step for r in result.records})
    assert steps_seen == [0, 10, 20]


def test_zero_learning_rate_freezes_metrics():
    cfg = tiny_config(learning_rate=0.0, steps=30, eval_every=10)
    result = train(cfg)
    first = result.records[0]
    for r in result.records[1:]:
        assert r.per_objective_means == first.per_objective_means
        assert r.mean_of_means == first.mean_of_means
        assert r.expected_product == first.expected_product
        assert r.hvi == first.hvi


def count_dispatch(monkeypatch) -> dict:
    """Wrap the runner's aggregators and min-norm solver in call-counting wrappers."""
    calls = {"aggregate": 0, "min_norm": 0}

    def counting(name, key):
        original = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, name, wrapper)

    for name in ("aggregate_average", "aggregate_product", "aggregate_hvi"):
        counting(name, "aggregate")
    counting("min_norm_point", "min_norm")
    return calls


def test_volume_methods_never_call_min_norm(monkeypatch):
    calls = count_dispatch(monkeypatch)
    for method in ("average", "product", "hvi"):
        calls["aggregate"] = 0
        calls["min_norm"] = 0
        cfg = tiny_config(method=method, steps=6, eval_every=3)
        result = train(cfg)
        assert not result.aborts
        assert calls["min_norm"] == 0
        assert calls["aggregate"] == 6
        assert all(r.mgda_norm_sq is None for r in result.records)


def test_mgda_never_calls_aggregators(monkeypatch):
    calls = count_dispatch(monkeypatch)
    cfg = tiny_config(method="mgda", steps=6, eval_every=3)
    result = train(cfg)
    assert not result.aborts
    assert calls["aggregate"] == 0
    assert calls["min_norm"] == 6
    assert result.records[0].mgda_norm_sq is None
    for r in result.records[1:]:
        assert r.mgda_norm_sq is not None
        assert np.isfinite(r.mgda_norm_sq)
        assert r.mgda_norm_sq >= 0.0


@pytest.mark.parametrize("method", ["product", "mgda"])
def test_one_rollout_call_per_step_and_evaluation(monkeypatch, method):
    shapes = []
    original = runner.rollout

    def wrapper(env, tokens, draws, k_hat):
        out = original(env, tokens, draws, k_hat)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(runner, "rollout", wrapper)
    # 16 eval samples per input, so eval calls differ in shape from step calls.
    cfg = tiny_config(method=method, steps=6, eval_every=3, eval_total_samples=64)
    assert not train(cfg).aborts
    n_evals = 6 // 3 + 1
    n_inputs = cfg.env.inputs.shape[0]
    k_hat_eval = cfg.eval_total_samples // n_inputs
    assert len(shapes) == 6 + n_evals
    assert shapes.count((cfg.k, cfg.k_hat, cfg.env.m)) == 6
    assert shapes.count((n_inputs, k_hat_eval, cfg.env.m)) == n_evals


# ---------------------------------------------------------------------------
# block draws: each eval interval's draws are taken before its steps run


@pytest.mark.parametrize(
    "steps, eval_every", [(7, 3), (5, 100), (3, 1)], ids=["steps-7-eval-3", "steps-below-eval", "eval-every-1"]
)
def test_block_draws_equal_per_step_streams(monkeypatch, steps, eval_every):
    """Every call gets the streams of its own (seed, step, role) keys, whichever
    block they were drawn in; numpy's seeded generators are the oracle."""
    env = builtin_env("outlier-prone", m=3, seed=1, outlier_prob=0.3)
    cfg = tiny_config(env=env, seeds=(0, 5), k=3, steps=steps, eval_every=eval_every)
    got_uniforms, got_draws = [], []
    sample, roll = runner.sample_prompts, runner.rollout

    def recording_sample(params, context, uniforms):
        got_uniforms.append(uniforms)
        return sample(params, context, uniforms)

    def recording_rollout(env, tokens, draws, k_hat):
        got_draws.append(draws)
        return roll(env, tokens, draws, k_hat)

    monkeypatch.setattr(runner, "sample_prompts", recording_sample)
    monkeypatch.setattr(runner, "rollout", recording_rollout)
    assert not train(cfg).aborts

    t_len, n_inputs = env.prompt_length, env.inputs.shape[0]
    k_hat_eval = cfg.eval_total_samples // n_inputs

    def uniforms(key, k):
        return Generator(PCG64(key)).random((t_len, k))

    def rollout_streams(keys, k_hat):
        noise = [Generator(PCG64(derive_seed(s, ROLE_NOISE))).standard_normal((k_hat, env.m)) for s in keys]
        mask = [Generator(PCG64(derive_seed(s, ROLE_OUTLIER))).random(k_hat) < 0.3 for s in keys]
        return np.stack(noise), np.stack(mask)

    want_uniforms, want_draws = [], []
    for seed in cfg.seeds:
        eval_uniforms = [uniforms(derive_seed(seed, ROLE_EVAL, i, 0), 1) for i in range(n_inputs)]
        eval_draws = rollout_streams([derive_seed(seed, ROLE_EVAL, i, 1) for i in range(n_inputs)], k_hat_eval)
        want_uniforms += eval_uniforms
        want_draws.append(eval_draws)
        for step in range(1, steps + 1):
            want_uniforms.append(uniforms(derive_seed(seed, ROLE_PROMPTS, step), cfg.k))
            keys = [derive_seed(seed, ROLE_ROLLOUT, step, j) for j in range(cfg.k)]
            want_draws.append(rollout_streams(keys, cfg.k_hat))
            if step % eval_every == 0:
                want_uniforms += eval_uniforms
                want_draws.append(eval_draws)
    assert len(got_uniforms) == len(want_uniforms)
    assert all(np.array_equal(got, want) for got, want in zip(got_uniforms, want_uniforms))
    assert len(got_draws) == len(want_draws)
    for (noise, mask), (want_noise, want_mask) in zip(got_draws, want_draws):
        assert np.array_equal(noise, want_noise)
        assert np.array_equal(mask, want_mask)


def numeric_fingerprint() -> str:
    """A digest of products, tanh, exp and log on arrays shaped like the
    policy table's: it changes where numpy's SIMD loops or the BLAS kernel
    round differently, which is also where training's last bits change."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (40, 21))
    w_in, w_h, w_out = (rng.uniform(-1.0, 1.0, shape) for shape in ((32, 21), (32, 32), (8, 32)))
    h1 = np.tanh(np.tanh(x @ w_in.T) @ w_h.T)
    z = h1 @ w_out.T
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    back = log_p[None].repeat(3, axis=0).transpose(0, 2, 1) @ h1
    return hashlib.sha256(np.concatenate([log_p.ravel(), back.ravel()]).tobytes()).hexdigest()


# Runs whose steps do not fill whole eval intervals, with the metrics.csv
# text and checkpoint SHA-256 digests the step-by-step loop wrote before
# draws were taken per eval interval. Training is bit-identical only within
# one numeric environment; these were recorded on x86-64 with numpy 2.4.6
# and OpenBLAS 0.3.31's SkylakeX kernel, which RECORDED_FINGERPRINT
# identifies. test_block_draws_equal_per_step_streams covers the draws
# themselves in any environment.
RECORDED_FINGERPRINT = "0c777508bf85ca809a1312891239f1d9e354b2f906b8ebbe596381f237a9a586"
RECORDED_RUNS = {
    "steps-7-eval-3": (
        {
            "method": "mgda",
            "env": {"name": "gaussian-arms", "m": 3, "seed": 2},
            "run": {"seeds": [0, 1], "steps": 7, "eval_every": 3},
        },
        "desk",
        """\
step,seed,method,mean_0,mean_1,mean_2,mean_of_means,expected_product,hvi,mgda_norm_sq
0,0,mgda,0.15898496041189983,0.2654969874989828,0.15892959905007992,0.19447051565365422,0.003929504215325723,0.04553574875357692,
3,0,mgda,0.3024237043652016,0.08250940392054783,0.12028267071745342,0.1684052596677343,0.0015015655619388883,0.023221107245918738,0.2906317513134121
6,0,mgda,0.23554790263186096,0.12581870119903724,0.2744405339917749,0.2119357126075577,0.009363045427694686,0.06990434808935818,0.39247048062198947
0,1,mgda,0.22557340750913396,0.2059198639768099,0.1246702883756404,0.18538785328719476,0.004048557624142014,0.03030817170017179,
3,1,mgda,0.1825300607998396,0.1541394142931236,0.20935890501231672,0.1820094600350933,0.004475377436946494,0.043891741433570955,0.376162777106414
6,1,mgda,0.05579742591623307,0.22403389502699675,0.2467150237075251,0.1755154482169183,0.0024460316460363962,0.026930671982789603,0.5022953436868663
""",
        {
            "checkpoint_0.txt": "5ca954691bc1abcf91f142a699c3a28b42635b1cf181e99b583830ef1a041404",
            "checkpoint_1.txt": "37d08fc420e2a79347a6d79a77e9f415506281f7e187e38d793d4d46ffdfb4aa",
        },
    ),
    "steps-below-eval": (
        {
            "method": "product",
            "env": {"name": "tug-of-war", "m": 3, "seed": 1},
            "run": {"seeds": [4], "steps": 5},
        },
        "desk",
        """\
step,seed,method,mean_0,mean_1,mean_2,mean_of_means,expected_product,hvi,mgda_norm_sq
0,4,product,0.25884210100708677,0.5469077244027576,0.21003127405124855,0.33859369982036425,0.012074953869389827,0.10045120714874167,
""",
        {"checkpoint_4.txt": "bc4876d4e5dd9490028ed52fe687f5d621cb13c4876d6e0bb9096e74fa5b97df"},
    ),
    "paper-hvi-outliers": (
        {
            "method": "hvi",
            "env": {"name": "outlier-prone", "m": 3, "seed": 5},
            "run": {"seeds": [3], "steps": 10, "eval_every": 4},
        },
        "paper",
        """\
step,seed,method,mean_0,mean_1,mean_2,mean_of_means,expected_product,hvi,mgda_norm_sq
0,3,hvi,0.2717662773343285,0.45028395843319724,0.31238580271469174,0.34481201282740587,0.04107645252770134,0.8573749999999999,
4,3,hvi,0.2717662773343285,0.45028395843319724,0.31238580271469174,0.34481201282740587,0.04107645252770134,0.8573749999999999,
8,3,hvi,0.2717662773343285,0.45028395843319724,0.31238580271469174,0.34481201282740587,0.04107645252770134,0.8573749999999999,
""",
        {"checkpoint_3.txt": "ee7658cdb2171b16833cd84d2cebb97bc8cbc408f4004c0de36bb0bd5afd4960"},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_RUNS))
def test_block_runs_match_recorded_artifacts(tmp_path, name):
    if numeric_fingerprint() != RECORDED_FINGERPRINT:
        pytest.skip("the recorded artifacts are bit-exact only in the numeric environment they came from")
    data, profile, metrics_text, digests = RECORDED_RUNS[name]
    data = dict(data, run=dict(data["run"], out_dir=str(tmp_path)))
    assert not train(config_from_dict(data, profile)).aborts
    assert (tmp_path / "metrics.csv").read_text(encoding="utf-8") == metrics_text
    for checkpoint, digest in digests.items():
        assert hashlib.sha256((tmp_path / checkpoint).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("method", ["product", "mgda"])
def test_one_policy_evaluation_per_step_and_eval_input(monkeypatch, method):
    builds = []
    original_build = policy._build_table

    def counting_build(params, context):
        builds.append(1)
        return original_build(params, context)

    def no_builds(name):
        original = getattr(runner, name)

        def wrapper(*args, **kwargs):
            before = len(builds)
            out = original(*args, **kwargs)
            assert len(builds) == before, f"{name} evaluated the policy"
            return out

        monkeypatch.setattr(runner, name, wrapper)

    monkeypatch.setattr(policy, "_build_table", counting_build)
    no_builds("sql_loss_and_grad")
    no_builds("per_objective_loss_grads")
    cfg = tiny_config(method=method, steps=6, eval_every=3)
    n_inputs = cfg.env.inputs.shape[0]
    for seeds in ((0,), (1, 2)):
        builds.clear()
        assert not train(replace(cfg, seeds=seeds)).aborts
        assert len(builds) == len(seeds) * (6 + n_inputs * (1 + 6 // 3))


def test_training_improves_expected_product_on_tug_of_war():
    cfg = tiny_config(method="product", steps=300, eval_every=300, k=8, k_hat=16)
    result = train(cfg)
    start = result.records[0].expected_product
    end = result.records[-1].expected_product
    assert end > start


def test_product_approaches_known_optimum_on_two_objectives():
    """Desk-profile product training on tug-of-war m=2 nears the 0.25 cap.

    The bound is the level measured at these exact settings minus margin;
    single evaluations are noisy, so the last five are averaged per seed.
    """
    cfg = config_from_dict(
        {
            "method": "product",
            "env": {"name": "tug-of-war", "m": 2, "seed": 0},
            "run": {"seeds": [0, 1, 2]},
        },
        profile="desk",
    )
    result = train(cfg)
    assert not result.aborts
    for seed in cfg.seeds:
        run = sorted((r for r in result.records if r.seed == seed), key=lambda r: r.step)
        tail = float(np.mean([r.expected_product for r in run[-5:]]))
        assert tail >= 0.14, f"seed {seed} tail mean {tail}"


def test_non_finite_loss_aborts_seed_with_diagnostic():
    cfg = tiny_config(learning_rate=1e200, steps=10, eval_every=5, seeds=(0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(cfg)
    assert len(result.aborts) == 2
    for abort in result.aborts:
        assert abort["seed"] in (0, 1)
        assert abort["step"] >= 1
        assert abort["method"] == "product"
        assert "non-finite" in abort["reason"]
    # Step-0 records exist for both seeds even though training aborted.
    assert {r.seed for r in result.records if r.step == 0} == {0, 1}


def test_mgda_non_finite_gradient_aborts_seed(monkeypatch):
    cfg = tiny_config(method="mgda", learning_rate=1e200, steps=10, eval_every=5)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(cfg)
    assert len(result.aborts) == 1
    assert result.aborts[0]["method"] == "mgda"

    # Finite losses and gradients whose Gram matrix overflows: min_norm_point
    # raises, and the seed aborts as it would on a non-finite gradient.
    def overflowing(*args):
        losses, grads = policy.per_objective_loss_grads(*args)
        return losses, np.full_like(grads, 1e200)

    monkeypatch.setattr(runner, "per_objective_loss_grads", overflowing)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(tiny_config(method="mgda", steps=10, eval_every=5, seeds=(0, 1)))
    assert [(a["seed"], a["step"]) for a in result.aborts] == [(0, 1), (1, 1)]
    assert all(a["reason"] == "non-finite loss or gradient" for a in result.aborts)
    assert [(r.seed, r.step) for r in result.records] == [(0, 0), (1, 0)]


# ---------------------------------------------------------------------------
# artifacts


def test_metrics_csv_is_byte_identical_across_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tiny_config(steps=8, eval_every=4, seeds=(0, 1))
    train(replace(cfg, out_dir=str(out_a)))
    train(replace(cfg, out_dir=str(out_b)))
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    assert b"wall_clock" not in bytes_a


def test_train_writes_loadable_checkpoints(tmp_path):
    cfg = tiny_config(steps=4, eval_every=2, seeds=(0, 3), out_dir=str(tmp_path))
    train(cfg)
    for seed in (0, 3):
        params = load_checkpoint(tmp_path / f"checkpoint_{seed}.txt")
        assert params.cfg.vocab_size == cfg.env.vocab_size
        assert np.isfinite(params.flat).all()
    # Different seeds start from different initializations and diverge.
    a = load_checkpoint(tmp_path / "checkpoint_0.txt")
    b = load_checkpoint(tmp_path / "checkpoint_3.txt")
    assert not np.array_equal(a.flat, b.flat)


def test_metrics_csv_roundtrip(tmp_path):
    cfg = tiny_config(method="mgda", steps=4, eval_every=2)
    result = train(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result.records, path)
    back = read_metrics_csv(path)
    assert len(back) == len(result.records)
    for orig, loaded in zip(result.records, back):
        assert loaded.step == orig.step
        assert loaded.seed == orig.seed
        assert loaded.method == orig.method
        assert loaded.per_objective_means == orig.per_objective_means
        assert loaded.mean_of_means == orig.mean_of_means
        assert loaded.expected_product == orig.expected_product
        assert loaded.hvi == orig.hvi
        assert loaded.mgda_norm_sq == orig.mgda_norm_sq


def _swap_hvi_and_norm(text: str) -> str:
    lines = [line.split(",") for line in text.splitlines()]
    for cells in lines:
        cells[-2], cells[-1] = cells[-1], cells[-2]
    return "".join(",".join(cells) + "\n" for cells in lines)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text[:-30], "cells, expected"),
        (lambda text: text.replace("mean_of_means", "average", 1), "header"),
        (_swap_hvi_and_norm, "header"),
        (lambda text: "", "header"),
    ],
    ids=["truncated", "foreign-header", "swapped-columns", "empty"],
)
def test_read_metrics_csv_rejects_what_write_metrics_csv_would_not_write(tmp_path, edit, message):
    train(tiny_config(method="mgda", steps=4, eval_every=2, out_dir=str(tmp_path)))
    path = tmp_path / "metrics.csv"
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_metrics_csv(path)


def _csv_writer_text(rows) -> str:
    """The oracle: what the standard library's csv.writer writes for rows."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _metrics_rows(records) -> list:
    m = len(records[0].per_objective_means)
    rows = [["step", "seed", "method", *(f"mean_{i}" for i in range(m))]]
    rows[0] += ["mean_of_means", "expected_product", "hvi", "mgda_norm_sq"]
    for r in records:
        values = [*r.per_objective_means, r.mean_of_means, r.expected_product, r.hvi]
        norm = "" if r.mgda_norm_sq is None else repr(r.mgda_norm_sq)
        rows.append([str(r.step), str(r.seed), r.method, *map(repr, values), norm])
    return rows


def test_csv_files_match_csv_writer_oracle(tmp_path):
    # An mgda run writes both a filled and an empty mgda_norm_sq (step 0);
    # a product run writes only empty ones.
    for method in ("mgda", "product"):
        out = tmp_path / method
        result = train(tiny_config(method=method, steps=4, eval_every=2, out_dir=str(out)))
        norms = {r.mgda_norm_sq is None for r in result.records}
        assert norms == ({True, False} if method == "mgda" else {True})
        text = (out / "metrics.csv").read_text(encoding="utf-8")
        assert text == _csv_writer_text(_metrics_rows(result.records))
    out = tmp_path / "compare"
    result = compare_methods(tiny_config(steps=4, eval_every=2, seeds=(0, 1), out_dir=str(out)))
    assert (out / "metrics.csv").read_text(encoding="utf-8") == _csv_writer_text(_metrics_rows(result.records))
    table = runner.comparison_table(result.records)
    assert (out / "table1_analog.csv").read_text(encoding="utf-8") == _csv_writer_text(table)


def test_write_metrics_csv_rejects_empty():
    with pytest.raises(ValueError):
        write_metrics_csv([], "unused.csv")


def test_csv_header_has_fixed_column_order(tmp_path):
    cfg = tiny_config(steps=2, eval_every=2)
    result = train(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result.records, path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "step",
        "seed",
        "method",
        "mean_0",
        "mean_1",
        "mean_of_means",
        "expected_product",
        "hvi",
        "mgda_norm_sq",
    ]


# ---------------------------------------------------------------------------
# scatter emission


def test_emit_scatter_writes_one_file_per_objective_pair(tmp_path):
    env = builtin_env("tug-of-war", m=3, seed=0)
    cfg = tiny_config(env=env, steps=6, eval_every=3)
    result = train(cfg)
    paths = emit_scatter(result.records, tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["scatter_0_1.jsonl", "scatter_0_2.jsonl", "scatter_1_2.jsonl"]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(result.records)
        for point, record in zip(lines, result.records):
            assert point["method"] == record.method
            assert point["seed"] == record.seed
            assert point["step"] == record.step


def test_scatter_points_match_records_exactly(tmp_path):
    cfg = tiny_config(steps=4, eval_every=2)
    result = train(cfg)
    (path,) = emit_scatter(result.records, tmp_path)
    with open(path, encoding="utf-8") as fh:
        points = [json.loads(line) for line in fh]
    for point, record in zip(points, result.records):
        assert point["x"] == record.per_objective_means[0]
        assert point["y"] == record.per_objective_means[1]


def test_scatter_step_zero_point_recomputable_from_scratch(tmp_path):
    """A dumped point must equal an independent re-evaluation of the policy."""
    cfg = tiny_config(steps=2, eval_every=2, seeds=(7,))
    result = train(cfg)
    (path,) = emit_scatter(result.records, tmp_path)
    with open(path, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert first["step"] == 0
    pcfg = cfg.policy
    from moprompt.policy import init_policy

    params = init_policy(pcfg, derive_seed(7, ROLE_INIT))
    record = runner._record(cfg, 0, 7, params, None, runner._eval_draws(cfg, 7))
    assert first["x"] == float(record.per_objective_means[0])
    assert first["y"] == float(record.per_objective_means[1])


def test_emit_scatter_rejects_empty_records(tmp_path):
    with pytest.raises(ValueError):
        emit_scatter([], tmp_path)


# ---------------------------------------------------------------------------
# method comparison


def _fake_record(method, seed, step, product):
    return MetricsRecord(
        step=step,
        seed=seed,
        method=method,
        per_objective_means=(product, product),
        mean_of_means=product,
        expected_product=product,
        hvi=product,
    )


def test_select_best_records_picks_max_product_earliest_tie():
    records = [
        _fake_record("hvi", 0, 0, 0.1),
        _fake_record("hvi", 0, 10, 0.5),
        _fake_record("hvi", 0, 20, 0.5),
        _fake_record("hvi", 1, 0, 0.2),
        _fake_record("hvi", 1, 10, 0.1),
        _fake_record("average", 0, 10, 0.9),
    ]
    best = select_best_records(records, "hvi")
    assert [(r.seed, r.step) for r in best] == [(0, 10), (1, 0)]
    # A table of two methods: the header, then their rows in METHODS order.
    table = runner.comparison_table(records)
    assert [row[0] for row in table] == ["method", "average", "hvi"]
    assert table[0] == ["method", "objective_0", "objective_1", "product", "average"]


def test_compare_methods_runs_all_four_and_tabulates(tmp_path):
    cfg = tiny_config(steps=6, eval_every=3, seeds=(0, 1), out_dir=str(tmp_path))
    result = compare_methods(cfg)
    assert not result.aborts
    methods_seen = {r.method for r in result.records}
    assert methods_seen == set(runner.METHODS)
    per_method = 2 * (6 // 3 + 1)
    assert len(result.records) == 4 * per_method

    table_path = tmp_path / "table1_analog.csv"
    assert table_path.exists()
    with open(table_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == list(runner.METHODS)
    for row in rows:
        method = row["method"]
        best = select_best_records(result.records, method)
        want_product = float(np.mean([r.expected_product for r in best])) * 100.0
        want_avg = float(np.mean([r.mean_of_means for r in best])) * 100.0
        want_mean0 = float(np.mean([r.per_objective_means[0] for r in best])) * 100.0
        assert float(row["product"]) == pytest.approx(want_product, abs=1e-12)
        assert float(row["average"]) == pytest.approx(want_avg, abs=1e-12)
        assert float(row["objective_0"]) == pytest.approx(want_mean0, abs=1e-12)

    combined = read_metrics_csv(tmp_path / "metrics.csv")
    assert len(combined) == len(result.records)
