"""Acceptance gate: eight checks with pinned tolerances and budgets.

Every test prints one PASS/FAIL line straight to the terminal (capture
disabled) so the gate's outcome is readable in any pytest invocation.
The heavyweight directional checks (objective collapse, outlier
instability) share desk-profile training runs through module fixtures.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from moprompt.envs import builtin_env
from moprompt.geometry import hypervolume
from moprompt.mgda import min_norm_point
from moprompt.policy import (
    PolicyConfig,
    PolicyParams,
    init_policy,
    per_objective_loss_grads,
    sql_loss_and_grad,
)
from moprompt.runner import (
    METHODS,
    Adam,
    compare_methods,
    config_from_dict,
    select_best_records,
    train,
)
from oracles import hypervolume_mc, sample_seeded

TAIL_EVALS = 5

_elapsed = {}


@pytest.fixture
def announce(capsys):
    def _announce(ok: bool, number: int, label: str, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {number}. {label}: {verdict} ({detail})")

    return _announce


# ---------------------------------------------------------------------------
# shared desk-profile runs


def desk_config(env_section: dict, method: str):
    data = {"method": method, "env": env_section, "run": {"seeds": [0, 1, 2]}}
    return config_from_dict(data, profile="desk")


def run_methods(env_section: dict, methods) -> dict:
    records = {}
    for method in methods:
        result = train(desk_config(env_section, method))
        assert not result.aborts, f"{method} aborted: {result.aborts}"
        records[method] = result.records
    return records


@pytest.fixture(scope="module")
def tug_records():
    start = time.perf_counter()
    records = run_methods({"name": "tug-of-war", "m": 3, "seed": 0}, METHODS)
    _elapsed["tug"] = time.perf_counter() - start
    return records


@pytest.fixture(scope="module")
def outlier_records():
    start = time.perf_counter()
    records = run_methods(
        {"name": "outlier-prone", "m": 2, "seed": 0}, ("product", "hvi")
    )
    _elapsed["outlier"] = time.perf_counter() - start
    return records


def tail_product(records, seed: int) -> float:
    run = sorted((r for r in records if r.seed == seed), key=lambda r: r.step)
    return float(np.mean([r.expected_product for r in run[-TAIL_EVALS:]]))


def tail_means(records, seed: int) -> np.ndarray:
    run = sorted((r for r in records if r.seed == seed), key=lambda r: r.step)
    return np.array([r.per_objective_means for r in run[-TAIL_EVALS:]]).mean(axis=0)


# ---------------------------------------------------------------------------
# 1. hypervolume vs Monte-Carlo oracle, invariance, monotonicity


def test_1_hypervolume_matches_monte_carlo(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_z = 0.0
    counts = {2: 67, 3: 67, 4: 66}
    n_mc = 50_000
    for m, reps in counts.items():
        ref = np.zeros(m)
        for _ in range(reps):
            n_pts = int(rng.integers(1, 21))
            pts = rng.uniform(0.01, 1.0, size=(n_pts, m))
            exact = hypervolume(pts, ref)
            est = hypervolume_mc(pts, ref, n_samples=n_mc, seed=int(rng.integers(2**31)))
            box = float(np.prod(pts.max(axis=0)))
            p_hat = est / box
            se = box * math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_mc)
            worst_z = max(worst_z, abs(exact - est) / se)

            # Adding a dominated point changes nothing, exactly.
            shrunk = pts[0] * 0.5
            assert hypervolume(np.vstack([pts, shrunk]), ref) == exact
            # Adding any point never shrinks the volume.
            extra = rng.uniform(0.01, 1.0, size=(1, m))
            assert hypervolume(np.vstack([pts, extra]), ref) >= exact

    elapsed = time.perf_counter() - start
    ok = worst_z < 4.0 and elapsed < 120.0
    announce(ok, 1, "hypervolume vs Monte-Carlo", f"max |err|/SE {worst_z:.2f} over 200 sets, {elapsed:.1f}s")
    assert worst_z < 4.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. min-norm solver vs grid search, closed form, optimality


def grid_norm_sq(gram: np.ndarray, resolution: float) -> float:
    m = gram.shape[0]
    if m == 2:
        t = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
        lams = np.stack([1.0 - t, t], axis=1)
    else:
        steps = round(1.0 / resolution) + 1
        a = np.linspace(0.0, 1.0, steps)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        mask = aa + bb <= 1.0 + 1e-12
        aa, bb = aa[mask], bb[mask]
        lams = np.stack([aa, bb, 1.0 - aa - bb], axis=1)
    values = np.einsum("ki,ij,kj->k", lams, gram, lams)
    return float(values.min())


def pair_weights(gram: np.ndarray) -> np.ndarray:
    """Closed-form minimizer for two gradients: project the segment minimum."""
    denom = gram[0, 0] - 2.0 * gram[0, 1] + gram[1, 1]
    if denom <= 0.0:
        # ||g0 - g1||^2 = 0: the gradients coincide and every lam is optimal.
        return np.array([0.5, 0.5])
    t = min(1.0, max(0.0, (gram[0, 0] - gram[0, 1]) / denom))
    return np.array([1.0 - t, t])


def test_2_min_norm_solver_against_grid(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_grid = 0.0
    worst_kkt = 0.0
    worst_pair = 0.0
    for trial in range(100):
        m = 2 if trial < 50 else 3
        grads = rng.normal(scale=rng.uniform(0.3, 3.0), size=(m, 4))
        res = min_norm_point(grads)
        gram = grads @ grads.T

        grid = grid_norm_sq(gram, 1e-3)
        worst_grid = max(worst_grid, abs(res.combined_norm_sq - grid))

        u = -res.direction
        slack = float((grads @ u).min()) - (res.combined_norm_sq - 1e-4)
        worst_kkt = max(worst_kkt, -slack)

        if m == 2:
            lam_cf = pair_weights(gram)
            value_cf = float(lam_cf @ gram @ lam_cf)
            worst_pair = max(worst_pair, abs(value_cf - res.combined_norm_sq))

    elapsed = time.perf_counter() - start
    ok = worst_grid <= 1e-4 and worst_kkt <= 0.0 and worst_pair <= 1e-7 and elapsed < 60.0
    announce(
        ok,
        2,
        "min-norm point vs grid search",
        f"max |norm_sq - grid| {worst_grid:.2e}, closed-form gap {worst_pair:.2e}, {elapsed:.1f}s",
    )
    assert worst_grid <= 1e-4
    assert worst_kkt <= 0.0, "optimality condition g_i . u >= |u|^2 - 1e-4 violated"
    assert worst_pair <= 1e-7
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central finite differences


def _oracle_unpack(cfg, flat):
    h, v, d = cfg.hidden_dim, cfg.vocab_size, cfg.input_dim
    i = 0
    w_in = np.array(flat[i : i + h * d]).reshape(h, d)
    i += h * d
    w_h = np.array(flat[i : i + h * h]).reshape(h, h)
    i += h * h
    b_h = np.array(flat[i : i + h])
    i += h
    w_out = np.array(flat[i : i + v * h]).reshape(v, h)
    i += v * h
    b_out = np.array(flat[i : i + v])
    return w_in, w_h, b_h, w_out, b_out


def _oracle_logits(cfg, flat, context, tokens):
    w_in, w_h, b_h, w_out, b_out = _oracle_unpack(cfg, flat)
    rows = []
    for t in range(cfg.prompt_length):
        x = np.zeros(cfg.input_dim)
        x[: cfg.context_dim] = context
        x[cfg.context_dim + t] = 1.0
        if t > 0:
            x[cfg.context_dim + cfg.prompt_length + tokens[t - 1]] = 1.0
        h0 = np.tanh(w_in @ x)
        h1 = np.tanh(w_h @ h0 + b_h)
        rows.append(w_out @ h1 + b_out)
    return np.array(rows)


def _soft_value(row, temperature):
    z = row / temperature
    zmax = z.max()
    return temperature * (math.log(np.exp(z - zmax).sum()) + zmax)


def _frozen_targets(cfg, flat, context, tokens, rewards):
    out = []
    for sample_tokens, reward in zip(tokens, rewards):
        rows = _oracle_logits(cfg, flat, context, sample_tokens)
        tgt = np.zeros(cfg.prompt_length)
        for t in range(cfg.prompt_length - 1):
            tgt[t] = _soft_value(rows[t + 1], cfg.temperature)
        tgt[-1] = cfg.reward_scale * reward
        out.append(tgt)
    return out


def _loss_fixed_targets(cfg, flat, context, tokens, targets):
    total = 0.0
    count = 0
    for sample_tokens, tgt in zip(tokens, targets):
        rows = _oracle_logits(cfg, flat, context, sample_tokens)
        for t in range(cfg.prompt_length):
            total += 0.5 * (rows[t][sample_tokens[t]] - tgt[t]) ** 2
            count += 1
    return total / count


def test_3_gradient_fidelity(announce):
    start = time.perf_counter()
    worst = 0.0
    eps = 1e-4
    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        cfg = PolicyConfig(
            vocab_size=int(rng.integers(2, 5)),
            prompt_length=int(rng.integers(1, 4)),
            hidden_dim=int(rng.integers(2, 5)),
            context_dim=2,
            temperature=float(rng.uniform(0.5, 2.0)),
        )
        params = init_policy(cfg, seed=trial)
        ctx = rng.normal(size=2)
        tokens, table = sample_seeded(params, ctx, k=3, seed=trial)
        rewards = rng.uniform(0.0, 1.0, size=3)
        _, analytic = sql_loss_and_grad(table, tokens, rewards)
        targets = _frozen_targets(cfg, params.flat, ctx, tokens, rewards)
        numeric = np.zeros_like(analytic)
        for idx in range(params.flat.size):
            up = params.flat.copy()
            up[idx] += eps
            down = params.flat.copy()
            down[idx] -= eps
            hi = _loss_fixed_targets(cfg, up, ctx, tokens, targets)
            lo = _loss_fixed_targets(cfg, down, ctx, tokens, targets)
            numeric[idx] = (hi - lo) / (2.0 * eps)
        rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-6)
        worst = max(worst, float(rel.max()))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120.0
    announce(ok, 3, "gradient fidelity", f"max relative error {worst:.2e} over 50 policies, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. bandit sanity and single-objective equivalence


def test_4_bandit_and_single_objective_equivalence(announce):
    cfg = PolicyConfig(vocab_size=8, prompt_length=1, hidden_dim=16, context_dim=2)
    ctx = np.zeros(2)
    flat = init_policy(cfg, seed=0).flat
    for step in range(500):
        current = PolicyParams(cfg, flat)
        tokens, table = sample_seeded(current, ctx, k=16, seed=1000 + step)
        rewards = np.array([1.0 if row[0] == 3 else 0.0 for row in tokens])
        _, grad = sql_loss_and_grad(table, tokens, rewards)
        flat = flat - 0.1 * grad
    probe_tokens, probe_table = sample_seeded(PolicyParams(cfg, flat), ctx, k=1, seed=0)
    probe_logits = probe_table.logits[probe_table.rows(probe_tokens)]
    z = probe_logits[0][0] / cfg.temperature
    probs = np.exp(z - z.max())
    probs /= probs.sum()
    bandit_ok = probs[3] > 0.9

    # Plain-gradient and one-objective multi-gradient trajectories must agree
    # bit for bit through a shared optimizer.
    cfg2 = PolicyConfig(vocab_size=4, prompt_length=2, hidden_dim=6, context_dim=2)
    flat_a = init_policy(cfg2, seed=3).flat
    flat_b = flat_a.copy()
    adam_a = Adam(flat_a.size, 0.01, 0.9, 0.999, 1e-8)
    adam_b = Adam(flat_b.size, 0.01, 0.9, 0.999, 1e-8)
    identical = True
    for step in range(25):
        params_a = PolicyParams(cfg2, flat_a)
        params_b = PolicyParams(cfg2, flat_b)
        tokens_a, table_a = sample_seeded(params_a, np.ones(2), k=4, seed=step)
        tokens_b, table_b = sample_seeded(params_b, np.ones(2), k=4, seed=step)
        rewards = np.array([row[0] / cfg2.vocab_size for row in tokens_a])
        _, grad_plain = sql_loss_and_grad(table_a, tokens_a, rewards)
        _, grads = per_objective_loss_grads(table_b, tokens_b, rewards[:, None])
        solution = min_norm_point(grads)
        flat_a = adam_a.update(flat_a, grad_plain)
        flat_b = adam_b.update(flat_b, -solution.direction)
        identical = identical and bool(np.array_equal(flat_a, flat_b))

    ok = bandit_ok and identical
    announce(
        ok,
        4,
        "bandit smoke and m=1 equivalence",
        f"rewarded-token prob {probs[3]:.3f}, trajectories identical: {identical}",
    )
    assert bandit_ok
    assert identical


# ---------------------------------------------------------------------------
# 5. objective collapse on the tug-of-war environment


def test_5_objective_collapse(tug_records, announce):
    seeds = (0, 1, 2)
    floor_wins = 0
    margins = []
    for seed in seeds:
        product_floor = tail_means(tug_records["product"], seed).min()
        average_floor = tail_means(tug_records["average"], seed).min()
        floor_wins += product_floor > average_floor
        margins.append(product_floor - average_floor)

    top_wins = 0
    for seed in seeds:
        values = {m: tail_product(tug_records[m], seed) for m in METHODS}
        top_wins += max(values, key=values.get) == "product"

    elapsed = _elapsed["tug"]
    ok = floor_wins == 3 and top_wins >= 2 and elapsed < 1500.0
    announce(
        ok,
        5,
        "objective collapse (tug-of-war m=3)",
        f"floor wins {floor_wins}/3 (min margin {min(margins):+.3f}), "
        f"product top {top_wins}/3, {elapsed:.0f}s",
    )
    assert floor_wins == 3
    assert top_wins >= 2
    assert elapsed < 1500.0


# ---------------------------------------------------------------------------
# 6. outlier-driven instability of the HVI reward


def test_6_outlier_instability(outlier_records, announce):
    seeds = (0, 1, 2)
    stds = {}
    for method in ("product", "hvi"):
        finals = [tail_product(outlier_records[method], s) for s in seeds]
        stds[method] = float(np.std(finals))
    total = _elapsed.get("tug", 0.0) + _elapsed["outlier"]
    ok = stds["hvi"] > stds["product"] and total < 1800.0
    announce(
        ok,
        6,
        "outlier instability (HVI vs product)",
        f"across-seed std hvi {stds['hvi']:.4f} vs product {stds['product']:.4f}, "
        f"combined budget {total:.0f}s",
    )
    assert stds["hvi"] > stds["product"]
    assert total < 1800.0


# ---------------------------------------------------------------------------
# 7. byte-identical metrics across reruns


def test_7_determinism(tmp_path, announce):
    data = {
        "method": "mgda",
        "env": {"name": "gaussian-arms", "m": 2, "seed": 5},
        "run": {"k": 3, "k_hat": 4, "steps": 30, "eval_every": 10, "seeds": [0, 1]},
        "policy": {"hidden_dim": 8},
    }
    cfg = config_from_dict(data, profile="desk")
    train(replace(cfg, out_dir=str(tmp_path / "a")))
    train(replace(cfg, out_dir=str(tmp_path / "b")))
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = bytes_a == bytes_b
    announce(ok, 7, "byte-identical metrics.csv", f"{len(bytes_a)} bytes compared")
    assert ok


# ---------------------------------------------------------------------------
# 8. comparison table artifact


def test_8_comparison_table(tmp_path, announce):
    data = {
        "env": {"name": "tug-of-war", "m": 2, "seed": 0},
        "run": {"k": 3, "k_hat": 4, "steps": 9, "eval_every": 3, "seeds": [0, 1]},
        "policy": {"hidden_dim": 8},
    }
    cfg = replace(config_from_dict(data, profile="desk"), out_dir=str(tmp_path))
    result = compare_methods(cfg)
    table_path = tmp_path / "table1_analog.csv"
    lines = table_path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]

    shape_ok = header == ["method", "objective_0", "objective_1", "product", "average"]
    methods_ok = [row[0] for row in rows] == list(METHODS)

    selection_ok = True
    for row in rows:
        best = select_best_records(result.records, row[0])
        want = float(np.mean([r.expected_product for r in best])) * 100.0
        selection_ok = selection_ok and abs(float(row[3]) - want) < 1e-9

    ok = shape_ok and methods_ok and selection_ok
    announce(
        ok,
        8,
        "comparison table artifact",
        f"4 method rows, selection rule verified: {selection_ok}",
    )
    assert shape_ok
    assert methods_ok
    assert selection_ok
