"""Exit codes and artifact wiring for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import moprompt
from moprompt import runner
from moprompt.cli import main
from moprompt.runner import read_metrics_csv


def write_config(path, **extra):
    data = {
        "method": "average",
        "env": {"name": "tug-of-war", "m": 2, "seed": 0},
        "run": {"k": 2, "k_hat": 2, "steps": 4, "eval_every": 2, "seeds": [0]},
        "policy": {"hidden_dim": 4},
    }
    data.update(extra)
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def test_train_succeeds_and_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    code = main(["train", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint_0.txt").exists()
    records = read_metrics_csv(out / "metrics.csv")
    assert len(records) == 4 // 2 + 1


def test_flags_override_config_file(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--config",
            cfg,
            "--method",
            "hvi",
            "--seed",
            "5,6",
            "--steps",
            "2",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    records = read_metrics_csv(out / "metrics.csv")
    assert {r.seed for r in records} == {5, 6}
    assert {r.method for r in records} == {"hvi"}
    assert max(r.step for r in records) == 2


def test_empty_section_takes_flags(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("method: average\nrun:\npolicy: {hidden_dim: 4}\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--steps", "2", "--seed", "3", "--out-dir", str(out)]) == 0
    assert {r.seed for r in read_metrics_csv(out / "metrics.csv")} == {3}
    assert (out / "checkpoint_3.txt").exists()


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", extra_section={"x": 1})
    assert main(["train", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.yaml")]) == 1


def test_malformed_yaml_exits_one(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("method: [unclosed", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1


def test_bad_seed_flag_exits_one(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    assert main(["train", "--config", cfg, "--seed", "1,two"]) == 1


def test_duplicate_seed_flag_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "0,0", "--out-dir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section",
    [
        {"run": {"seeds": 3}},
        {"run": {"seeds": ["a"]}},
        {"env": {"name": "tug-of-war", "m": "three"}},
        {"run": {"k": 2.5}},
        {"run": {"steps": 3.5}},
        {"run": {"k": True}},
        {"run": {"eval_every": 1.5, "steps": 3}},
        {"policy": {"hidden_dim": 4.5}},
        {"env": {"name": "tug-of-war", "m": 3.0}},
        {"env": {"name": "tug-of-war", "vocab_size": 8.5}},
        {"env": {"name": "tug-of-war", "prompt_length": True}},
        {"env": {"name": "tug-of-war", "n_inputs": True}},
        {"env": {"name": "tug-of-war", "context_dim": 4.0}},
        {"env": {"name": "tug-of-war", "seed": 1.5}},
        {"run": {"seeds": [2.5]}},
        {"run": {"seeds": [0, True]}},
        {"optimizer": {"learning_rate": float("nan")}},
        {"optimizer": {"learning_rate": float("inf")}},
        {"optimizer": {"adam_eps": float("nan")}},
        {"env": {"name": "tug-of-war", "noise_scale": float("nan")}},
        {"policy": {"temperature": float("nan")}},
        {"policy": {"reward_scale": float("inf")}},
        {"optimizer": {"learning_rate": True}},
        {"policy": {"temperature": True}},
        {"env": {"name": "tug-of-war", "noise_scale": True}},
        {"env": {"name": "outlier-prone", "outlier_prob": True}},
        {"optimizer": {"learning_rate": "1e-4"}},
        {"run": 5},
        {"env": [1, 2]},
        {"policy": "abc"},
        {"optimizer": [["learning_rate", 0.1]]},
        {"env": {"name": "tug-of-war", "context_dim": 0}},
    ],
    ids=[
        "seeds-not-a-list",
        "seed-not-an-int",
        "m-not-an-int",
        "k-float",
        "steps-float",
        "k-bool",
        "eval-every-float",
        "hidden-dim-float",
        "m-integral-float",
        "vocab-size-float",
        "prompt-length-bool",
        "n-inputs-bool",
        "context-dim-float",
        "env-seed-float",
        "seed-float",
        "seed-bool",
        "learning-rate-nan",
        "learning-rate-inf",
        "adam-eps-nan",
        "noise-scale-nan",
        "temperature-nan",
        "reward-scale-inf",
        "learning-rate-bool",
        "temperature-bool",
        "noise-scale-bool",
        "outlier-prob-bool",
        "learning-rate-string",
        "run-not-a-mapping",
        "env-a-list",
        "policy-a-string",
        "optimizer-a-list-of-pairs",
        "context-dim-zero",
    ],
)
def test_malformed_config_values_exit_one(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "cfg.yaml", **section)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_float_config_error_names_field_and_value(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", optimizer={"learning_rate": float("nan")})
    assert main(["train", "--config", cfg]) == 1
    assert "learning_rate must be a finite number, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_unusable_out_dir_exits_one_before_training(tmp_path, monkeypatch, capsys, command):
    calls = []
    original = runner.sample_prompts

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "sample_prompts", counting)
    cfg = write_config(tmp_path / "cfg.yaml")
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "run"):
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
    assert calls == []


def test_invalid_env_name_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--env", "maze", "--steps", "1"])


def test_compare_rejects_method_flag(capsys):
    # compare trains all four methods; a --method would be silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--method", "hvi", "--steps", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method hvi" in capsys.readouterr().err


def test_numerical_abort_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.yaml", optimizer={"learning_rate": 1e200}
    )
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", cfg, "--out-dir", str(out)])
    assert code == 2
    assert "aborted" in capsys.readouterr().err
    # Artifacts for the records gathered before the abort still exist.
    assert (out / "metrics.csv").exists()


def test_scatter_subcommand_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    assert main(["scatter", "--out-dir", str(out)]) == 0
    scatter_path = out / "scatter_0_1.jsonl"
    assert scatter_path.exists()
    with open(scatter_path, encoding="utf-8") as fh:
        points = [json.loads(line) for line in fh]
    records = read_metrics_csv(out / "metrics.csv")
    assert len(points) == len(records)


def test_scatter_without_metrics_exits_one(tmp_path):
    assert main(["scatter", "--out-dir", str(tmp_path)]) == 1


def test_inspect_prints_tail_means_per_method_and_seed(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", run={"k": 2, "k_hat": 2, "steps": 12, "eval_every": 2})
    out = tmp_path / "run"
    assert main(["compare", "--config", cfg, "--seed", "0,3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(out)]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert printed[0] == ["method", "seed", "evals", "min_objective", "product", "average", "hvi"]

    records = read_metrics_csv(out / "metrics.csv")
    expected = []
    for method in sorted({r.method for r in records}):
        for seed in (0, 3):
            run = [r for r in records if r.method == method and r.seed == seed]
            run.sort(key=lambda r: r.step)
            assert len(run) == 12 // 2 + 1
            tail = run[-5:]
            means = [
                np.mean([min(r.per_objective_means) for r in tail]),
                np.mean([r.expected_product for r in tail]),
                np.mean([r.mean_of_means for r in tail]),
                np.mean([r.hvi for r in tail]),
            ]
            # Integer cells print as integers, the rest scaled by 100 to two decimals.
            cells = [f"{float(x) * 100.0:.2f}" for x in means]
            expected.append([method, str(seed), str(len(run))] + cells)
    assert printed[1:] == expected
    assert len(expected) == 4 * 2


def test_inspect_without_metrics_exits_one(tmp_path, capsys):
    assert main(["inspect", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err
    (tmp_path / "metrics.csv").write_text("", encoding="utf-8")
    assert main(["inspect", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "scatter"])
def test_truncated_metrics_exits_one(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
    path = out / "metrics.csv"
    path.write_bytes(path.read_bytes()[:-30])
    capsys.readouterr()
    argv = ["inspect", str(out)] if command == "inspect" else ["scatter", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_compare_subcommand_writes_table(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    code = main(["compare", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    assert (out / "table1_analog.csv").exists()
    # The printed table is the written one, numbers rounded to two decimals.
    table = [line.split(",") for line in (out / "table1_analog.csv").read_text().splitlines()]
    expected = [table[0]] + [[row[0]] + [f"{float(c):.2f}" for c in row[1:]] for row in table[1:]]
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(next(line for line in lines if line.startswith("method")))
    printed = [line.split() for line in lines[start:]]
    assert printed == expected
    assert [row[0] for row in printed[1:]] == ["average", "product", "hvi", "mgda"]
    records = read_metrics_csv(out / "metrics.csv")
    assert {r.method for r in records} == {"average", "product", "hvi", "mgda"}


def test_compare_without_out_dir_prints_table_and_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--config", cfg]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert printed[0] == ["method", "objective_0", "objective_1", "product", "average"]
    assert [row[0] for row in printed[1:]] == ["average", "product", "hvi", "mgda"]
    assert all(len(row) == 5 for row in printed)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.yaml"]


def test_module_entrypoint_runs_in_subprocess(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    # The child imports the same package as this test, installed or not.
    path = [str(Path(moprompt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "moprompt.cli",
            "train",
            "--config",
            cfg,
            "--out-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()
