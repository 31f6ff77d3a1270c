import json

import numpy as np
import pytest
from click.testing import CliRunner

import hopprompt.encoder as enc
from hopprompt import graphstore as gs
from hopprompt import harness as hn
from hopprompt.cli import main
from hopprompt.harness import runner as runner_module


@pytest.fixture
def runner():
    return CliRunner()


def test_homophily_json(runner):
    result = runner.invoke(main, ["homophily", "datasets/web-tiny", "--hop", "2"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["num_nodes"] == 40
    assert 0.0 <= payload["homophily"] <= 1.0
    assert set(payload["hops"]) == {"1", "2"}
    assert sum(payload["hops"]["1"]["counts"]) == payload["hops"]["1"]["defined"]


@pytest.mark.parametrize("flag,value", [("--bins", "0"), ("--bins", "-1"),
                                        ("--hop", "0"), ("--hop", "-1")])
def test_homophily_bad_count_exit_code(runner, monkeypatch, flag, value):
    # rejected before the dataset loads
    monkeypatch.setattr(gs, "load_dataset", None)
    result = runner.invoke(main, ["homophily", "datasets/web-tiny", flag, value])
    assert result.exit_code == 2, result.output
    assert "must be >= 1" in result.output


def test_synth_roundtrip(runner, tmp_path):
    out = tmp_path / "rewired"
    result = runner.invoke(main, [
        "synth", "datasets/web-tiny", "--target-h", "0.5", "--seed", "1",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["achieved_h"] - 0.5) <= 0.02
    reloaded = gs.load_dataset(out)
    assert abs(gs.homophily_ratio(reloaded) - payload["achieved_h"]) < 1e-12


def test_synth_infeasible_exit_code(runner, tmp_path):
    import numpy as np
    from hopprompt.numcore import Tensor
    g = gs.Graph(num_nodes=4,
                 edges=gs.canonical_edges([(0, 1), (1, 2), (2, 3), (0, 3)], 4),
                 features=Tensor(np.eye(4)), labels=np.array([0, 1, 2, 3]),
                 num_classes=4)
    gs.save_dataset(g, tmp_path / "rainbow", name="rainbow")
    result = runner.invoke(main, [
        "synth", str(tmp_path / "rainbow"), "--target-h", "0.9", "--out",
        str(tmp_path / "x"),
    ])
    assert result.exit_code == 3
    assert "unreachable" in result.output


def test_bad_dataset_exit_code(runner, tmp_path):
    (tmp_path / "broken").mkdir()
    result = runner.invoke(main, ["homophily", str(tmp_path / "broken")])
    assert result.exit_code == 2
    assert "missing" in result.output


def test_non_integer_meta_count_exit_code(runner, tmp_path):
    data = gs.load_dataset("datasets/web-tiny")
    gs.save_dataset(data, tmp_path / "ds", name="web-tiny")
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    meta["num_features"] = "x"
    (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
    result = runner.invoke(main, ["homophily", str(tmp_path / "ds")])
    assert result.exit_code == 2, result.output
    assert "num_features must be a non-negative integer" in result.output


def test_non_object_meta_exit_code(runner, tmp_path):
    data = gs.load_dataset("datasets/web-tiny")
    gs.save_dataset(data, tmp_path / "ds", name="web-tiny")
    (tmp_path / "ds" / "meta.json").write_text(json.dumps([1, 2]))
    result = runner.invoke(main, ["homophily", str(tmp_path / "ds")])
    assert result.exit_code == 2, result.output
    assert "expected a JSON object" in result.output


def test_pretrain_then_tune(runner, tmp_path):
    model = tmp_path / "model.dagp"
    result = runner.invoke(main, [
        "pretrain", "datasets/web-tiny", "--out", str(model),
        "--hidden", "32", "--layers", "2", "--epochs", "6", "--seed", "0",
    ])
    assert result.exit_code == 0, result.output
    assert model.exists()
    assert (tmp_path / "model.dagp.losses.csv").exists()
    payload = json.loads(result.output)
    assert payload["epochs"] == 6

    report = tmp_path / "tune.json"
    result = runner.invoke(main, [
        "tune", "--model", str(model), "--data", "datasets/web-tiny",
        "--shots", "2", "--alpha", "0.5", "--rank", "8", "--glora", "edges",
        "--epochs", "6", "--seed", "0", "--report", str(report),
    ])
    assert result.exit_code == 0, result.output
    saved = json.loads(report.read_text())
    assert 0.0 <= saved["test_accuracy"] <= 1.0
    assert saved["glora"] == "edges"


def test_tune_feature_width_mismatch_exit_code(runner, tmp_path):
    # web-tiny has 16 features; the checkpoint's input map takes 7
    model = tmp_path / "model.dagp"
    cfg = enc.EncoderConfig(layers=1, dims=[7, 8])
    enc.checkpoint_save(enc.init_encoder(cfg, np.random.default_rng(0)), cfg, model)
    result = runner.invoke(main, ["tune", "--model", str(model), "--data",
                                  "datasets/web-tiny", "--epochs", "2"])
    assert result.exit_code == 2
    assert "features must be (40, 7), got (40, 16)" in result.output


def test_tune_split_without_test_items_exit_code(runner, tmp_path):
    model = tmp_path / "model.dagp"
    result = runner.invoke(main, [
        "pretrain", "datasets/web-tiny", "--out", str(model),
        "--hidden", "8", "--layers", "1", "--epochs", "2", "--seed", "0",
    ])
    assert result.exit_code == 0, result.output
    # 20 shots of each of web-tiny's classes take all 40 nodes
    result = runner.invoke(main, [
        "tune", "--model", str(model), "--data", "datasets/web-tiny",
        "--shots", "20", "--epochs", "2", "--seed", "0",
    ])
    assert result.exit_code == 3
    assert "no test items" in result.output


def test_experiment_command(runner, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "dataset": "datasets/web-tiny",
        "mode": "prototype",
        "shots": 2,
        "seeds": [0, 1],
        "grid": {"alpha": [0.9]},
        "epochs": 5,
        "pretrain_epochs": 4,
        "batch_size": 64,
    }))
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "experiment", "--config", str(config), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    saved = json.loads(out.read_text())
    assert saved["mode"] == "prototype"
    assert len(saved["accuracies"]) == 2


def test_experiment_bad_config_exit_code(runner, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"dataset": "datasets/web-tiny", "mode": "nope"}))
    result = runner.invoke(main, ["experiment", "--config", str(config)])
    assert result.exit_code == 2


@pytest.mark.parametrize("field, value, message", [
    ("grid", {"lr": []}, "grid lr"),
    ("seeds", "01", "seeds must be a list of ints"),
    ("seeds", [-1], "seeds must be a list of ints"),
    ("grid", {"lr": ["x"]}, "grid lr values must be finite numbers"),
    ("grid", {"rank": [8.5]}, "grid rank values must be ints"),
    ("grid", {"alpha": [1.5]}, "grid alpha values must lie in [0.0, 1.0]"),
    ("grid", {"rank": [0]}, "grid rank must be >= 1"),
    ("shots", 2.5, "shots must be an int >= 1, got 2.5"),
    ("shots", "5", "shots must be an int >= 1, got '5'"),
    ("epochs", 2.5, "epochs must be an int >= 0"),
    ("tau", 0, "tau must be a finite number > 0"),
])
def test_experiment_bad_value_exit_code(runner, tmp_path, field, value, message):
    # rejected while the config is built, before any data is read; a custom
    # grid skips the paper-set check, so only the value checks can reject it
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"dataset": "datasets/web-tiny", "mode": "prototype",
                                  "shots": 2, "allow_custom_grid": True, field: value}))
    result = runner.invoke(main, ["experiment", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_pretrain_zero_width_exit_code(runner, tmp_path):
    result = runner.invoke(main, [
        "pretrain", "datasets/web-tiny", "--out", str(tmp_path / "m.dagp"),
        "--hidden", "0", "--epochs", "1",
    ])
    assert result.exit_code == 2, result.output
    assert "dims must be >= 1" in result.output
    assert not (tmp_path / "m.dagp").exists()


def test_negative_lr_exit_code(runner, tmp_path):
    model = tmp_path / "m.dagp"
    result = runner.invoke(main, [
        "pretrain", "datasets/web-tiny", "--out", str(model),
        "--hidden", "8", "--layers", "1", "--epochs", "2", "--lr", "-1e-3",
    ])
    assert result.exit_code == 2, result.output
    assert "pre-training: lr must be finite and >= 0" in result.output
    assert not model.exists()
    result = runner.invoke(main, [
        "pretrain", "datasets/web-tiny", "--out", str(model),
        "--hidden", "8", "--layers", "1", "--epochs", "2",
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "tune", "--model", str(model), "--data", "datasets/web-tiny",
        "--shots", "2", "--epochs", "2", "--lr", "-1e-3",
    ])
    assert result.exit_code == 2, result.output
    assert "prompt tuning: lr must be finite and >= 0" in result.output


def test_ablate_command(runner, tmp_path):
    out = tmp_path / "ablation.json"
    result = runner.invoke(main, [
        "ablate", "--data", "datasets/web-tiny", "--shots", "2",
        "--seeds", "0", "--epochs", "5", "--pretrain-epochs", "4",
        "--hidden", "128", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert [r["mode"] for r in rows] == [
        "dagprompt", "ablation:no_glora", "ablation:last_layer_only",
        "ablation:fixed_gamma",
    ]


def test_transfer_command(runner, tmp_path):
    out = tmp_path / "transfer.json"
    result = runner.invoke(main, [
        "transfer", "--src", "datasets/web-tiny", "--dst", "datasets/web-tiny",
        "--shots", "2", "--seeds", "0", "--epochs", "5",
        "--pretrain-epochs", "4", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert rows[0]["mode"].endswith("-Scratch")
    assert rows[1]["mode"].endswith("-Cross")


def test_sweep_h_command(runner, tmp_path):
    out = tmp_path / "sweep.json"
    result = runner.invoke(main, [
        "sweep-h", "--data", "datasets/web-tiny", "--targets", "0.3,0.5",
        "--modes", "prototype", "--seeds", "0", "--epochs", "4",
        "--pretrain-epochs", "3", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    saved = json.loads(out.read_text())
    assert [e["target_h"] for e in saved["series"]] == [0.3, 0.5]


def test_sweep_h_unknown_mode_exits_before_training(runner, monkeypatch):
    calls = []
    monkeypatch.setattr(runner_module, "run_experiment",
                        lambda *args, **kwargs: calls.append(1))
    result = runner.invoke(main, ["sweep-h", "--data", "datasets/web-tiny",
                                  "--modes", "dagprompt,bogus", "--seeds", "0"])
    assert result.exit_code == 2, result.output
    assert "mode 'bogus'" in result.output
    assert calls == []


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--shots", "3"]])
def test_sweep_h_rejects_options_it_cannot_honour(runner, monkeypatch, flag):
    # the sweep is full-shot and writes JSON: both options are unknown to it
    monkeypatch.setattr(hn, "run_heterophily_sweep", None)
    result = runner.invoke(main, ["sweep-h", "--data", "datasets/web-tiny", *flag])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output
