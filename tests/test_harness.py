import inspect
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hopprompt.encoder as enc
from hopprompt import graphstore as gs
from hopprompt import harness as hn
from hopprompt import numcore as nc
from hopprompt.errors import (
    ConfigError,
    DegenerateRowError,
    DimensionError,
    DivergenceError,
    TransferInfeasibleError,
)
from hopprompt.harness import baselines
from hopprompt.harness import cache as cache_module
from hopprompt.harness import runner
from hopprompt.pretrain import PretrainConfig
from hopprompt.prompt import PromptTuneConfig, run_prompt_tune

from tests._oracles import (
    densify,
    full_rows_plan,
    glora_param_count,
    prompt_param_count,
    resigned,
    version_one,
)


def quick_cfg(dataset="datasets/web-tiny", **overrides):
    base = dict(
        dataset=dataset, mode="dagprompt", shots=2, seeds=[0, 1],
        grid=hn.GridSpec(), epochs=8, pretrain_epochs=5, batch_size=64,
    )
    base.update(overrides)
    return hn.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            quick_cfg(mode="bogus")

    def test_shots_xor_fraction(self):
        with pytest.raises(ConfigError):
            quick_cfg(shots=None)
        with pytest.raises(ConfigError):
            quick_cfg(train_fraction=0.5)  # both set

    def test_epoch_cap(self):
        with pytest.raises(ConfigError):
            quick_cfg(epochs=500)

    def test_grid_outside_paper_sets_rejected(self):
        with pytest.raises(ConfigError, match="outside the stated set"):
            quick_cfg(grid=hn.GridSpec(lr=[0.123]))
        cfg = quick_cfg(grid=hn.GridSpec(lr=[0.123]), allow_custom_grid=True)
        assert cfg.grid.lr == [0.123]

    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("weight_decay", -5e-9), ("hidden", 0), ("rank", -1),
        ("alpha", 1.5), ("alpha", -0.1),
    ])
    def test_grid_value_out_of_range_rejected_when_built(self, field, value):
        # before this check, each one passed and failed a run mid-way, after
        # its pre-training had been paid for
        with pytest.raises(ConfigError, match=f"grid {field} values must lie in"):
            hn.GridSpec(**{field: [value]})

    @pytest.mark.parametrize("mode", ["dagprompt", "prototype",
                                      "ablation:last_layer_only", "ablation:fixed_gamma"])
    def test_rank_zero_rejected_when_glora_attaches(self, mode):
        with pytest.raises(ConfigError, match="rank must be >= 1"):
            quick_cfg(mode=mode, grid=hn.GridSpec(rank=[8, 0]), allow_custom_grid=True)
        # without GLoRA factors the rank is never read
        assert quick_cfg(mode=mode, grid=hn.GridSpec(rank=[0]), allow_custom_grid=True,
                         glora_mode="off").grid.rank == [0]

    @pytest.mark.parametrize("mode", ["scratch_gcn", "finetune_lp", "ablation:no_glora"])
    def test_rank_zero_allowed_without_glora(self, mode):
        cfg = quick_cfg(mode=mode, grid=hn.GridSpec(rank=[0]), allow_custom_grid=True)
        assert cfg.grid.rank == [0]

    @pytest.mark.parametrize("field, value", [
        ("weight_decay", 5e-9), ("weight_decay", -5e-9), ("weight_decay", 2.509e-6),
    ])
    def test_paper_sets_match_by_relative_tolerance(self, field, value):
        # an absolute slack of 1e-8 matched these to 0.0 and 2.5e-6
        with pytest.raises(ConfigError):
            quick_cfg(grid=hn.GridSpec(**{field: [value]}))
        assert quick_cfg(grid=hn.GridSpec(weight_decay=[2.5e-6 * (1 + 1e-9)]))

    def test_grid_points_cartesian(self):
        spec = hn.GridSpec(lr=[1e-4, 5e-4], rank=[8, 16])
        points = spec.points()
        assert len(points) == 4
        assert points[0]["lr"] == 1e-4 and points[0]["rank"] == 8

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            hn.ExperimentConfig.from_dict({"dataset": "x", "bogus": 1})

    def test_unknown_glora_mode_rejected_before_pretraining(self):
        # the CLI flag's spelling is not a config value
        with pytest.raises(ConfigError, match="glora_mode"):
            hn.ExperimentConfig.from_dict({"dataset": "datasets/web-tiny",
                                           "glora_mode": "edges"})

    def test_negative_patience_rejected(self):
        with pytest.raises(ConfigError, match="patience"):
            quick_cfg(patience=-3)
        assert quick_cfg(patience=0).patience == 0

    @pytest.mark.parametrize("field, value", [
        ("shots", 2.5), ("shots", True), ("shots", "5"), ("shots", 0),
        ("layers", 2.0), ("layers", True), ("layers", 0),
        ("epochs", 2.5), ("epochs", -1), ("pretrain_epochs", 2.5), ("pretrain_epochs", 0),
        ("negatives", 2.5), ("negatives", 0), ("batch_size", 2.5), ("batch_size", 0),
        ("patience", True), ("patience", 1.5), ("workers", 1.5), ("workers", True),
    ])
    def test_whole_number_fields_checked_when_built(self, field, value):
        # each one built and then failed a run with a raw TypeError or
        # ParameterError, some only after a pre-training, or ran bools as 1
        with pytest.raises(ConfigError, match=f"{field} must be an int >= "):
            quick_cfg(**{field: value})

    @pytest.mark.parametrize("overrides, field", [
        (dict(tau=0), "tau"), (dict(tau=-0.5), "tau"), (dict(tau=float("nan")), "tau"),
        (dict(tau="0.5"), "tau"), (dict(tau=True), "tau"),
        (dict(shots=None, train_fraction=0.0), "train_fraction"),
        (dict(shots=None, train_fraction=1.0), "train_fraction"),
        (dict(shots=None, train_fraction=1.5), "train_fraction"),
        (dict(shots=None, train_fraction="0.5"), "train_fraction"),
    ])
    def test_tau_and_train_fraction_checked_when_built(self, overrides, field):
        with pytest.raises(ConfigError, match=f"{field} must be a"):
            quick_cfg(**overrides)

    def test_numbers_in_range_build(self):
        cfg = quick_cfg(shots=np.int64(3), layers=1, epochs=0, negatives=2,
                        batch_size=1, patience=None, tau=1, workers=1)
        assert cfg.shots == 3 and cfg.tau == 1 and cfg.patience is None
        assert quick_cfg(shots=None, train_fraction=0.5).train_fraction == 0.5

    @pytest.mark.parametrize("untrained", [dict(mode="prototype"), dict(epochs=0)])
    def test_train_loss_grid_needs_runs_that_train(self, untrained):
        # such runs record no loss, and an argmin over NaN means picks the
        # first point whatever the grid holds
        grid = hn.GridSpec(alpha=[0.1, 0.9])
        with pytest.raises(ConfigError, match="selection train_loss needs runs that train"):
            quick_cfg(grid=grid, selection="train_loss", **untrained)
        # a one-point grid has nothing to choose, and test_acc selection reads
        # accuracies
        assert quick_cfg(selection="train_loss", **untrained).grid.alpha == [0.5]
        assert quick_cfg(grid=grid, **untrained).selection == "test_acc"

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            quick_cfg(workers=0)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "dataset": "datasets/web-tiny", "mode": "prototype", "shots": 2,
            "seeds": [0], "grid": {"alpha": [0.9]}, "epochs": 5,
            "pretrain_epochs": 5,
        }))
        cfg = hn.ExperimentConfig.from_json(path)
        assert cfg.mode == "prototype"
        assert cfg.grid.alpha == [0.9]


@pytest.fixture(scope="module")
def tiny_data():
    return gs.load_dataset("datasets/web-tiny")


class TestRunExperiment:
    def test_per_seed_accuracy_vector(self, tiny_data):
        report = hn.run_experiment(quick_cfg(seeds=[0, 1, 2]), data=tiny_data)
        assert len(report.accuracies) == 3
        assert report.task == "node"
        assert 0.0 <= report.mean_accuracy <= 1.0

    def test_report_aggregates_consistent(self, tiny_data):
        report = hn.run_experiment(quick_cfg(), data=tiny_data)
        assert abs(report.mean_accuracy - np.mean(report.accuracies)) < 1e-9
        assert abs(report.std_accuracy - np.std(report.accuracies)) < 1e-9

    def test_reproducible_numeric_payload(self, tiny_data, tmp_path):
        cold = hn.run_experiment(quick_cfg(), data=tiny_data,
                                 cache=hn.CheckpointCache(tmp_path / "c1"))
        disk_cache = hn.CheckpointCache(tmp_path / "c2")
        warm_a = hn.run_experiment(quick_cfg(), data=tiny_data, cache=disk_cache)
        warm_b = hn.run_experiment(quick_cfg(), data=tiny_data, cache=disk_cache)
        assert cold.numeric_payload() == warm_a.numeric_payload()
        assert warm_a.numeric_payload() == warm_b.numeric_payload()
        # a memory estimate, reported but not part of the payload
        assert "peak_tape_bytes" not in cold.numeric_payload()
        assert cold.peak_tape_bytes > 0

    def test_no_glora_param_delta_matches_glora_count(self, tiny_data):
        cache = hn.CheckpointCache()
        full = hn.run_experiment(quick_cfg(), data=tiny_data, cache=cache)
        off = hn.run_experiment(quick_cfg(mode="ablation:no_glora"),
                                data=tiny_data, cache=cache)
        cfg = enc.EncoderConfig(layers=2, dims=[16, 128, 128])
        expected = glora_param_count(cfg, "full", 8, num_nodes=tiny_data.num_nodes)
        delta = full.trainable_params_downstream - off.trainable_params_downstream
        assert delta == expected

    def test_scratch_never_pretrains(self, tiny_data):
        cache = hn.CheckpointCache()
        report = hn.run_experiment(quick_cfg(mode="scratch_gcn"),
                                   data=tiny_data, cache=cache)
        assert cache.pretrain_runs == 0
        assert report.trainable_params_pretrain == 0

    def test_scratch_gcn_separable_sanity(self):
        base = gs.random_labeled_graph(160, 700, 2, 12, seed=3, class_sep=2.5)
        g = gs.synth_rewire(base, 0.9, seed=0)
        cfg = quick_cfg(dataset="synthetic", shots=None, train_fraction=0.5,
                        mode="scratch_gcn", epochs=60,
                        grid=hn.GridSpec(lr=[1e-3]))
        report = hn.run_experiment(cfg, data=g)
        assert report.mean_accuracy > 0.9

    def test_task_mismatch_rejected(self, tiny_data):
        with pytest.raises(ConfigError, match="task"):
            hn.run_experiment(quick_cfg(task="graph"), data=tiny_data)

    def test_workers_match_serial(self, tiny_data):
        serial = hn.run_experiment(quick_cfg(seeds=[0, 1, 2]), data=tiny_data)
        with pytest.warns(UserWarning, match="serial"):
            cfg = quick_cfg(seeds=[0, 1, 2], workers=3)
        ignored = hn.run_experiment(cfg, data=tiny_data)
        assert serial.numeric_payload() == ignored.numeric_payload()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_grid_points_sharing_pretraining_train_once(self, tiny_data, workers):
        # alpha is a stage-two knob: both grid points share each seed's
        # pre-training setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = quick_cfg(grid=hn.GridSpec(alpha=[0.1, 0.9]), seeds=[0, 1],
                            workers=workers)
        cache = hn.CheckpointCache()
        hn.run_experiment(cfg, data=tiny_data, cache=cache)
        assert cache.pretrain_runs == 2

    def test_grid_selection_by_mean_accuracy(self, tiny_data):
        cfg = quick_cfg(grid=hn.GridSpec(alpha=[0.1, 0.9]))
        report = hn.run_experiment(cfg, data=tiny_data)
        assert report.chosen_grid_point["alpha"] in (0.1, 0.9)

    def test_grid_selection_by_training_loss(self, tiny_data, monkeypatch):
        cells = []
        real = runner._single_run

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            point = inspect.signature(real).bind(*args, **kwargs).arguments["point"]
            cells.append((dict(point), out))
            return out

        monkeypatch.setattr(runner, "_single_run", recorded)
        grid = hn.GridSpec(lr=[1e-5, 1e-3], alpha=[0.1, 0.9])
        cache = hn.CheckpointCache()
        chosen = {}
        for selection in ("test_acc", "train_loss"):
            cells.clear()
            cfg = quick_cfg(grid=grid, epochs=5, pretrain_epochs=3,
                            selection=selection)
            chosen[selection] = hn.run_experiment(cfg, data=tiny_data,
                                                  cache=cache).chosen_grid_point
        # the cells of the train_loss run: every point under seeds 0 and 1
        points = grid.points()
        assert len(cells) == len(points) * 2
        mean_loss = [np.mean([out["train_loss"] for p, out in cells if p == point])
                     for point in points]
        # the loss does not read gamma, so alpha ties it and the first of
        # the tied points is chosen, as argmin picks
        assert chosen["train_loss"] == points[int(np.argmin(mean_loss))]
        # on this grid the two rules disagree, so the rule is really applied
        assert chosen["train_loss"] != chosen["test_acc"]

    def test_downstream_count_cross_checked(self, tiny_data):
        # report counter == closed-form encoder adapters + prompt module
        report = hn.run_experiment(quick_cfg(), data=tiny_data)
        cfg = enc.EncoderConfig(layers=2, dims=[16, 128, 128])
        expected = glora_param_count(cfg, "full", 8, num_nodes=tiny_data.num_nodes) \
            + prompt_param_count(3, tiny_data.num_classes, 128)
        assert report.trainable_params_downstream == expected

    def test_graph_task_experiment(self):
        items = gs.load_dataset("datasets/ego-tiny")
        report = hn.run_experiment(quick_cfg(dataset="datasets/ego-tiny"),
                                   data=items)
        assert report.task == "graph"
        assert len(report.accuracies) == 2

    @pytest.mark.parametrize("mode", ["scratch_gcn", "finetune_lp"])
    def test_baselines_reject_graph_tasks(self, mode):
        items = gs.load_dataset("datasets/ego-tiny")
        cache = hn.CheckpointCache()
        with pytest.raises(ConfigError, match="node tasks only"):
            hn.run_experiment(quick_cfg(dataset="datasets/ego-tiny", mode=mode),
                              data=items, cache=cache)
        assert cache.pretrain_runs == 0


class TestCacheRecovery:
    """A torn cache entry is set aside as <key>.dagp.bad and retrained."""

    @staticmethod
    def _configs(data):
        cfg = enc.EncoderConfig(layers=2, dims=[data.num_features, 8, 8])
        return cfg, PretrainConfig(epochs=3, batch_size=64, seed=0)

    def test_truncated_entry_is_quarantined_and_retrained(self, tiny_data, tmp_path):
        cfg, pcfg = self._configs(tiny_data)
        fresh, _cfg, _losses = hn.CheckpointCache(tmp_path / "fresh").get_or_pretrain(
            tiny_data, cfg, pcfg)
        root = tmp_path / "cache"
        hn.CheckpointCache(root).get_or_pretrain(tiny_data, cfg, pcfg)
        (entry,) = root.glob("*.dagp")
        whole = entry.read_bytes()
        header_end = 12 + int.from_bytes(whole[8:12], "little")
        cuts = {0, 3, 4, 8, 11, header_end, header_end + 5, len(whole) // 2,
                len(whole) - 1}
        for cut in sorted(cuts):
            entry.write_bytes(whole[:cut])
            cache = hn.CheckpointCache(root)
            params, _cfg, losses = cache.get_or_pretrain(tiny_data, cfg, pcfg)
            assert losses is not None, cut
            assert (cache.quarantined, cache.pretrain_runs) == (1, 1)
            assert entry.with_name(entry.name + ".bad").read_bytes() == whole[:cut]
            assert entry.read_bytes() == whole
            for ours, theirs in zip([params.w_in] + [lp.w0 for lp in params.layers],
                                    [fresh.w_in] + [lp.w0 for lp in fresh.layers]):
                assert np.array_equal(ours.data, theirs.data)
        warm = hn.CheckpointCache(root)
        assert warm.get_or_pretrain(tiny_data, cfg, pcfg)[2] is None
        assert (warm.quarantined, warm.pretrain_runs) == (0, 0)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:12] + b"\xff" + raw[13:],  # not UTF-8
        lambda raw: raw.replace(b'"layers": 2', b'"layers": 0'),  # invalid config
    ], ids=["undecodable", "invalid"])
    def test_damaged_config_blob_is_quarantined_and_retrained(self, tiny_data,
                                                              tmp_path, damage):
        cfg, pcfg = self._configs(tiny_data)
        root = tmp_path / "cache"
        hn.CheckpointCache(root).get_or_pretrain(tiny_data, cfg, pcfg)
        (entry,) = root.glob("*.dagp")
        whole = entry.read_bytes()
        entry.write_bytes(damage(whole))
        cache = hn.CheckpointCache(root)
        assert cache.get_or_pretrain(tiny_data, cfg, pcfg)[2] is not None
        assert (cache.quarantined, cache.pretrain_runs) == (1, 1)
        assert entry.with_name(entry.name + ".bad").read_bytes() == damage(whole)
        assert entry.read_bytes() == whole

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_quarantined_and_retrained(self, tiny_data, tmp_path,
                                                           bad):
        cfg, pcfg = self._configs(tiny_data)
        fresh, _cfg, _losses = hn.CheckpointCache(tmp_path / "fresh").get_or_pretrain(
            tiny_data, cfg, pcfg)
        root = tmp_path / "cache"
        hn.CheckpointCache(root).get_or_pretrain(tiny_data, cfg, pcfg)
        (entry,) = root.glob("*.dagp")
        whole = entry.read_bytes()
        # the last payload entry, signed again, so the finiteness check
        # rejects it rather than the checksum
        poisoned = resigned(whole[:-36] + np.float32(bad).astype("<f4").tobytes()
                            + whole[-32:])
        entry.write_bytes(poisoned)
        cache = hn.CheckpointCache(root)
        params, _cfg, losses = cache.get_or_pretrain(tiny_data, cfg, pcfg)
        assert losses is not None
        assert (cache.quarantined, cache.pretrain_runs) == (1, 1)
        assert entry.with_name(entry.name + ".bad").read_bytes() == poisoned
        assert entry.read_bytes() == whole
        for ours, theirs in zip([params.w_in] + [lp.w0 for lp in params.layers],
                                [fresh.w_in] + [lp.w0 for lp in fresh.layers]):
            assert ours.data.tobytes() == theirs.data.tobytes()
        warm = hn.CheckpointCache(root)
        assert warm.get_or_pretrain(tiny_data, cfg, pcfg)[2] is None
        assert (warm.quarantined, warm.pretrain_runs) == (0, 0)


    def test_version_one_entry_is_quarantined_and_retrained_once(self, tiny_data,
                                                                 tmp_path):
        cfg, pcfg = self._configs(tiny_data)
        root = tmp_path / "cache"
        hn.CheckpointCache(root).get_or_pretrain(tiny_data, cfg, pcfg)
        (entry,) = root.glob("*.dagp")
        whole = entry.read_bytes()
        entry.write_bytes(version_one(whole))
        cache = hn.CheckpointCache(root)
        assert cache.get_or_pretrain(tiny_data, cfg, pcfg)[2] is not None
        assert (cache.quarantined, cache.pretrain_runs) == (1, 1)
        assert entry.read_bytes() == whole
        warm = hn.CheckpointCache(root)
        assert warm.get_or_pretrain(tiny_data, cfg, pcfg)[2] is None
        assert (warm.quarantined, warm.pretrain_runs) == (0, 0)


class TestCacheRevision:
    """Every key hashes the revision of pre-training's arithmetic, so an entry
    written under another revision is never served."""

    def test_other_revision_misses_and_same_revision_hits(self, tiny_data, tmp_path,
                                                          monkeypatch):
        cfg, pcfg = TestCacheRecovery._configs(tiny_data)
        root = tmp_path / "cache"
        current = cache_module.CHECKPOINT_REVISION
        monkeypatch.setattr(cache_module, "CHECKPOINT_REVISION", current + 1)
        assert hn.CheckpointCache(root).get_or_pretrain(tiny_data, cfg, pcfg)[2] is not None
        monkeypatch.setattr(cache_module, "CHECKPOINT_REVISION", current)
        cold = hn.CheckpointCache(root)
        assert cold.get_or_pretrain(tiny_data, cfg, pcfg)[2] is not None
        assert (cold.pretrain_runs, cold.quarantined) == (1, 0)
        assert len(list(root.glob("*.dagp"))) == 2
        warm = hn.CheckpointCache(root)
        assert warm.get_or_pretrain(tiny_data, cfg, pcfg)[2] is None
        assert warm.pretrain_runs == 0


class TestFinetuneBaseline:
    def test_w0_actually_moves(self, tiny_data, monkeypatch):
        import hopprompt.pretrain as pt
        cfg = enc.EncoderConfig(layers=2, dims=[16, 32, 32])
        params, _ = pt.run_pretrain(tiny_data, cfg,
                                    pt.PretrainConfig(epochs=3, lr=1e-3, seed=0))
        before = [lp.w0.data.copy() for lp in params.layers]
        real_fit, trained = baselines.fit, []

        def fit(loss_fn, trainables, **kwargs):
            trained.extend(trainables)
            return real_fit(loss_fn, trainables, **kwargs)

        monkeypatch.setattr(baselines, "fit", fit)
        split = gs.kshot_split(tiny_data, 2, seed=0)
        hn.train_finetune_lp(params, tiny_data, split, lr=1e-3,
                             weight_decay=0.0, epochs=10, seed=0)
        # trainables are [w_in, W0 per layer, head]
        moved = [np.abs(a - t.data).max() for a, t in zip(before, trained[1:-1])]
        assert len(moved) == cfg.layers and all(m > 0 for m in moved)


class TestFeatureWidthMismatch:
    """The input map's width is checked in one place, `forward_start`: each
    task refuses a dataset of another width before its first step."""

    @pytest.mark.parametrize("task", ["pretrain", "node_tune", "graph_tune",
                                      "finetune_lp"])
    def test_refused_before_training(self, monkeypatch, tmp_path, task):
        import hopprompt.pretrain as pt
        import hopprompt.prompt as pr
        calls = []
        for module in (pt, pr, baselines):
            monkeypatch.setattr(module, "fit", lambda *a, **k: calls.append(a))
        g = gs.random_labeled_graph(12, 24, 2, 4, seed=10)
        items = gs.build_graph_task(g, hops=1)
        cfg = enc.EncoderConfig(layers=2, dims=[7, 8, 8])
        params = enc.init_encoder(cfg, np.random.default_rng(0))
        model = tmp_path / "m.dagp"
        enc.checkpoint_save(params, cfg, model)
        tcfg = PromptTuneConfig(epochs=1)
        run = {
            "pretrain": lambda: pt.run_pretrain(g, cfg, PretrainConfig(epochs=1)),
            "node_tune": lambda: run_prompt_tune(model, g, gs.kshot_split(g, 1, 0),
                                                 tcfg),
            "graph_tune": lambda: run_prompt_tune(params, items,
                                                  gs.kshot_split(items, 1, 0), tcfg),
            "finetune_lp": lambda: hn.train_finetune_lp(
                params, g, gs.kshot_split(g, 1, 0), lr=1e-2, weight_decay=0.0,
                epochs=1, seed=0),
        }[task]
        with pytest.raises(DimensionError, match=r"features must be \(\d+, 7\), got "
                           r"\(\d+, 4\); the input map takes 7"):
            run()
        assert calls == []


class TestCheckpointNeverWritten:
    """Tuning wraps the checkpoint's arrays in tensors of its own: the
    caller's tensors, a cache's among them, keep their values and flags."""

    @staticmethod
    def _state(params):
        return [(t.data.tobytes(), t.requires_grad)
                for t in [params.w_in] + [lp.w0 for lp in params.layers]]

    @pytest.mark.parametrize("dataset", ["web-tiny", "ego-tiny"])
    def test_tuning_leaves_cached_params_alone(self, dataset):
        data = gs.load_dataset(f"datasets/{dataset}")
        is_graph = isinstance(data, gs.GraphSet)
        f = (data.graphs[0] if is_graph else data).num_features
        cfg = enc.EncoderConfig(layers=2, dims=[f, 8, 8])
        pcfg = PretrainConfig(epochs=3, batch_size=64, seed=0)
        split = gs.kshot_split(data, 2, seed=0)
        cache = hn.CheckpointCache()
        params, _cfg, losses = cache.get_or_pretrain(data, cfg, pcfg)
        assert losses is not None
        pretrained = self._state(params)

        tunes = [] if is_graph else [lambda: hn.train_finetune_lp(
            params, data, split, lr=1e-2, weight_decay=0.0, epochs=5, seed=0)]
        for mode in ("off", "full", "edge_subset"):
            tcfg = PromptTuneConfig(glora_mode=mode, lr=1e-2, epochs=5, seed=0)
            tunes.append(lambda tcfg=tcfg: run_prompt_tune(params, data,
                                                           split, tcfg))
        for tune in tunes:
            tune()
            assert self._state(params) == pretrained
            hit, _cfg, losses = cache.get_or_pretrain(data, cfg, pcfg)
            assert losses is None and self._state(hit) == pretrained


class TestBaselinesOnReceptiveField:
    """The baselines train on the training rows' receptive field and take
    every decision the full-forward training path takes."""

    @staticmethod
    def _run(kind, g, ckpt, split):
        if kind == "scratch_gcn":
            return hn.train_scratch_gcn(g, split, hidden=32, lr=1e-2, weight_decay=0.0,
                                        epochs=40, seed=1, patience=5)
        params, _cfg = enc.checkpoint_load(ckpt)
        return hn.train_finetune_lp(params, g, split, lr=1e-2, weight_decay=0.0,
                                    epochs=40, seed=1, patience=5)

    @pytest.mark.parametrize("kind", ["finetune_lp", "scratch_gcn"])
    def test_equals_full_forward_oracle(self, monkeypatch, synth_h10, ckpt_h10, kind):
        split = gs.kshot_split(synth_h10, 5, seed=2)
        ours = self._run(kind, synth_h10, ckpt_h10, split)
        # fine-tuning plans through `forward_start`, the scratch GCN itself
        monkeypatch.setattr(enc, "forward_plan", full_rows_plan)
        monkeypatch.setattr(baselines, "forward_plan", full_rows_plan)
        oracle = self._run(kind, synth_h10, ckpt_h10, split)
        assert ours.test_accuracy == oracle.test_accuracy
        assert len(ours.train_losses) == len(oracle.train_losses)
        np.testing.assert_allclose(ours.train_losses, oracle.train_losses,
                                   rtol=1e-12, atol=0)

    def test_scratch_gcn_starts_from_the_gcn_it_reassociates(self, synth_h10):
        """The first epoch's loss, taken at the initial weights, is the
        H(0)-first GCN's, A relu(A (X W1)) W2, within 1e-13 relative."""
        split = gs.kshot_split(synth_h10, 5, seed=2)
        result = hn.train_scratch_gcn(synth_h10, split, hidden=32, lr=1e-2,
                                      weight_decay=0.0, epochs=1, seed=1)
        rng = np.random.default_rng(1)  # the baseline's Glorot draws, in order
        f, c = synth_h10.num_features, synth_h10.num_classes
        w1 = np.sqrt(2.0 / (f + 32)) * rng.standard_normal((f, 32))
        w2 = np.sqrt(2.0 / (32 + c)) * rng.standard_normal((32, c))
        a = densify(gs.normalize_adjacency(synth_h10))
        h1 = np.maximum(a @ (synth_h10.features.data @ w1), 0.0)
        z = (a @ h1 @ w2)[split.train_ids]
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        want = -logp[np.arange(z.shape[0]), synth_h10.labels[split.train_ids]].mean()
        assert abs(result.train_losses[0] - want) <= 1e-13 * want

    def test_degenerate_row_raises_divergence(self, monkeypatch, tiny_data):
        real, calls = baselines.softmax_nll, []

        def collapsing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DegenerateRowError("row_cosine_sim: left row 0 has norm 0")
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "softmax_nll", collapsing)
        split = gs.kshot_split(tiny_data, 2, seed=0)
        with pytest.raises(DivergenceError) as info:
            hn.train_scratch_gcn(tiny_data, split, hidden=8, lr=1e-3,
                                 weight_decay=0.0, epochs=5, seed=0)
        assert (info.value.epoch, info.value.lr) == (2, 1e-3)
        assert isinstance(info.value.__cause__, DegenerateRowError)


class TestAblationAndTransfer:
    def test_ablation_rows(self, tiny_data):
        cache = hn.CheckpointCache()
        reports = hn.run_ablation(quick_cfg(), data=tiny_data, cache=cache)
        assert [r.mode for r in reports] == [
            "dagprompt", "ablation:no_glora", "ablation:last_layer_only",
            "ablation:fixed_gamma",
        ]
        direct = hn.run_experiment(quick_cfg(), data=tiny_data, cache=cache)
        assert reports[0].accuracies == direct.accuracies

    def test_ignored_workers_warns_once(self, tiny_data):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = quick_cfg(seeds=[0], epochs=2, pretrain_epochs=2, workers=2)
            hn.run_ablation(cfg, data=tiny_data, cache=hn.CheckpointCache())
        serial = [w for w in caught
                  if issubclass(w.category, UserWarning) and "serial" in str(w.message)]
        assert len(serial) == 1

    def test_transfer_labels_and_self_transfer(self, tmp_path):
        cfg = quick_cfg(dataset="datasets/web-tiny")
        reports = hn.run_transfer("datasets/web-tiny", "datasets/web-tiny", cfg,
                                  cache=hn.CheckpointCache(tmp_path / "cc"))
        assert [r.mode for r in reports] == ["dagprompt-Scratch", "dagprompt-Cross"]
        direct = hn.run_experiment(cfg, cache=hn.CheckpointCache(tmp_path / "cd"))
        assert reports[1].accuracies == direct.accuracies

    def test_transfer_feature_mismatch(self, tmp_path):
        other = gs.random_labeled_graph(20, 40, 2, 9, seed=0)
        gs.save_dataset(other, tmp_path / "other", name="other")
        with pytest.raises(TransferInfeasibleError):
            hn.run_transfer("datasets/web-tiny", tmp_path / "other", quick_cfg())

    @pytest.mark.parametrize("mode", ["scratch_gcn", "finetune_lp"])
    def test_transfer_rejects_baseline_modes(self, mode):
        with pytest.raises(ConfigError, match="baseline"):
            hn.run_transfer("datasets/web-tiny", "datasets/web-tiny",
                            quick_cfg(mode=mode))

    def test_transfer_task_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            hn.run_transfer("datasets/web-tiny", "datasets/web-tiny",
                            quick_cfg(task="graph"))

    @pytest.mark.parametrize("selection", ["test_acc", "train_loss"])
    def test_transfer_searches_the_grid(self, monkeypatch, selection):
        cells = []
        real = runner._single_run

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            bound = inspect.signature(real).bind(*args, **kwargs).arguments
            cells.append((bound["source"] is None, dict(bound["point"]), out))
            return out

        monkeypatch.setattr(runner, "_single_run", recorded)
        cfg = quick_cfg(grid=hn.GridSpec(lr=[1e-5, 1e-3], alpha=[0.1, 0.9]),
                        selection=selection)
        cache = hn.CheckpointCache()
        reports = hn.run_transfer("datasets/web-tiny", "datasets/web-tiny", cfg,
                                  cache=cache)
        points = cfg.grid.points()
        assert len(cells) == 2 * len(points) * len(cfg.seeds)
        key, pick = (("accuracy", np.argmax) if selection == "test_acc"
                     else ("train_loss", np.argmin))
        for report, scratch in zip(reports, (True, False)):
            means = [np.mean([out[key] for s, p, out in cells
                              if s == scratch and p == point])
                     for point in points]
            assert report.chosen_grid_point == points[int(pick(means))]
        # self-transfer's Cross arm is the plain experiment, grid search included
        direct = hn.run_experiment(cfg, cache=cache)
        assert reports[1].chosen_grid_point == direct.chosen_grid_point
        assert reports[1].accuracies == direct.accuracies

    def test_transfer_scratch_arm_tunes_a_random_encoder(self):
        cfg = quick_cfg(glora_mode="edge_subset", seeds=[0, 1, 2])
        scratch, _cross = hn.run_transfer("datasets/web-tiny", "datasets/web-tiny",
                                          cfg, cache=hn.CheckpointCache())
        dst = gs.load_dataset("datasets/web-tiny")
        point = cfg.grid.points()[0]
        enc_cfg = enc.EncoderConfig(layers=2, dims=[dst.num_features, 128, 128])
        accs, counts = [], []
        for seed in cfg.seeds:
            tcfg = PromptTuneConfig(
                alpha=point["alpha"], rank=point["rank"], glora_mode="edge_subset",
                lr=point["lr"], weight_decay=point["weight_decay"], tau=cfg.tau,
                epochs=cfg.epochs, seed=seed, patience=cfg.patience)
            params = enc.init_encoder(enc_cfg, np.random.default_rng(seed))
            _tuned, res = run_prompt_tune(params, dst,
                                          gs.kshot_split(dst, cfg.shots, seed), tcfg)
            accs.append(res.test_accuracy)
            counts.append(res.trainable_encoder + res.trainable_prompt)
        assert scratch.accuracies == accs
        assert scratch.trainable_params_pretrain == 0
        # under edge_subset the count follows the split; the report keeps the
        # max over the seeds, as run_experiment does, not the last seed's
        assert counts[-1] < max(counts)
        assert scratch.trainable_params_downstream == max(counts)


class TestHeterophilySweep:
    def test_series_and_achieved_h(self):
        cfg = quick_cfg(shots=None, train_fraction=0.5, seeds=[0],
                        epochs=5, pretrain_epochs=3)
        curve = hn.run_heterophily_sweep(
            "datasets/web-tiny", [0.3, 0.5], cfg, modes=("prototype",))
        assert len(curve["series"]) == 2
        for entry in curve["series"]:
            assert abs(entry["achieved_h"] - entry["target_h"]) <= 0.02
            assert "prototype" in entry["modes"]

    def test_ignored_workers_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = quick_cfg(shots=None, train_fraction=0.5, seeds=[0],
                            epochs=2, pretrain_epochs=2, workers=2)
            hn.run_heterophily_sweep("datasets/web-tiny", [0.3], cfg,
                                     modes=("prototype", "dagprompt"))
        serial = [w for w in caught
                  if issubclass(w.category, UserWarning) and "serial" in str(w.message)]
        assert len(serial) == 1

    def test_every_mode_checked_before_anything_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "run_experiment",
                            lambda *args, **kwargs: calls.append(1))
        cfg = quick_cfg(shots=None, train_fraction=0.5, seeds=[0])
        with pytest.raises(ConfigError, match="mode 'bogus'"):
            hn.run_heterophily_sweep("datasets/web-tiny", [0.3, 0.5], cfg,
                                     modes=("dagprompt", "bogus"))
        trained = quick_cfg(shots=None, train_fraction=0.5, seeds=[0],
                            grid=hn.GridSpec(alpha=[0.1, 0.9]), selection="train_loss")
        with pytest.raises(ConfigError, match="train_loss needs runs that train"):
            hn.run_heterophily_sweep("datasets/web-tiny", [0.3], trained,
                                     modes=("dagprompt", "prototype"))
        assert calls == []

    def test_infeasible_target_skipped(self):
        cfg = quick_cfg(shots=None, train_fraction=0.5, seeds=[0],
                        epochs=3, pretrain_epochs=3)
        with pytest.warns(UserWarning, match="skipped"):
            curve = hn.run_heterophily_sweep(
                "datasets/web-tiny", [0.99, 0.5], cfg, modes=("prototype",))
        assert len(curve["series"]) == 1


class TestEmitReport:
    def _report(self):
        return hn.RunReport.build(
            dataset="d", task="node", mode="dagprompt", shots=5, seeds=[0, 1],
            accuracies=[0.5, 0.75], chosen_grid_point={"lr": 5e-4,
                                                       "weight_decay": 0.0,
                                                       "hidden": 128, "rank": 8,
                                                       "alpha": 0.5},
            trainable_params_pretrain=10, trainable_params_downstream=7,
            peak_tape_bytes=1024, wall_clock_sec={"pretrain": 1.0, "tune": 2.0},
        )

    def test_json_roundtrip_exact(self, tmp_path):
        report = self._report()
        hn.emit_report(report, tmp_path / "r.json", fmt="json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["accuracies"] == report.accuracies
        assert loaded["mean_accuracy"] == report.mean_accuracy
        assert loaded["schema_version"] == hn.SCHEMA_VERSION

    def test_csv_rows(self, tmp_path):
        reports = [self._report(), self._report()]
        reports[1].mode = "prototype"
        hn.emit_report(reports, tmp_path / "r.csv", fmt="csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + modes x seeds
        assert lines[0].startswith("schema_version,")


def _member(feature_bytes: bytes, label: int, num_classes: int = 2) -> gs.Graph:
    feats = np.frombuffer(feature_bytes, dtype=np.float64).reshape(-1, 1)
    return gs.Graph(num_nodes=len(feats), edges=np.zeros((0, 2), dtype=np.int64),
                    features=nc.Tensor(feats), labels=None, num_classes=num_classes,
                    graph_label=label)


class TestDatasetDigest:
    def test_graph_label_above_255(self):
        def one(label):
            return gs.GraphSet([_member(bytes(8), label, num_classes=301)], 301)

        assert hn.dataset_digest(one(300)) != hn.dataset_digest(one(44))

    def test_member_boundaries_are_part_of_the_digest(self):
        # 1-node + 2-node members versus 2-node + 1-node members whose
        # unframed byte streams (features, then a one-byte label) coincide
        a, b, c = bytes(range(10, 18)), bytes([1, 2, 3, 4, 5, 6, 7, 0]), bytes(range(30, 38))
        first = gs.GraphSet([_member(a, 0), _member(b + c, 1)], 2)
        second = gs.GraphSet([_member(a + bytes([0]) + b[:7], b[7]), _member(c, 1)], 2)

        def unframed(gset):
            return b"".join(g.features.data.tobytes() + bytes([g.graph_label])
                            for g in gset.graphs)

        assert unframed(first) == unframed(second)
        assert hn.dataset_digest(first) != hn.dataset_digest(second)

    def test_stable_and_content_sensitive(self):
        g = gs.random_labeled_graph(10, 20, 2, 3, seed=0)
        assert hn.dataset_digest(g) == hn.dataset_digest(replace(g))
        moved = replace(g, labels=np.roll(g.labels, 1))
        assert hn.dataset_digest(moved) != hn.dataset_digest(g)
