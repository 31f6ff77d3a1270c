"""`gpt` command-line interface.

Exit codes: 0 success, 2 configuration error, 3 infeasible experiment,
4 numeric failure.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import encoder as enc
from . import errors as err
from . import graphstore as gs
from . import harness as hn
from . import pretrain as pt
from . import prompt as pr

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

_GLORA_FLAGS = {"full": "full", "edges": "edge_subset", "off": "off"}


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (err.InfeasibleError, err.SplitError)):
        return EXIT_INFEASIBLE
    if isinstance(exc, (err.NumericError, err.DegenerateRowError)):
        return EXIT_NUMERIC
    if isinstance(exc, err.HopPromptError):
        return EXIT_CONFIG
    raise exc


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except err.HopPromptError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code_for(exc))
    return wrapper


@click.group()
def main():
    """Few-shot graph classification: pre-train, prompt-tune, measure, sweep."""


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as e:
        raise err.ConfigError(f"bad --seeds value {text!r}") from e


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as e:
        raise err.ConfigError(f"bad float list {text!r}") from e


# ---------------------------------------------------------------------------
# measurement and synthesis
# ---------------------------------------------------------------------------

@main.command()
@click.argument("dataset", type=click.Path(exists=True, file_okay=False))
@click.option("--hop", "max_hop", default=2, show_default=True,
              help="report local homophily for hops 1..k")
@click.option("--bins", default=10, show_default=True)
@handles_errors
def homophily(dataset, max_hop, bins):
    """Print the global homophily ratio and per-hop local histograms as JSON."""
    if bins < 1 or max_hop < 1:
        raise err.ConfigError(f"--bins and --hop must be >= 1, got {bins} and {max_hop}")
    data = gs.load_dataset(dataset)
    if isinstance(data, gs.GraphSet):
        raise err.ConfigError("homophily is defined for node datasets")
    out = {
        "dataset": str(dataset),
        "num_nodes": data.num_nodes,
        "num_edges": data.num_edges,
        "homophily": gs.homophily_ratio(data),
        "hops": {},
    }
    edges_grid = np.linspace(0.0, 1.0, bins + 1)
    for k in range(1, max_hop + 1):
        values, defined = gs.local_hop_homophily(data, k)
        counts, _ = np.histogram(values[defined], bins=edges_grid)
        out["hops"][str(k)] = {
            "mean": float(values[defined].mean()) if defined.any() else None,
            "defined": int(defined.sum()),
            "undefined": int((~defined).sum()),
            "bin_edges": [float(b) for b in edges_grid],
            "counts": [int(c) for c in counts],
        }
    click.echo(json.dumps(out, indent=2))


@main.command()
@click.argument("dataset", type=click.Path(exists=True, file_okay=False))
@click.option("--target-h", required=True, type=float)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@handles_errors
def synth(dataset, target_h, seed, out_dir):
    """Rewire a node dataset toward a target homophily ratio."""
    data = gs.load_dataset(dataset)
    if isinstance(data, gs.GraphSet):
        raise err.ConfigError("synth rewiring is defined for node datasets")
    rewired = gs.synth_rewire(data, target_h, seed)
    name = f"{Path(dataset).name}-h{int(round(100 * target_h)):02d}"
    gs.save_dataset(rewired, out_dir, name=name)
    click.echo(json.dumps({
        "out": str(out_dir),
        "target_h": target_h,
        "achieved_h": gs.homophily_ratio(rewired),
        "num_edges": rewired.num_edges,
    }, indent=2))


# ---------------------------------------------------------------------------
# training stages
# ---------------------------------------------------------------------------

@main.command()
@click.argument("dataset", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--hidden", default=128, show_default=True)
@click.option("--layers", default=2, show_default=True)
@click.option("--tau", default=0.5, show_default=True)
@click.option("--epochs", default=200, show_default=True)
@click.option("--lr", default=1e-3, show_default=True)
@click.option("--weight-decay", default=0.0, show_default=True)
@click.option("--batch-size", default=512, show_default=True)
@click.option("--negatives", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@handles_errors
def pretrain(dataset, out_path, hidden, layers, tau, epochs, lr, weight_decay,
             batch_size, negatives, seed):
    """Link-prediction pre-training; writes OUT and OUT.losses.csv."""
    data = gs.load_dataset(dataset)
    cfg = enc.EncoderConfig(layers=layers, dims=[data.num_features] + [hidden] * layers)
    pcfg = pt.PretrainConfig(tau=tau, negatives=negatives, epochs=epochs,
                             batch_size=batch_size, lr=lr,
                             weight_decay=weight_decay, seed=seed)
    _params, losses = pt.run_pretrain(data, cfg, pcfg, out_path=out_path)
    click.echo(json.dumps({
        "model": str(out_path),
        "epochs": len(losses),
        "first_epoch_loss": losses[0][1],
        "final_epoch_loss": losses[-1][1],
    }, indent=2))


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "dataset", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--shots", default=5, show_default=True)
@click.option("--alpha", default=0.5, show_default=True)
@click.option("--rank", default=8, show_default=True)
@click.option("--glora", default="full", show_default=True,
              type=click.Choice(sorted(_GLORA_FLAGS)))
@click.option("--lr", default=5e-4, show_default=True)
@click.option("--weight-decay", default=0.0, show_default=True)
@click.option("--tau", default=0.5, show_default=True)
@click.option("--epochs", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@handles_errors
def tune(model, dataset, shots, alpha, rank, glora, lr, weight_decay, tau,
         epochs, seed, report_path):
    """Stage-two prompting and adapter tuning on a k-shot split."""
    data = gs.load_dataset(dataset)
    split = gs.kshot_split(data, shots, seed)
    tcfg = pr.PromptTuneConfig(alpha=alpha, rank=rank,
                               glora_mode=_GLORA_FLAGS[glora], lr=lr,
                               weight_decay=weight_decay, tau=tau,
                               epochs=epochs, seed=seed)
    _params, result = pr.run_prompt_tune(model, data, split, tcfg)
    payload = {
        "schema_version": hn.SCHEMA_VERSION,
        "model": str(model),
        "dataset": str(dataset),
        "shots": shots,
        "seed": seed,
        "alpha": alpha,
        "rank": rank,
        "glora": glora,
        "test_accuracy": result.test_accuracy,
        "best_epoch": result.best_epoch,
        "trainable_encoder": result.trainable_encoder,
        "trainable_prompt": result.trainable_prompt,
    }
    if report_path:
        Path(report_path).write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------

def _experiment_options(fn):
    for option in reversed([
        click.option("--seeds", default="0,1,2,3,4", show_default=True),
        click.option("--lr", default=5e-4, show_default=True),
        click.option("--weight-decay", default=0.0, show_default=True),
        click.option("--hidden", default=128, show_default=True),
        click.option("--rank", default=8, show_default=True),
        click.option("--alpha", default=0.5, show_default=True),
        click.option("--layers", default=2, show_default=True),
        click.option("--epochs", default=200, show_default=True),
        click.option("--pretrain-epochs", default=200, show_default=True),
        click.option("--cache-dir", default=None, type=click.Path(file_okay=False)),
    ]):
        fn = option(fn)
    return fn


# k-shot runs that emit reports; the heterophily sweep is full-shot, JSON only
_SHOTS = click.option("--shots", default=5, show_default=True)
_FORMAT = click.option("--format", "fmt", default="json", show_default=True,
                       type=click.Choice(["json", "csv"]))


def _quick_config(dataset, mode, shots, seeds, lr, weight_decay, hidden, rank,
                  alpha, layers, epochs, pretrain_epochs,
                  train_fraction=None) -> hn.ExperimentConfig:
    return hn.ExperimentConfig(
        dataset=str(dataset), mode=mode, shots=shots,
        train_fraction=train_fraction, seeds=_parse_seeds(seeds),
        grid=hn.GridSpec(lr=[lr], weight_decay=[weight_decay], hidden=[hidden],
                         rank=[rank], alpha=[alpha]),
        layers=layers, epochs=epochs, pretrain_epochs=pretrain_epochs,
    )


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_FORMAT
@click.option("--cache-dir", default=None, type=click.Path(file_okay=False))
@handles_errors
def experiment(config_path, out_path, fmt, cache_dir):
    """Run the experiment described by a JSON config file."""
    cfg = hn.ExperimentConfig.from_json(config_path)
    cache = hn.CheckpointCache(cache_dir)
    report = hn.run_experiment(cfg, cache=cache)
    if out_path:
        hn.emit_report(report, out_path, fmt=fmt)
    click.echo(json.dumps(report.numeric_payload(), indent=2))


@main.command()
@click.option("--data", "dataset", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_SHOTS
@_experiment_options
@_FORMAT
@handles_errors
def ablate(dataset, out_path, shots, seeds, lr, weight_decay, hidden, rank,
           alpha, layers, epochs, pretrain_epochs, cache_dir, fmt):
    """Full model vs the three single-component ablations."""
    cfg = _quick_config(dataset, "dagprompt", shots, seeds, lr, weight_decay,
                        hidden, rank, alpha, layers, epochs, pretrain_epochs)
    reports = hn.run_ablation(cfg, cache=hn.CheckpointCache(cache_dir))
    if out_path:
        hn.emit_report(reports, out_path, fmt=fmt)
    for r in reports:
        click.echo(f"{r.mode:28s} {100 * r.mean_accuracy:6.2f} "
                   f"+- {100 * r.std_accuracy:5.2f}")


@main.command()
@click.option("--src", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--dst", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_SHOTS
@_experiment_options
@_FORMAT
@handles_errors
def transfer(src, dst, out_path, shots, seeds, lr, weight_decay, hidden, rank,
             alpha, layers, epochs, pretrain_epochs, cache_dir, fmt):
    """Pre-train on SRC, tune on DST, against a no-pre-training control."""
    cfg = _quick_config(dst, "dagprompt", shots, seeds, lr, weight_decay,
                        hidden, rank, alpha, layers, epochs, pretrain_epochs)
    reports = hn.run_transfer(src, dst, cfg, cache=hn.CheckpointCache(cache_dir))
    if out_path:
        hn.emit_report(reports, out_path, fmt=fmt)
    for r in reports:
        click.echo(f"{r.mode:28s} {100 * r.mean_accuracy:6.2f} "
                   f"+- {100 * r.std_accuracy:5.2f}")


@main.command(name="sweep-h")
@click.option("--data", "dataset", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--targets", default="0.1,0.3,0.5,0.7,0.9", show_default=True)
@click.option("--modes", default="dagprompt,prototype", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_experiment_options
@handles_errors
def sweep_h(dataset, targets, modes, out_path, seeds, lr, weight_decay,
            hidden, rank, alpha, layers, epochs, pretrain_epochs, cache_dir):
    """Accuracy vs homophily curves on rewired copies of DATA (50% split)."""
    cfg = _quick_config(dataset, "dagprompt", None, seeds, lr, weight_decay,
                        hidden, rank, alpha, layers, epochs, pretrain_epochs,
                        train_fraction=0.5)
    curve = hn.run_heterophily_sweep(
        dataset, _parse_floats(targets), cfg,
        modes=tuple(m.strip() for m in modes.split(",")),
        cache=hn.CheckpointCache(cache_dir),
    )
    body = json.dumps(curve, indent=2)
    if out_path:
        Path(out_path).write_text(body + "\n")
    click.echo(body)


if __name__ == "__main__":
    main()
