"""End-to-end orchestration: pretrain -> snapshot -> fine-tune -> evaluate.

Each stage reads/writes files under one output directory so stages can be
run (and re-run) independently:

    ensemble_seed<N>.ckpt          posterior snapshots, one file per seed
    pretrain_log_seed<N>.tsv       step, lr, loss, noise_active
    member_seed<N>_f<F>_snap<S>.ckpt   fine-tuned encoder + head
    finetune_log_seed<N>_f<F>.tsv  snapshot, epoch, loss
    eval_results.tsv / ood_results.tsv / *_hist_*.tsv

Baseline methods are config variants of the sampler kind, not code forks.
Everything is deterministic given config + seeds.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import config as cfgmod
from .data import (AugmentationConfig, Dataset, augment_pair, load_dataset,
                   make_clusters, make_ood, minibatch_keys, minibatches)
from .diagnostics import ChainStats, QuadraticTarget, run_chain
from .errors import CheckpointError, DivergenceError
from .finetune import FineTuneConfig, finetune, load_member, save_member, subset_labels
from .metrics import (accuracy, aggregate_seeds, auroc, entropy_histogram, nll,
                      write_histogram, write_table)
from .model import Architecture, ema_update, init_twin
from .posterior import (PosteriorEnsemble, bma_predict, collect, load_ensemble,
                        predictive_entropy, recent_mean, save_ensemble)
from .sampler import (SamplerConfig, cyclic_lr, diverged, divergence_error, make_state,
                      noise_active, posterior_grad, sghmc_step, sgld_step, should_yield)


def build_arch(cfg: cfgmod.RunConfig) -> Architecture:
    m = cfg.model
    return Architecture(input_dim=cfg.data.input_dim,
                        encoder_hidden=list(m.encoder_hidden),
                        embed_dim=m.embed_dim, proj_hidden=m.proj_hidden,
                        proj_dim=m.proj_dim, pred_hidden=m.pred_hidden,
                        activation=m.activation)


def build_sampler_config(cfg: cfgmod.RunConfig, n_dataset: int) -> SamplerConfig:
    s = cfg.sampler
    return SamplerConfig(kind=s.kind, lr0=s.lr0, beta=s.beta,
                         temperature=s.temperature, cycle_len=s.cycle_len,
                         total_steps=s.total_steps, n_dataset=n_dataset,
                         noise_start_frac=s.noise_start_frac,
                         prior_std=s.prior_std, temper_drift=s.temper_drift)


def build_aug_config(cfg: cfgmod.RunConfig) -> AugmentationConfig:
    d = cfg.data
    return AugmentationConfig(noise_std=d.noise_std, mask_prob=d.mask_prob,
                              scale_min=d.scale_min, scale_max=d.scale_max)


def make_datasets(cfg: cfgmod.RunConfig) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """(pretrain, train, test, ood).  All in-distribution splits are slices
    of one generated cluster sample, so they share means and mixing layer.
    With data.file_prefix set, the four splits load from dataset files."""
    d = cfg.data
    if d.file_prefix:
        return tuple(load_dataset(f"{d.file_prefix}_{tag}")
                     for tag in ("pretrain", "train", "test", "ood"))
    per_class_total = d.per_class_pretrain + d.per_class_train + d.per_class_test
    full = make_clusters(d.classes, per_class_total, d.input_dim,
                         d.separation, d.seed)

    def take(offset: int, count: int, tag: str, labeled: bool) -> Dataset:
        rows = []
        for c in range(d.classes):
            start = c * per_class_total + offset
            rows.append(np.arange(start, start + count))
        idx = np.concatenate(rows)
        return Dataset(x=full.x[idx].copy(),
                       y=full.y[idx].copy() if labeled else None,
                       split_tag=tag, gen_meta=dict(full.gen_meta))

    pretrain = take(0, d.per_class_pretrain, "pretrain", labeled=False)
    train = take(d.per_class_pretrain, d.per_class_train, "train", labeled=True)
    test = take(d.per_class_pretrain + d.per_class_train, d.per_class_test, "test", labeled=True)
    ood = make_ood(test, d.ood_mode, seed=d.seed + 1, count=test.n)
    return pretrain, train, test, ood


def ensemble_path(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, f"ensemble_seed{seed}.ckpt")


def member_path(out_dir: str, seed: int, frac: float, snap: int) -> str:
    return os.path.join(out_dir, f"member_seed{seed}_f{cfgmod.frac_tag(frac)}_snap{snap}.ckpt")


def _step_state(lr: float, noise_on: bool) -> str:
    return f"lr {lr:.6g}, noise {'on' if noise_on else 'off'}"


def run_pretrain(cfg: cfgmod.RunConfig, seed: int, out_dir: str) -> PosteriorEnsemble:
    """One training run of the snapshot-collecting loop for one seed."""
    os.makedirs(out_dir, exist_ok=True)
    arch = build_arch(cfg)
    pretrain, _, _, _ = make_datasets(cfg)
    scfg = build_sampler_config(cfg, pretrain.n)  # the rows loaded, whatever their source
    aug = build_aug_config(cfg)

    model = init_twin(arch, seed, tau=cfg.model.tau)
    state = make_state(model.online_dim, int(np.random.SeedSequence([seed, 10]).generate_state(1)[0]))
    aug_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 11])))
    steps_per_epoch = int(np.ceil(pretrain.n / cfg.sampler.batch))
    epoch_keys = minibatch_keys([seed], -(-scfg.total_steps // steps_per_epoch))
    ensemble = PosteriorEnsemble(run_meta={
        "seed": seed, "config_digest": cfg.digest(), "sampler_kind": scfg.kind,
        "n_dataset": scfg.n_dataset, "steps_per_epoch": steps_per_epoch,
    })

    step_fn = sgld_step if scfg.kind == "sgld" else sghmc_step
    log_rows: list[tuple] = []
    epoch, queue = 0, []
    for k in range(scfg.total_steps):
        if not queue:
            queue = minibatches(pretrain.n, cfg.sampler.batch, epoch_keys[:, epoch])
            epoch += 1
        (idx,) = queue.pop(0)
        view_a, view_b = augment_pair(pretrain.x[idx], aug, aug_rng)
        grad_u, loss = posterior_grad(model, view_a, view_b, scfg)
        lr = cyclic_lr(scfg, k)
        on = noise_active(scfg, k)
        new_flat = step_fn(model.online_flat(), state, grad_u, lr, scfg, noise_on=on)
        if not np.isfinite(loss):
            raise DivergenceError(k, quantity="loss", value=loss,
                                  detail=f"non-finite loss; {_step_state(lr, on)}")
        if diverged(new_flat):
            raise divergence_error(k, new_flat, _step_state(lr, on))
        model.set_online_flat(new_flat)
        ema_update(model)
        log_rows.append((k, lr, loss, int(on)))
        if should_yield(scfg, k):
            collect(ensemble, model, step=k, cycle=k // scfg.cycle_len, loss=loss)

    save_ensemble(ensemble, ensemble_path(out_dir, seed))
    write_table(os.path.join(out_dir, f"pretrain_log_seed{seed}.tsv"),
                ["step", "lr", "loss", "noise_active"], log_rows)
    return ensemble


def run_finetune(cfg: cfgmod.RunConfig, seed: int, out_dir: str) -> None:
    """Fine-tune every snapshot of this seed's ensemble at every label fraction."""
    path = ensemble_path(out_dir, seed)
    if not os.path.exists(path):
        raise CheckpointError(f"missing ensemble checkpoint: {path}")
    ensemble = load_ensemble(path)
    arch = build_arch(cfg)
    _, train, _, _ = make_datasets(cfg)
    f = cfg.finetune
    digest = cfg.digest()
    for frac_idx, frac in enumerate(f.label_fractions):
        subset = subset_labels(train, frac, seed=cfg.data.seed + seed)
        ftcfg = FineTuneConfig(lr=f.lr, momentum=f.momentum, batch=f.batch,
                               epochs=f.epochs, freeze_encoder=f.freeze_encoder)
        member_seeds = [(seed * 1009 + s) * 1009 + frac_idx
                        for s in range(ensemble.size)]
        fitted = finetune(ensemble.snapshots, subset, ftcfg, member_seeds, arch,
                          num_classes=cfg.data.classes)
        log_rows: list[tuple] = []
        for s, (snap, (encoder, head, losses)) in enumerate(zip(ensemble.snapshots, fitted)):
            meta = {"seed": seed, "label_fraction": frac, "snapshot": s,
                    "step": snap.step, "cycle": snap.cycle,
                    "sampler_kind": ensemble.run_meta.get("sampler_kind", ""),
                    "config_digest": digest,
                    "freeze_encoder": f.freeze_encoder}
            save_member(member_path(out_dir, seed, frac, s), encoder, head, meta)
            log_rows.extend((s, e, v) for e, v in enumerate(losses))
        tag = cfgmod.frac_tag(frac)
        write_table(os.path.join(out_dir, f"finetune_log_seed{seed}_f{tag}.tsv"),
                    ["snapshot", "epoch", "loss"], log_rows)


def _ensemble_sizes(cfg: cfgmod.RunConfig, out_dir: str) -> dict[int, int]:
    return {seed: load_ensemble(ensemble_path(out_dir, seed)).size for seed in cfg.run.seeds}


def _sweep(out_dir: str, seed: int, frac: float, size: int, xs: list[np.ndarray],
           arch: Architecture):
    """Yields (k, [BMA of the k most recent members on x for each x in xs])
    for k = 1..size.  Loads the (seed, fraction) group's members once and
    runs each member's encoder once per input."""
    members = []
    for s in range(size):
        path = member_path(out_dir, seed, frac, s)
        if not os.path.exists(path):
            raise CheckpointError(f"missing member checkpoint: {path}")
        members.append(load_member(path)[:2])
    member_probs = [[bma_predict(members[i:i + 1], x, arch) for i in range(size)] for x in xs]
    for k in range(1, size + 1):
        yield k, [recent_mean(probs, k) for probs in member_probs]


def run_eval(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """ACC/NLL for the single-snapshot model and for all ensemble prefix
    sizes (most recent snapshots first), aggregated over seeds."""
    arch = build_arch(cfg)
    _, _, test, _ = make_datasets(cfg)
    sizes = _ensemble_sizes(cfg, out_dir)
    digest = cfg.digest()
    rows: list[tuple] = []
    for frac in cfg.finetune.label_fractions:
        per_k: dict[int, list[tuple[float, float]]] = {}
        for seed in cfg.run.seeds:
            for k, (probs,) in _sweep(out_dir, seed, frac, sizes[seed], [test.x], arch):
                per_k.setdefault(k, []).append((accuracy(probs, test.y), nll(probs, test.y)))
        # the single-snapshot model is the k=1 ensemble
        for mode, k in [("bma", k) for k in sorted(per_k)] + [("single", 1)]:
            acc, nlls = zip(*per_k[k])
            rows.append((cfg.sampler.kind, mode, frac, k, *aggregate_seeds(acc),
                         *aggregate_seeds(nlls), digest))
    write_table(os.path.join(out_dir, "eval_results.tsv"),
                ["method", "mode", "label_fraction", "ensemble_size",
                 "accuracy", "accuracy_stderr", "nll", "nll_stderr", "config_digest"],
                rows)
    return rows


def _ood_scores(probs: np.ndarray, score: str) -> np.ndarray:
    if score == "max_prob":
        return 1.0 - probs.max(axis=1)  # low confidence reads as OOD
    return predictive_entropy(probs)


def run_ood(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """Entropy histograms plus an NLL/AUROC table (OOD scored positive),
    swept over ensemble sizes, using the largest label fraction's members."""
    arch = build_arch(cfg)
    _, _, test, ood = make_datasets(cfg)
    sizes = _ensemble_sizes(cfg, out_dir)
    frac = max(cfg.finetune.label_fractions)
    digest = cfg.digest()
    kind, score = cfg.sampler.kind, cfg.eval.score
    ln_c = float(np.log(cfg.data.classes))

    per_k: dict[int, dict[str, list]] = {}
    for seed in cfg.run.seeds:
        for k, (p_test, p_ood) in _sweep(out_dir, seed, frac, sizes[seed], [test.x, ood.x], arch):
            cell = per_k.setdefault(k, {"nll": [], "auroc": [], "h_test": [], "h_ood": []})
            cell["nll"].append(nll(p_test, test.y))
            cell["auroc"].append(auroc(_ood_scores(p_ood, score), _ood_scores(p_test, score)))
            cell["h_test"].append(predictive_entropy(p_test))
            cell["h_ood"].append(predictive_entropy(p_ood))

    rows: list[tuple] = []
    for k in sorted(per_k):
        cell = per_k[k]
        h_ood, h_test = np.concatenate(cell["h_ood"]), np.concatenate(cell["h_test"])
        rows.append((kind, k, *aggregate_seeds(cell["nll"]), *aggregate_seeds(cell["auroc"]),
                     float(h_ood.mean()), float(h_test.mean()), digest))
        for tag, h in (("ood", h_ood), ("indist", h_test)):
            write_histogram(os.path.join(out_dir, f"{tag}_hist_{kind}_k{k}.tsv"),
                            entropy_histogram(h, cfg.eval.bins, 0.0, ln_c))
    write_table(os.path.join(out_dir, "ood_results.tsv"),
                ["method", "ensemble_size", "nll", "nll_stderr", "auroc",
                 "auroc_stderr", "mean_entropy_ood", "mean_entropy_test", "config_digest"],
                rows)
    return rows


def run_sample_diag(cfg: cfgmod.RunConfig, out_dir: str, steps: int = 200_000,
                    burn_in: int | None = None, dim: int = 1,
                    seed: int | None = None) -> ChainStats:
    """Run the configured sampler against the unit quadratic and emit the
    chain moments next to their analytic values."""
    os.makedirs(out_dir, exist_ok=True)
    if burn_in is None:
        burn_in = max(1, steps // 20)  # default burn-in: 5% of steps
    diag_cfg = dataclasses.replace(build_sampler_config(cfg, n_dataset=1), cycle_len=1,
                                   total_steps=steps, noise_start_frac=0.0)
    target = QuadraticTarget(dim=dim, temperature=diag_cfg.temperature)
    stats = run_chain(diag_cfg, target, steps=steps, burn_in=burn_in,
                      seed=cfg.run.seeds[0] if seed is None else seed)
    analytic = np.diag(target.analytic_covariance())
    rows = [(i, float(stats.mean[i]), float(stats.variance[i]), float(analytic[i]),
             float(stats.lag1_autocorr[i]), cfg.digest())
            for i in range(dim)]
    write_table(os.path.join(out_dir, "chain_stats.tsv"),
                ["coordinate", "mean", "variance", "analytic_variance",
                 "lag1_autocorr", "config_digest"], rows)
    return stats
