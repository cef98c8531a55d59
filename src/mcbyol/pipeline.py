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

import os

import numpy as np

from . import config as cfgmod
from .data import (AugmentationConfig, Dataset, augment_pair, load_dataset,
                   make_clusters, make_ood, minibatch_keys, minibatches)
from .diagnostics import ChainStats, QuadraticTarget, run_chain
from .errors import CheckpointError, DivergenceError
from .finetune import FineTuneConfig, finetune, load_member, save_member, subset_labels
from .metrics import (EvalReport, accuracy, aggregate_seeds, auroc,
                      entropy_histogram, nll, write_histogram, write_table)
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


def build_sampler_config(cfg: cfgmod.RunConfig) -> SamplerConfig:
    s = cfg.sampler
    n = cfg.data.classes * cfg.data.per_class_pretrain
    return SamplerConfig(kind=s.kind, lr0=s.lr0, beta=s.beta,
                         temperature=s.temperature, cycle_len=s.cycle_len,
                         total_steps=s.total_steps, n_dataset=n,
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
    scfg = build_sampler_config(cfg)
    aug = build_aug_config(cfg)
    pretrain, _, _, _ = make_datasets(cfg)

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


def _load_members(out_dir: str, seed: int, frac: float, count: int):
    members = []
    for s in range(count):
        path = member_path(out_dir, seed, frac, s)
        if not os.path.exists(path):
            raise CheckpointError(f"missing member checkpoint: {path}")
        encoder, head, _ = load_member(path)
        members.append((encoder, head))
    return members


def _member_probs(members, x: np.ndarray, arch: Architecture) -> list[np.ndarray]:
    """Each member's softmax on x, one encoder forward per member."""
    return [bma_predict(members[i:i + 1], x, arch) for i in range(len(members))]


def run_eval(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """ACC/NLL for the single-snapshot model and for all ensemble prefix
    sizes (most recent snapshots first), aggregated over seeds."""
    arch = build_arch(cfg)
    _, _, test, _ = make_datasets(cfg)
    digest = cfg.digest()
    kind = cfg.sampler.kind
    sizes = {seed: load_ensemble(ensemble_path(out_dir, seed)).size for seed in cfg.run.seeds}
    rows: list[tuple] = []
    for frac in cfg.finetune.label_fractions:
        per_mode: dict[tuple, dict[str, list[float]]] = {}
        for seed in cfg.run.seeds:
            members = _load_members(out_dir, seed, frac, sizes[seed])
            member_probs = _member_probs(members, test.x, arch)
            for k in range(1, sizes[seed] + 1):
                probs = recent_mean(member_probs, k)
                # the single-snapshot model is the k=1 ensemble
                for mode in ("single", "bma") if k == 1 else ("bma",):
                    bucket = per_mode.setdefault((mode, k), {"accuracy": [], "nll": []})
                    bucket["accuracy"].append(accuracy(probs, test.y))
                    bucket["nll"].append(nll(probs, test.y))
        for (mode, k), vals in sorted(per_mode.items()):
            report = EvalReport(accuracy=aggregate_seeds(vals["accuracy"])[0],
                                nll=aggregate_seeds(vals["nll"])[0],
                                per_seed=vals)
            rows.append((kind, mode, frac, k, report.accuracy, report.stderr("accuracy"),
                         report.nll, report.stderr("nll"), digest))
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
    frac = max(cfg.finetune.label_fractions)
    digest = cfg.digest()
    kind = cfg.sampler.kind
    ln_c = float(np.log(cfg.data.classes))

    per_k: dict[int, dict[str, list]] = {}
    for seed in cfg.run.seeds:
        ens = load_ensemble(ensemble_path(out_dir, seed))
        members = _load_members(out_dir, seed, frac, ens.size)
        member_test = _member_probs(members, test.x, arch)
        member_ood = _member_probs(members, ood.x, arch)
        for k in range(1, ens.size + 1):
            probs_test = recent_mean(member_test, k)
            probs_ood = recent_mean(member_ood, k)
            bucket = per_k.setdefault(k, {"accuracy": [], "nll": [], "auroc": [],
                                          "h_test": [], "h_ood": []})
            bucket["accuracy"].append(accuracy(probs_test, test.y))
            bucket["nll"].append(nll(probs_test, test.y))
            bucket["auroc"].append(auroc(_ood_scores(probs_ood, cfg.eval.score),
                                         _ood_scores(probs_test, cfg.eval.score)))
            bucket["h_test"].append(predictive_entropy(probs_test))
            bucket["h_ood"].append(predictive_entropy(probs_ood))

    rows: list[tuple] = []
    for k in sorted(per_k):
        vals = per_k[k]
        h_ood_all = np.concatenate(vals.pop("h_ood"))
        h_test_all = np.concatenate(vals.pop("h_test"))
        hist = entropy_histogram(h_ood_all, cfg.eval.bins, 0.0, ln_c)
        report = EvalReport(accuracy=aggregate_seeds(vals["accuracy"])[0],
                            nll=aggregate_seeds(vals["nll"])[0],
                            auroc=aggregate_seeds(vals["auroc"])[0],
                            entropy_histogram=hist, per_seed=vals)
        rows.append((kind, k, report.nll, report.stderr("nll"),
                     report.auroc, report.stderr("auroc"),
                     float(h_ood_all.mean()), float(h_test_all.mean()), digest))
        write_histogram(os.path.join(out_dir, f"ood_hist_{kind}_k{k}.tsv"), hist)
        write_histogram(os.path.join(out_dir, f"indist_hist_{kind}_k{k}.tsv"),
                        entropy_histogram(h_test_all, cfg.eval.bins, 0.0, ln_c))
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
    s = cfg.sampler
    diag_cfg = SamplerConfig(kind=s.kind, lr0=s.lr0, beta=s.beta,
                             temperature=s.temperature, cycle_len=1,
                             total_steps=steps, n_dataset=1,
                             noise_start_frac=0.0, prior_std=s.prior_std,
                             temper_drift=s.temper_drift)
    target = QuadraticTarget(dim=dim, temperature=s.temperature)
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
