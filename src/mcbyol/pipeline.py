"""End-to-end orchestration: pretrain -> snapshot -> fine-tune -> evaluate.

Each stage reads/writes files under one output directory so stages can be
run (and re-run) independently:

    ensemble_seed<N>.ckpt          posterior snapshots, one file per seed
    pretrain_log_seed<N>.tsv       step, lr, loss, noise_active
    member_seed<N>_f<F>_snap<S>.ckpt   fine-tuned encoder + head
    finetune_log_seed<N>_f<F>.tsv  snapshot, epoch, loss
    eval_results.tsv / ood_results.tsv / *_hist_*.tsv

Baseline methods are config variants of the sampler kind, not code forks.
Everything is deterministic given config + seeds, and the same at any CPU
count: with two or more CPUs, pretraining computes one direction of the
twin loss in a forked helper process (helper.py), with the bits of
computing both here.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import config as cfgmod
from .autodiff import Tensor
from .data import (Dataset, augment_pair, load_dataset, make_clusters, make_ood,
                   minibatch_keys, minibatches)
from .diagnostics import ChainStats, QuadraticTarget, run_chain
from .errors import CheckpointError, DataError, DivergenceError, HelperError
from .finetune import ClassifierHead, finetune, load_member, save_member, subset_labels
from .helper import direction_helper
from .metrics import (accuracy, aggregate_seeds, auroc, entropy_histogram, nll,
                      write_histogram, write_table)
from .model import ema_update, init_twin
from .posterior import (PosteriorEnsemble, bma_predict, collect, load_ensemble,
                        predictive_entropy, read_container, recent_mean, save_ensemble)
from .sampler import (cyclic_lr, diverged, divergence_error, make_state, noise_active,
                      posterior_grad, sghmc_step, sgld_step, should_yield)


def make_datasets(cfg: cfgmod.RunConfig) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """(pretrain, train, test, ood).  All in-distribution splits are slices
    of one generated cluster sample, so they share means and mixing layer.
    With data.file_prefix set, the four splits load from dataset files,
    which must all have the pretrain file's width; train and test must be
    labeled."""
    d = cfg.data
    if d.file_prefix:
        tags = ("pretrain", "train", "test", "ood")
        splits = tuple(load_dataset(f"{d.file_prefix}_{tag}") for tag in tags)
        for tag, ds in zip(tags, splits):
            if ds.input_dim != splits[0].input_dim:
                raise DataError(f"{d.file_prefix}_{tag}.bin: rows have width {ds.input_dim}, "
                                f"{d.file_prefix}_pretrain.bin's have {splits[0].input_dim}")
            if tag in ("train", "test") and ds.y is None:
                raise DataError(f"{d.file_prefix}_{tag}.txt: labeled = 0, "
                                f"but the {tag} split needs labels")
        return splits
    per_class_total = d.per_class_pretrain + d.per_class_train + d.per_class_test
    full = make_clusters(d, per_class_total)

    def take(offset: int, count: int, labeled: bool) -> Dataset:
        rows = []
        for c in range(d.classes):
            start = c * per_class_total + offset
            rows.append(np.arange(start, start + count))
        idx = np.concatenate(rows)
        return Dataset(x=full.x[idx].copy(), y=full.y[idx].copy() if labeled else None)

    pretrain = take(0, d.per_class_pretrain, labeled=False)
    train = take(d.per_class_pretrain, d.per_class_train, labeled=True)
    test = take(d.per_class_pretrain + d.per_class_train, d.per_class_test, labeled=True)
    return pretrain, train, test, make_ood(d, test)


def ensemble_path(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, f"ensemble_seed{seed}.ckpt")


def member_path(out_dir: str, seed: int, frac: float, snap: int) -> str:
    return os.path.join(out_dir, f"member_seed{seed}_f{cfgmod.frac_tag(frac)}_snap{snap}.ckpt")


def _step_state(lr: float, noise_on: bool) -> str:
    return f"lr {lr:.6g}, noise {'on' if noise_on else 'off'}"


def run_pretrain(cfg: cfgmod.RunConfig, seed: int, out_dir: str) -> PosteriorEnsemble:
    """One training run of the snapshot-collecting loop for one seed.  With
    two or more CPUs it forks one helper process for the run (helper.py)
    and reaps it before writing any file."""
    pretrain, _, _, _ = make_datasets(cfg)
    n = pretrain.n  # the rows loaded, whatever their source
    if n < 1:
        raise DataError("the pretrain split has no rows")
    os.makedirs(out_dir, exist_ok=True)
    s = cfg.sampler

    model = init_twin(cfg.model, pretrain.input_dim, seed)
    state = make_state(model.online_dim, int(np.random.SeedSequence([seed, 10]).generate_state(1)[0]))
    aug_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 11])))
    steps_per_epoch = int(np.ceil(n / s.batch))
    epoch_keys = minibatch_keys([seed], -(-s.total_steps // steps_per_epoch))
    ensemble = PosteriorEnsemble(run_meta={
        "seed": seed, "config_digest": cfg.digest(), "sampler_kind": s.kind,
        "n_dataset": n, "steps_per_epoch": steps_per_epoch,
    })

    step_fn = sghmc_step if cfgmod.SAMPLER_KINDS[s.kind].momentum else sgld_step
    log_rows: list[tuple] = []
    epoch, queue = 0, []
    with direction_helper(model, min(s.batch, n)) as helper:
        for k in range(s.total_steps):
            if not queue:
                queue = minibatches(n, s.batch, epoch_keys[:, epoch])
                epoch += 1
            (idx,) = queue.pop(0)
            view_a, view_b = augment_pair(pretrain.x[idx], cfg.data, aug_rng)
            try:
                grad_u, loss = posterior_grad(model, view_a, view_b, s, n, helper)
            except HelperError as exc:
                raise HelperError(exc.detail, step=k) from exc
            lr = cyclic_lr(s, k)
            on = noise_active(s, k)
            new_flat = step_fn(model.online_flat(), state, grad_u, lr, s, n, noise_on=on)
            if not np.isfinite(loss):
                raise DivergenceError(k, quantity="loss", value=loss,
                                      detail=f"non-finite loss; {_step_state(lr, on)}")
            if diverged(new_flat):
                raise divergence_error(k, new_flat, _step_state(lr, on))
            model.set_online_flat(new_flat)
            ema_update(model)
            log_rows.append((k, lr, loss, int(on)))
            if should_yield(s, k):
                collect(ensemble, model, step=k, cycle=k // s.cycle_len, loss=loss)

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
    _, train, _, _ = make_datasets(cfg)
    f = cfg.finetune
    digest = cfg.digest()
    for frac_idx, frac in enumerate(f.label_fractions):
        subset = subset_labels(train, frac, seed=cfg.data.seed + seed)
        member_seeds = [(seed * 1009 + s) * 1009 + frac_idx
                        for s in range(ensemble.size)]
        fitted = finetune(ensemble.snapshots, subset, f, member_seeds, cfg.model,
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
    """Each seed's snapshot count, one per block of its ensemble file."""
    headers = {seed: read_container(ensemble_path(out_dir, seed), expect_kind="ensemble")[0]
               for seed in cfg.run.seeds}
    return {seed: len(header["blocks"]) for seed, header in headers.items()}


def _sweep(out_dir: str, seed: int, fracs: list[float], size: int, xs: list[np.ndarray],
           model: cfgmod.ModelSection):
    """Yields (frac, k, [BMA of the k most recent members on x for each x in
    xs]) for each fraction in fracs and k = 1..size, fraction by fraction.
    Loads every member once.  Members of one snapshot whose encoders are
    byte-equal (all of them under linear evaluation) form a group, whose
    heads are stacked as weight (G, D, C) and bias (G, 1, C): one
    bma_predict call per group and input runs the encoder once and gives
    each member's softmax, bit for bit as a call of its own.  The forwards
    run back to back after the loads, so that each reuses the memory the
    one before freed instead of faulting in fresh pages."""
    groups = []  # (encoder, indices into fracs, stacked heads), snapshot by snapshot
    for s in range(size):
        members = []
        for frac in fracs:
            path = member_path(out_dir, seed, frac, s)
            if not os.path.exists(path):
                raise CheckpointError(f"missing member checkpoint: {path}")
            members.append(load_member(path)[:2])
        by_encoder: dict[bytes, list[int]] = {}
        for i, (encoder, _) in enumerate(members):
            by_encoder.setdefault(encoder.flatten().tobytes(), []).append(i)
        for idx in by_encoder.values():
            heads = [members[i][1] for i in idx]
            groups.append((members[idx[0]][0], idx, ClassifierHead(
                weight=Tensor(np.stack([h.weight.values for h in heads])),
                bias=Tensor(np.stack([h.bias.values[None, :] for h in heads])))))
    probs = [[[] for _ in xs] for _ in fracs]  # [fraction][input][snapshot]
    for j, x in enumerate(xs):
        for encoder, idx, head in groups:
            out = bma_predict([(encoder, head)], x, model)
            for g, i in enumerate(idx):
                probs[i][j].append(out[g])
    for frac, frac_probs in zip(fracs, probs):
        for k in range(1, size + 1):
            yield frac, k, [recent_mean(member_probs, k) for member_probs in frac_probs]


def run_eval(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """ACC/NLL for the single-snapshot model and for all ensemble prefix
    sizes (most recent snapshots first), aggregated over seeds.  One sweep
    per seed covers every label fraction, and each (fraction, k) cell
    collects its values in seed order."""
    _, _, test, _ = make_datasets(cfg)
    sizes = _ensemble_sizes(cfg, out_dir)
    digest = cfg.digest()
    fracs = cfg.finetune.label_fractions
    per_cell: dict[tuple[float, int], list[tuple[float, float]]] = {}
    for seed in cfg.run.seeds:
        for frac, k, (probs,) in _sweep(out_dir, seed, fracs, sizes[seed], [test.x], cfg.model):
            per_cell.setdefault((frac, k), []).append((accuracy(probs, test.y),
                                                       nll(probs, test.y)))
    rows: list[tuple] = []
    for frac in fracs:
        ks = sorted(k for f, k in per_cell if f == frac)
        # the single-snapshot model is the k=1 ensemble
        for mode, k in [("bma", k) for k in ks] + [("single", 1)]:
            acc, nlls = zip(*per_cell[frac, k])
            rows.append((cfg.sampler.kind, mode, frac, k, *aggregate_seeds(acc),
                         *aggregate_seeds(nlls), digest))
    write_table(os.path.join(out_dir, "eval_results.tsv"),
                ["method", "mode", "label_fraction", "ensemble_size",
                 "accuracy", "accuracy_stderr", "nll", "nll_stderr", "config_digest"],
                rows)
    return rows


def _ood_scores(probs: np.ndarray, entropy: np.ndarray, score: str) -> np.ndarray:
    if score == "max_prob":
        return 1.0 - probs.max(axis=1)  # low confidence reads as OOD
    return entropy


def run_ood(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """Entropy histograms plus an NLL/AUROC table (OOD scored positive),
    swept over ensemble sizes, using the largest label fraction's members."""
    _, _, test, ood = make_datasets(cfg)
    sizes = _ensemble_sizes(cfg, out_dir)
    frac = max(cfg.finetune.label_fractions)
    digest = cfg.digest()
    kind, score = cfg.sampler.kind, cfg.eval.score
    ln_c = float(np.log(cfg.data.classes))

    per_k: dict[int, dict[str, list]] = {}
    for seed in cfg.run.seeds:
        sweep = _sweep(out_dir, seed, [frac], sizes[seed], [test.x, ood.x], cfg.model)
        for _, k, (p_test, p_ood) in sweep:
            h_test, h_ood = predictive_entropy(p_test), predictive_entropy(p_ood)
            cell = per_k.setdefault(k, {"nll": [], "auroc": [], "h_test": [], "h_ood": []})
            cell["nll"].append(nll(p_test, test.y))
            cell["auroc"].append(auroc(_ood_scores(p_ood, h_ood, score),
                                       _ood_scores(p_test, h_test, score)))
            cell["h_test"].append(h_test)
            cell["h_ood"].append(h_ood)

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
                    burn_in: int | None = None, dim: int = 1) -> ChainStats:
    """Run the configured sampler for steps steps from the first run seed
    against the unit quadratic and emit the chain moments next to their
    analytic values, the [sampler] temperature."""
    if burn_in is None:
        burn_in = max(1, steps // 20)  # default burn-in: 5% of steps
    diag_cfg = dataclasses.replace(cfg.sampler, cycle_len=1, total_steps=steps,
                                   noise_start_frac=0.0)
    target = QuadraticTarget(dim=dim)
    stats = run_chain(diag_cfg, target, burn_in=burn_in, seed=cfg.run.seeds[0])
    analytic = np.diag(target.analytic_covariance(cfg.sampler.temperature))
    rows = [(i, float(stats.mean[i]), float(stats.variance[i]), float(analytic[i]),
             float(stats.lag1_autocorr[i]), cfg.digest())
            for i in range(dim)]
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "chain_stats.tsv"),
                ["coordinate", "mean", "variance", "analytic_variance",
                 "lag1_autocorr", "config_digest"], rows)
    return stats
