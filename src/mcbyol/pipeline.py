"""End-to-end orchestration: pretrain -> snapshot -> fine-tune -> evaluate.

Each stage reads/writes files under one output directory so stages can be
run (and re-run) independently:

    ensemble_seed<N>.ckpt          posterior snapshots, one file per seed
    pretrain_log_seed<N>.tsv       step, lr, loss, noise_active
    member_seed<N>_f<F>_snap<S>.ckpt   fine-tuned head + its snapshot's CRC (or trained encoder)
    finetune_log_seed<N>_f<F>.tsv  snapshot, epoch, loss
    eval_results.tsv / ood_results.tsv / *_hist_*.tsv

Baseline methods are config variants of the sampler kind, not code forks.
Everything is deterministic given config + seeds, and the same at any CPU
count.  With two or more CPUs, each seed's pretraining computes one
direction of the twin loss in a forked helper process, with the bits of
computing both here; each seed's fine-tuning fits a share of its (label
fraction, snapshot range) units in a forked child, which writes the member
files a fit here would and their losses into shared memory, from which
this process writes the logs; and eval and ood forward each seed's later
snapshots in a forked child, which writes their softmax into shared
memory (helper.py).
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from . import config as cfgmod
from . import helper as helpermod
from .data import (Dataset, augment_pair, load_dataset, make_clusters, make_ood,
                   minibatch_keys, minibatches)
from .diagnostics import ChainStats, run_chain
from .errors import CheckpointError, DataError, DivergenceError, HelperError
from .finetune import finetune, split_members, subset_labels
from .metrics import (accuracy, aggregate_seeds, auroc, entropy_histogram, nll,
                      write_histogram, write_table)
from .model import ema_update, init_twin, mlp_arrays
from .params import ParamVector
from .posterior import (PosteriorEnsemble, bma_predict, collect, load_ensemble, load_member,
                        predictive_entropy, recent_mean, save_ensemble, save_member)
from .sampler import (cyclic_lr, diverged, divergence_error, make_state, noise_active,
                      posterior_grad, sghmc_step, sgld_step, should_yield)


def make_datasets(cfg: cfgmod.RunConfig) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """(pretrain, train, test, ood).  All in-distribution splits are slices
    of one generated cluster sample, so they share means and mixing layer.
    With data.file_prefix set, the four splits load from dataset files,
    which must all have the pretrain file's width; train and test must be
    labeled, with labels below data.classes.  Every split must have rows."""
    d = cfg.data
    tags = ("pretrain", "train", "test", "ood")
    if d.file_prefix:
        splits = tuple(load_dataset(f"{d.file_prefix}_{tag}") for tag in tags)
        for tag, ds in zip(tags, splits):
            stem = f"{d.file_prefix}_{tag}"
            if ds.n == 0:
                raise DataError(f"{stem}.txt: the {tag} split has no rows")
            if ds.input_dim != splits[0].input_dim:
                raise DataError(f"{stem}.bin: rows have width {ds.input_dim}, "
                                f"{d.file_prefix}_pretrain.bin's have {splits[0].input_dim}")
            if tag in ("train", "test") and ds.y is None:
                raise DataError(f"{stem}.txt: labeled = 0, but the {tag} split needs labels")
            if tag in ("train", "test") and ds.y.max() >= d.classes:
                row = int(np.argmax(ds.y >= d.classes))
                raise DataError(f"{stem}.bin: the label of row {row}, {int(ds.y[row])}, "
                                f"is not below data.classes = {d.classes}")
        return splits
    for tag in tags[:3]:
        if getattr(d, f"per_class_{tag}") == 0:
            raise DataError(f"the {tag} split has no rows")
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


def _pretrained_ensemble(out_dir: str, seed: int, width: int) -> PosteriorEnsemble:
    """The seed's ensemble; a CheckpointError if it is missing, holds no
    snapshot, or its encoders take rows of another width than the data's."""
    ensemble = load_ensemble(ensemble_path(out_dir, seed))
    if not ensemble.size:
        raise CheckpointError(f"{ensemble.path}: the ensemble has no snapshots")
    rows = ensemble.snapshots[0].encoder_params["layer0.w"].shape[0]
    if rows != width:
        raise CheckpointError(f"{ensemble.path}: its encoders take rows of width {rows}, "
                              f"the data's rows have width {width}")
    return ensemble


def member_path(out_dir: str, seed: int, frac: float, snap: int) -> str:
    return os.path.join(out_dir, f"member_seed{seed}_f{cfgmod.frac_tag(frac)}_snap{snap}.ckpt")


def _step_state(lr: float, noise_on: bool) -> str:
    return f"lr {lr:.6g}, noise {'on' if noise_on else 'off'}"


def _pretrain_views(x: np.ndarray, batch: int, epoch_keys: np.ndarray,
                    data: cfgmod.DataSection, aug_rng: np.random.Generator):
    """Yields every step's (view_a, view_b), epoch by epoch, for as many
    epochs as epoch_keys holds keys."""
    for epoch in range(epoch_keys.shape[1]):
        for (idx,) in minibatches(len(x), batch, epoch_keys[:, epoch]):
            yield augment_pair(x[idx], data, aug_rng)


def run_pretrain(cfg: cfgmod.RunConfig, seed: int, out_dir: str) -> PosteriorEnsemble:
    """One training run of the snapshot-collecting loop for one seed.  With
    two or more CPUs it forks one helper process for the run (helper.py),
    which draws and augments every step's views while this process runs
    the step before's update, and reaps it before writing any file;
    without one, each step draws its views here."""
    pretrain, _, _, _ = make_datasets(cfg)
    n = pretrain.n  # the rows loaded, whatever their source
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
    views = itertools.islice(_pretrain_views(pretrain.x, s.batch, epoch_keys, cfg.data, aug_rng),
                             s.total_steps)
    with helpermod.direction_helper(model, min(s.batch, n), views) as helper:
        for k in range(s.total_steps):
            try:
                view_a, view_b = next(views) if helper is None else helper.views()
                grad_u, loss = posterior_grad(model, view_a, view_b, s, n, helper)
            except HelperError as exc:
                raise HelperError(exc.detail, step=k) from exc
            lr = cyclic_lr(s, k)
            on = noise_active(s, k)
            new_flat = step_fn(model.online, state, grad_u, lr, s, n, noise_on=on)
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
    """Fine-tune every snapshot of this seed's ensemble at every label
    fraction.  With two or more CPUs, a forked child fits one share of the
    (label fraction, snapshot range) units (split_members) while this
    process fits the other (helper.run_split); run alone, this process
    fits each fraction as one unit.  Each process writes its own units'
    member files and their per-epoch losses into one shared (fractions,
    snapshots, epochs) array, from which this process writes every
    fraction's log once the child is reaped."""
    _, train, _, _ = make_datasets(cfg)
    ensemble = _pretrained_ensemble(out_dir, seed, train.input_dim)
    f = cfg.finetune
    fracs = f.label_fractions
    digest = cfg.digest()
    subsets = [subset_labels(train, frac, seed=cfg.data.seed + seed) for frac in fracs]
    losses = helpermod.shared_array((len(fracs), ensemble.size, f.epochs))

    def fit(units: list[tuple[int, int, int]]) -> None:
        # one call per fraction: a process's units of one fraction are adjacent ranges
        for frac_idx, group in itertools.groupby(units, key=lambda unit: unit[0]):
            group = list(group)
            snaps = range(group[0][1], group[-1][2])
            frac = fracs[frac_idx]
            member_seeds = [(seed * 1009 + s) * 1009 + frac_idx for s in snaps]
            fitted = finetune([ensemble.snapshots[s] for s in snaps], subsets[frac_idx], f,
                              member_seeds, cfg.model, num_classes=cfg.data.classes)
            for s, (encoder, head, log) in zip(snaps, fitted):
                snap = ensemble.snapshots[s]
                meta = {"seed": seed, "label_fraction": frac, "snapshot": s,
                        "step": snap.step, "cycle": snap.cycle,
                        "sampler_kind": ensemble.run_meta.get("sampler_kind", ""),
                        "config_digest": digest,
                        "freeze_encoder": f.freeze_encoder}
                save_member(member_path(out_dir, seed, frac, s), encoder, head, meta,
                            snap.encoder_params)
                losses[frac_idx, s] = log

    mine, theirs = split_members([-(-subset.n // f.batch) for subset in subsets], ensemble.size)
    named = [str(fracs[i]) if (start, end) == (0, ensemble.size) else
             f"{fracs[i]} at snapshots {start}-{end - 1}" for i, start, end in theirs]
    helpermod.run_split(f"the fine-tuning child of seed {seed} (label fractions "
                        f"{', '.join(named)})", fit, mine, theirs)
    for frac_idx, frac in enumerate(fracs):
        write_table(os.path.join(out_dir, f"finetune_log_seed{seed}_f{cfgmod.frac_tag(frac)}.tsv"),
                    ["snapshot", "epoch", "loss"],
                    [(s, e, v) for s, log in enumerate(losses[frac_idx].tolist())
                     for e, v in enumerate(log)])


def _sweep(cfg: cfgmod.RunConfig, out_dir: str, seed: int, fracs: tuple[float, ...],
           xs: list[np.ndarray]):
    """Yields (frac, k, [BMA of the k most recent members on x for each x in
    xs]) for each fraction in fracs and k = 1..size (the seed's snapshot
    count), fraction by fraction, loading the ensemble and each member once.
    Members of one snapshot that share its encoder object (all under linear
    evaluation) form a group, whose heads are stacked as weight (G, D, C)
    and bias (G, 1, C): one bma_predict call per group and input runs the
    encoder once and gives each member's softmax, bit for bit as its own.

    This process does so for snapshots 0 .. ceil(size/2) - 1 and a forked
    child for the rest (helper.run_split), each into one shared mmap per
    input, (size, fractions, rows, data.classes), through layer buffers
    reused by every forward.  It only loads and forwards: load_member
    refuses a member that does not fit its snapshot or data.classes.  The
    child is reaped before the first yield."""
    ensemble = _pretrained_ensemble(out_dir, seed, xs[0].shape[1])
    size = ensemble.size
    probs = [helpermod.shared_array((size, len(fracs), len(x), cfg.data.classes)) for x in xs]

    def forward(snapshots: list[int]) -> None:
        buffers: dict[int, list[np.ndarray]] = {}  # layer outputs by row count
        for s in snapshots:
            members = [load_member(member_path(out_dir, seed, frac, s), ensemble,
                                   cfg.data.classes)[:2] for frac in fracs]
            by_encoder: dict[int, list[int]] = {}
            for i, (encoder, _) in enumerate(members):
                by_encoder.setdefault(id(encoder), []).append(i)
            for idx in by_encoder.values():
                encoder, heads = members[idx[0]][0], [members[i][1] for i in idx]
                head = ParamVector({
                    "weight": np.stack([h["weight"].values for h in heads]),
                    "bias": np.stack([h["bias"].values[None, :] for h in heads])})
                for x, p in zip(xs, probs):
                    if len(x) not in buffers:  # after the fork: less RSS
                        buffers[len(x)] = [np.empty((len(x), w.shape[1]))
                                           for w, _ in mlp_arrays(encoder)]
                    p[s, idx] = bma_predict([(encoder, head)], x, cfg.model,
                                            out=buffers[len(x)])

    mine, theirs = list(range(-(-size // 2))), list(range(-(-size // 2), size))
    helpermod.run_split(f"the sweep child of seed {seed} (snapshots {', '.join(map(str, theirs))})",
                        forward, mine, theirs)
    for i, frac in enumerate(fracs):
        for k in range(1, size + 1):
            yield frac, k, [recent_mean(list(p[:, i]), k) for p in probs]


def run_eval(cfg: cfgmod.RunConfig, out_dir: str) -> list[tuple]:
    """ACC/NLL for the single-snapshot model and for all ensemble prefix
    sizes (most recent snapshots first), aggregated over seeds.  One sweep
    per seed covers every label fraction, and each (fraction, k) cell
    collects its values in seed order."""
    _, _, test, _ = make_datasets(cfg)
    digest = cfg.digest()
    fracs = cfg.finetune.label_fractions
    per_cell: dict[tuple[float, int], list[tuple[float, float]]] = {}
    for seed in cfg.run.seeds:
        for frac, k, (probs,) in _sweep(cfg, out_dir, seed, fracs, [test.x]):
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
    frac = max(cfg.finetune.label_fractions)
    digest = cfg.digest()
    kind, score = cfg.sampler.kind, cfg.eval.score
    ln_c = float(np.log(cfg.data.classes))

    per_k: dict[int, dict[str, list]] = {}
    for seed in cfg.run.seeds:
        sweep = _sweep(cfg, out_dir, seed, (frac,), [test.x, ood.x])
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


def default_burn_in(steps: int) -> int:
    """sample-diag's burn-in when none is given: 5% of steps, at least 1,
    but leaving 2 samples where steps allows."""
    return max(0, min(max(1, steps // 20), steps - 2))


def run_sample_diag(cfg: cfgmod.RunConfig, out_dir: str, steps: int = 200_000,
                    burn_in: int | None = None, dim: int = 1) -> ChainStats:
    """Run the configured sampler (run_chain: every step at lr0, with noise)
    for steps steps from the first run seed against the unit quadratic and
    emit the chain moments next to their analytic values, the [sampler]
    temperature.  run_chain's ConfigErrors, a noiseless kind among them,
    are raised before anything is written."""
    if burn_in is None:
        burn_in = default_burn_in(steps)
    stats = run_chain(cfg.sampler, dim, steps, burn_in, cfg.run.seeds[0])
    digest = cfg.digest()
    rows = [(i, float(stats.mean[i]), float(stats.variance[i]), cfg.sampler.temperature,
             float(stats.lag1_autocorr[i]), digest)
            for i in range(dim)]
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "chain_stats.tsv"),
                ["coordinate", "mean", "variance", "analytic_variance",
                 "lag1_autocorr", "config_digest"], rows)
    return stats
