"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines;
tolerances are pinned here, not configurable.
"""

import copy
import hashlib
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from gradcheck import tape_online_grad
from test_helper import count_calls

from mcbyol import cli, config, helper, pipeline, posterior
from mcbyol.autodiff import Tape, Tensor
from mcbyol.config import ModelSection, SamplerSection
from mcbyol.diagnostics import run_chain
from mcbyol.metrics import accuracy, auroc, nll
from mcbyol.model import byol_loss_symmetrized, init_twin
from mcbyol.params import ParamVector
from mcbyol.posterior import (PosteriorEnsemble, bma_predict, collect, load_ensemble,
                              load_member, predictive_entropy, recent_mean)
from mcbyol.sampler import (cyclic_lr, make_state, noise_active, sghmc_step, sgld_step,
                            should_yield)


def sha256_of(out, name):
    return hashlib.sha256(Path(out, name).read_bytes()).hexdigest()


@contextmanager
def criterion(num, desc):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL - {desc}")
        raise
    print(f"[criterion {num:2d}] PASS - {desc} ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# shared toy pipeline: both method variants of the default config, 3 seeds
# ---------------------------------------------------------------------------


def _method_config(kind):
    return config.RunConfig(sampler=config.SamplerSection(kind=kind))


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    runs = {}
    for kind in ("map_sgd", "csghmc"):
        cfg = _method_config(kind)
        out = str(tmp_path_factory.mktemp(f"toy_{kind}"))
        for seed in cfg.run.seeds:
            pipeline.run_pretrain(cfg, seed, out)
            pipeline.run_finetune(cfg, seed, out)
        eval_rows = pipeline.run_eval(cfg, out)
        ood_rows = pipeline.run_ood(cfg, out)
        runs[kind] = {
            "cfg": cfg,
            "out": out,
            "eval": {(r[1], r[2], r[3]): {"acc": r[4], "nll": r[6]} for r in eval_rows},
            "ood": {r[1]: {"nll": r[2], "auroc": r[4],
                           "h_ood": r[6], "h_test": r[7]} for r in ood_rows},
        }
    return runs


def test_criterion_01_gradient_correctness():
    with criterion(1, "reverse-mode symmetrized-loss gradients vs central differences"):
        start = time.time()
        rng = np.random.default_rng(2024)
        h = 1e-5
        worst_vec = 0.0
        for seed in range(100):
            input_dim = int(rng.integers(2, 5))
            dims = dict(encoder_hidden=[int(rng.integers(2, 5))],
                        embed_dim=int(rng.integers(2, 4)),
                        proj_hidden=int(rng.integers(2, 4)),
                        proj_dim=2,
                        pred_hidden=int(rng.integers(2, 4)))
            arch = ModelSection(**dims)
            model = init_twin(arch, input_dim, seed)
            a = rng.normal(size=(3, input_dim))
            b = rng.normal(size=(3, input_dim))
            analytic = tape_online_grad(byol_loss_symmetrized, model, a, b)

            def loss_at(flat, model=model, a=a, b=b):
                probe = copy.deepcopy(model)
                probe.set_online_flat(flat)
                return float(byol_loss_symmetrized(Tape(), probe, a, b).values)

            x = model.online_flat()
            numeric = np.zeros_like(x)
            for i in range(x.size):
                orig = x[i]
                x[i] = orig + h
                fp = loss_at(x)
                x[i] = orig - h
                fm = loss_at(x)
                x[i] = orig
                numeric[i] = (fp - fm) / (2 * h)
            # whole-gradient relative error; the oracle's own noise floor
            # (~1e-11 absolute at h=1e-5) forbids per-coordinate claims for
            # coordinates below ~1e-6
            vec_rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
            worst_vec = max(worst_vec, vec_rel)
            mag = np.maximum(np.abs(analytic), np.abs(numeric))
            sound = mag >= 1e-6
            coord_rel = np.abs(analytic - numeric)[sound] / mag[sound]
            assert coord_rel.size == 0 or coord_rel.max() < 1e-4, f"seed {seed}"
        assert worst_vec < 1e-4, f"max relative error {worst_vec}"
        assert time.time() - start < 60.0


def test_criterion_02_loss_identities():
    with criterion(2, "squared-distance form equals 2 - 2 cosine; range and anchors"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            q = rng.normal(size=(1, d))
            y = rng.normal(size=(1, d))
            t = Tape()
            mse_form = float(t.mse(t.l2_normalize(Tensor(q)), t.l2_normalize(Tensor(y))).values)
            cos = float((q @ y.T).item()) / (np.linalg.norm(q) * np.linalg.norm(y))
            assert abs(mse_form - (2.0 - 2.0 * cos)) < 1e-9
            assert 0.0 <= mse_form <= 4.0 + 1e-12
        t = Tape()
        ortho = float(t.mse(t.l2_normalize(Tensor([[1.0, 0.0]])),
                            t.l2_normalize(Tensor([[0.0, 1.0]]))).values)
        anti = float(t.mse(t.l2_normalize(Tensor([[1.0, 0.0]])),
                           t.l2_normalize(Tensor([[-1.0, 0.0]]))).values)
        assert ortho == 2.0
        assert anti == 4.0


def test_criterion_03_sampler_stationary_variance():
    with criterion(3, "SGLD/SGHMC chains reproduce stationary variance T"):
        start = time.time()
        for kind, beta, tol in (("sgld", 0.0, 0.10), ("sghmc", 0.0, 0.10), ("sghmc", 0.9, 0.15)):
            for temp in (1.0, 0.1):
                cfg = SamplerSection(kind=kind, lr0=0.01, beta=beta, temperature=temp)
                stats = run_chain(cfg, 1, 200_000, burn_in=10_000, seed=42)
                rel = abs(stats.variance[0] - temp) / temp
                assert rel < tol, f"{kind} beta={beta} T={temp}: variance {stats.variance[0]}"
                assert abs(stats.mean[0]) < 0.05
        assert time.time() - start < 120.0


def test_criterion_04_reduction_exactness():
    with criterion(4, "SGHMC at beta=0 reproduces the SGLD trajectory bitwise"):
        cfg_l = SamplerSection(kind="sgld", lr0=0.01, beta=0.0, temperature=1.0,
                               cycle_len=1, total_steps=10_000,
                               noise_start_frac=0.0)
        cfg_h = SamplerSection(kind="sghmc", lr0=0.01, beta=0.0, temperature=1.0,
                               cycle_len=1, total_steps=10_000,
                               noise_start_frac=0.0)
        s_l, s_h = make_state(2, 314), make_state(2, 314)
        p_l = p_h = np.array([0.7, -0.3])
        for k in range(10_000):
            g_l, g_h = p_l.copy(), p_h.copy()  # unit quadratic gradient
            p_l = sgld_step(p_l, s_l, g_l, 0.01, cfg_l, 1, noise_on=True)
            p_h = sghmc_step(p_h, s_h, g_h, 0.01, cfg_h, 1, noise_on=True)
            assert np.array_equal(p_l, p_h), f"trajectories diverged at step {k}"


def test_criterion_05_algorithm_mechanics():
    with criterion(5, "cyclic schedule anchors, late-cycle noise gate, 4 snapshots"):
        cfg = SamplerSection(kind="csghmc", lr0=0.2, beta=0.9, temperature=0.1,
                             cycle_len=50, total_steps=200,
                             noise_start_frac=0.8)
        assert cyclic_lr(cfg, 0) == pytest.approx(0.2, abs=1e-15)
        assert cyclic_lr(cfg, 25) == pytest.approx(0.1, abs=1e-12)
        for k in range(150):
            assert cyclic_lr(cfg, k) == pytest.approx(cyclic_lr(cfg, k + 50), abs=1e-15)
        active = [k for k in range(50) if noise_active(cfg, k)]
        assert active == list(range(40, 50))  # noise from the 80% point onward
        yields = [k for k in range(200) if should_yield(cfg, k)]
        assert len(yields) == 4 and yields == [49, 99, 149, 199]


def test_criterion_06_marginalization_contract():
    with criterion(6, "BMA prefix-1 exactness, row sums, and the Jensen bound"):
        arch = ModelSection(encoder_hidden=[5], embed_dim=3,
                            proj_hidden=3, proj_dim=2, pred_hidden=3)
        rng = np.random.default_rng(12)
        ens = PosteriorEnsemble(run_meta={})
        members = []
        for i in range(4):
            m = init_twin(arch, 4, i)
            collect(ens, m, step=i, cycle=i, loss=0.0)
            head = ParamVector({"weight": Tensor(rng.normal(size=(3, 5))),
                                "bias": Tensor(rng.normal(size=(5,)))})
            members.append((ens.snapshots[-1].encoder_params, head))
        for batch in range(10):
            x = rng.normal(size=(int(rng.integers(1, 30)), 4))
            labels = rng.integers(0, 5, size=x.shape[0])
            single = bma_predict(members[-1:], x, arch)
            assert np.array_equal(bma_predict(members, x, arch, count=1), single)
            for count in (1, 2, 3, 4):
                probs = bma_predict(members, x, arch, count=count)
                assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
            bma = bma_predict(members, x, arch)
            member_nll = [nll(bma_predict(members[i:i + 1], x, arch), labels)
                          for i in range(4)]
            assert nll(bma, labels) <= np.mean(member_nll) + 1e-9


def test_criterion_07_bayes_beats_map_directionally(toy_runs):
    with criterion(7, "ensemble of posterior snapshots beats the MAP baseline"):
        start = time.time()
        cfg = toy_runs["csghmc"]["cfg"]
        assert cfg.data.classes == 4
        assert cfg.data.classes * cfg.data.per_class_pretrain == 2000
        assert cfg.finetune.label_fractions == (1.0, 0.25, 0.1)
        assert cfg.run.seeds == (0, 1, 2)
        for frac in (1.0, 0.25, 0.1):
            byol_nll = toy_runs["map_sgd"]["eval"][("single", frac, 1)]["nll"]
            ens_nll = toy_runs["csghmc"]["eval"][("bma", frac, 4)]["nll"]
            assert ens_nll <= byol_nll, (
                f"frac {frac}: ensemble NLL {ens_nll:.4f} > MAP NLL {byol_nll:.4f}")
            ens_acc = toy_runs["csghmc"]["eval"][("bma", frac, 4)]["acc"]
            single_acc = toy_runs["csghmc"]["eval"][("single", frac, 1)]["acc"]
            assert ens_acc >= single_acc - 0.01, (
                f"frac {frac}: ensemble acc {ens_acc:.4f} < single {single_acc:.4f} - 1pp")
        assert time.time() - start < 900.0


def test_criterion_08_ood_uncertainty_directional(toy_runs):
    with criterion(8, "OOD entropy exceeds in-distribution; AUROC grows with ensemble"):
        start = time.time()
        ood = toy_runs["csghmc"]["ood"]
        assert ood[4]["h_ood"] > ood[4]["h_test"]
        assert ood[4]["auroc"] >= ood[1]["auroc"]
        assert time.time() - start < 300.0


GOLDEN_SHA256 = {
    "ensemble_seed0.ckpt": "1d03379763c8eeab74df90ecaa148950431bc262c430c528e23fb4baaab0ead4",
    "member_seed0_f1_snap3.ckpt": "008ad5a3b7d4afec701435bb97a03a874dc219fa794ccc17bb6113ce50be1a2f",
    "finetune_log_seed0_f0p1.tsv": "ab12c16ae24860aa51265b0491898a62706fd3e04849a5581332c156ba620c47",
    "eval_results.tsv": "ffb72107fb8798c6bd373096e46bb971849a3f16629d4b266e9f9eccd22b9cfb",
    "ood_results.tsv": "7332aecf1b5efc1ac039f17317a56f24ea81c583b3e936e3435a1f1df8477c66",
    "ood_hist_csghmc_k4.tsv": "b68ec438d546c9ff579327ab205ace74689c2a21a235a85ef7461b603f9c20d1",
    "indist_hist_csghmc_k4.tsv": "a374d2ec838522f2f9c9b9c65e6339a973c75cecce049840a845e2da2e1158c3",
}


def test_default_csghmc_run_matches_golden_digests(toy_runs):
    """A refactor must leave every output byte-identical, so the default
    csghmc run's ensemble, one member, one fine-tune log, the eval and ood
    tables and the k = 4 entropy histograms keep these sha256 digests.  The
    digests pin this environment (numpy 2.4, single-thread OpenBLAS 0.3.31):
    another numpy or BLAS build may round differently, and then the digests
    are re-recorded from an unchanged checkout, not adjusted to a change."""
    out = toy_runs["csghmc"]["out"]
    got = {name: sha256_of(out, name) for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


SMALL_RUN = """
[data]
classes = 3
per_class_pretrain = 40
per_class_train = 30
per_class_test = 30
input_dim = 6
[model]
encoder_hidden = 8,8
embed_dim = 4
proj_hidden = 5
proj_dim = 3
pred_hidden = 5
activation = {activation}
[sampler]
cycle_len = 10
total_steps = 20
batch = 32
[finetune]
epochs = 4
label_fractions = 0.5
freeze_encoder = {freeze}
[run]
seeds = 0
"""

# the outputs of two small runs that the default run does not cover: joint
# fine-tuning of encoder and head with its eval and ood tables, and a relu
# network
SMALL_GOLDEN_SHA256 = {
    ("tanh", "false"): {
        "member_seed0_f0p5_snap1.ckpt":
            "c39016782e82572abe9e1a9c8544abbcc875f467c7d64ca3e5769c05334e922e",
        "finetune_log_seed0_f0p5.tsv":
            "ef3a17d55da9408a3c9bd10d093affc27afc27a5d454618df49a29a5e90d97a4",
        "eval_results.tsv":
            "7d24d06fb30b6ece726cdb538053826a9d6df689f5766d4642e4ecdabe17c0b9",
        "ood_results.tsv":
            "8cc8a033ea8f117b7a81332909b9208c10429dcb13305e73fcb721355d27db91",
    },
    ("relu", "true"): {
        "ensemble_seed0.ckpt":
            "60e220b48c5d3474686c5a4465ea700af84dc90b3d2e37442db0a7975a3ed682",
    },
}


@pytest.mark.parametrize("activation,freeze", sorted(SMALL_GOLDEN_SHA256))
def test_small_runs_match_golden_digests(tmp_path, activation, freeze):
    """Joint fine-tuning and relu networks keep these sha256 digests, under
    the same terms as GOLDEN_SHA256: they pin numpy 2.4 with single-thread
    OpenBLAS 0.3.31, and on another build they are re-recorded from an
    unchanged checkout, not adjusted to a change."""
    cfg = config.parse(SMALL_RUN.format(activation=activation, freeze=freeze))
    out = str(tmp_path)
    pipeline.run_pretrain(cfg, 0, out)
    if freeze == "false":
        pipeline.run_finetune(cfg, 0, out)
        pipeline.run_eval(cfg, out)
        pipeline.run_ood(cfg, out)
    golden = SMALL_GOLDEN_SHA256[(activation, freeze)]
    got = {name: sha256_of(out, name) for name in golden}
    assert got == golden


# two seeds of the small run, each with two snapshots, scoring OOD by
# 1 - max probability instead of predictive entropy
MAX_PROB_RUN = (SMALL_RUN.format(activation="tanh", freeze="true")
                .replace("seeds = 0", "seeds = 0,1") + "[eval]\nscore = max_prob\n")
MAX_PROB_OOD_SHA256 = "ff4d0186d0875feffb668e865de9cd20cd31ede98072b4fa904cbcb7e54c811b"


def test_max_prob_ood_auroc_equals_member_recomputation(tmp_path):
    """The AUROC column of a max_prob run is the seed mean of
    auroc(1 - max p_ood, 1 - max p_test), with each k's probabilities
    recomputed from the member files by bma_predict(count=k).  Its table
    keeps this sha256 digest, under the same terms as GOLDEN_SHA256."""
    cfg = config.parse(MAX_PROB_RUN)
    out = str(tmp_path)
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, out)
        pipeline.run_finetune(cfg, seed, out)
    rows = pipeline.run_ood(cfg, out)
    arch = cfg.model
    _, _, test, ood = pipeline.make_datasets(cfg)
    frac = max(cfg.finetune.label_fractions)
    by_score: dict[str, dict[int, list[float]]] = {"max_prob": {}, "entropy": {}}
    for seed in cfg.run.seeds:
        ensemble = load_ensemble(pipeline.ensemble_path(out, seed))
        members = [load_member(pipeline.member_path(out, seed, frac, s), ensemble,
                               cfg.data.classes)[:2] for s in range(2)]
        for k in (1, 2):
            p_test = bma_predict(members, test.x, arch, count=k)
            p_ood = bma_predict(members, ood.x, arch, count=k)
            by_score["max_prob"].setdefault(k, []).append(
                auroc(1 - p_ood.max(1), 1 - p_test.max(1)))
            by_score["entropy"].setdefault(k, []).append(
                auroc(predictive_entropy(p_ood), predictive_entropy(p_test)))
    assert [r[1] for r in rows] == [1, 2]
    for r in rows:
        assert r[4] == pytest.approx(np.mean(by_score["max_prob"][r[1]]), abs=1e-12)
    # the two scores rank this run differently, so the check above tells them apart
    assert any(by_score["max_prob"][k] != by_score["entropy"][k] for k in (1, 2))
    assert sha256_of(out, "ood_results.tsv") == MAX_PROB_OOD_SHA256


def per_member_sweep(cfg, out_dir, seed, fracs, xs):
    """Reference for pipeline._sweep: each (seed, fraction) group on its own,
    one bma_predict call per member and input, combined by recent_mean."""
    ensemble = load_ensemble(pipeline.ensemble_path(out_dir, seed))
    size = ensemble.size
    for frac in fracs:
        members = [load_member(pipeline.member_path(out_dir, seed, frac, s), ensemble,
                               cfg.data.classes)[:2] for s in range(size)]
        member_probs = [[bma_predict(members[i:i + 1], x, cfg.model) for i in range(size)]
                        for x in xs]
        for k in range(1, size + 1):
            yield frac, k, [recent_mean(probs, k) for probs in member_probs]


# two seeds, two snapshots per seed, two label fractions
SWEEP_RUN = (SMALL_RUN.replace("label_fractions = 0.5", "label_fractions = 1.0,0.5")
             .replace("seeds = 0", "seeds = 0,1"))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("freeze", ["true", "false"])
def test_eval_and_ood_equal_the_per_member_sweep(tmp_path, monkeypatch, freeze, cpus):
    """Members of one snapshot that share its encoder share one forward: a
    frozen run forwards each snapshot once per input, an unfrozen one each
    member, and both write the tables of the per-member sweep byte for byte.
    The forwards are counted through a file, so that those of the sweep's
    forked child count too."""
    cfg = config.parse(SWEEP_RUN.format(activation="tanh", freeze=freeze))
    out = str(tmp_path)
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, out)
        pipeline.run_finetune(cfg, seed, out)
    monkeypatch.setattr(helper, "available_cpus", lambda: cpus)
    forwards = count_calls(monkeypatch, tmp_path, "mlp_forward_np", owner=posterior)
    pipeline.run_eval(cfg, out)
    eval_forwards = forwards()
    pipeline.run_ood(cfg, out)
    ood_forwards = forwards() - eval_forwards
    names = ("eval_results.tsv", "ood_results.tsv")
    got = {name: Path(out, name).read_bytes() for name in names}

    snapshots = len(list(tmp_path.glob("member_seed*_f1_snap*.ckpt")))  # over both seeds
    assert snapshots == 2 * len(cfg.run.seeds)
    members = snapshots * len(cfg.finetune.label_fractions)
    assert eval_forwards == (snapshots if freeze == "true" else members)
    assert ood_forwards == 2 * snapshots  # one fraction, two inputs

    monkeypatch.setattr(pipeline, "_sweep", per_member_sweep)
    pipeline.run_eval(cfg, out)
    pipeline.run_ood(cfg, out)
    assert got == {name: Path(out, name).read_bytes() for name in names}


def test_criterion_09_metric_oracles():
    with criterion(9, "AUROC equals brute force; NLL/accuracy match naive recomputation"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_pos, n_neg = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            pos = np.round(rng.normal(size=n_pos), 1)
            neg = np.round(rng.normal(size=n_neg), 1)
            wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                       for p in pos for q in neg)
            assert auroc(pos, neg) == pytest.approx(wins / (n_pos * n_neg), abs=1e-12)
        for _ in range(50):
            n, c = int(rng.integers(1, 40)), int(rng.integers(2, 7))
            raw = rng.uniform(0.01, 1.0, size=(n, c))
            preds = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, c, size=n)
            naive_nll = -np.mean([np.log(max(preds[i, labels[i]], 1e-12)) for i in range(n)])
            naive_acc = np.mean([1.0 if int(np.argmax(preds[i])) == labels[i] else 0.0
                                 for i in range(n)])
            assert nll(preds, labels) == pytest.approx(naive_nll, abs=1e-12)
            assert accuracy(preds, labels) == pytest.approx(naive_acc, abs=1e-12)


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "fixed config + seeds reproduce byte-identical artifacts"):
        cfg_text = """
[data]
classes = 3
per_class_pretrain = 40
per_class_train = 30
per_class_test = 30
input_dim = 6
[model]
encoder_hidden = 8
embed_dim = 4
proj_hidden = 4
proj_dim = 3
pred_hidden = 4
[sampler]
cycle_len = 10
total_steps = 30
batch = 32
[finetune]
epochs = 4
label_fractions = 1.0
[run]
seeds = 0,1
"""
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg_text)
        digests = []
        for run_dir in ("first", "second"):
            out = str(tmp_path / run_dir)
            for cmd in ("pretrain", "finetune", "eval", "ood"):
                assert cli.main([cmd, "--config", str(cfg_path), "--out", out]) == 0
            digests.append({name: sha256_of(out, name) for name in sorted(os.listdir(out))})
        assert digests[0] == digests[1]
