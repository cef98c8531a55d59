import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_config import FLOAT_KEYS
from test_helper import assert_no_child_process

from mcbyol import cli, config, diagnostics, helper, model, pipeline, posterior
from mcbyol.errors import ConfigError, DivergenceError
from mcbyol.sampler import DIVERGENCE_LIMIT

TINY_CONFIG = """
[data]
classes = 3
per_class_pretrain = 40
per_class_train = 30
per_class_test = 30
input_dim = 6
separation = 4.0

[model]
encoder_hidden = 8,8
embed_dim = 5
proj_hidden = 6
proj_dim = 4
pred_hidden = 6

[sampler]
kind = csghmc
lr0 = 0.0005
cycle_len = 10
total_steps = 40
batch = 32

[finetune]
epochs = 5
label_fractions = 1.0,0.5

[run]
seeds = 0,1
"""


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def digest_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_all(cfg_path, out_dir):
    for cmd in ("pretrain", "finetune", "eval", "ood"):
        rc = cli.main([cmd, "--config", cfg_path, "--out", out_dir])
        assert rc == 0, cmd
    return out_dir


def test_full_pipeline_writes_expected_files(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    run_all(cfg_path, out)
    names = set(os.listdir(out))
    for seed in (0, 1):
        assert f"ensemble_seed{seed}.ckpt" in names
        assert f"pretrain_log_seed{seed}.tsv" in names
        for frac in ("1", "0p5"):
            for snap in range(4):
                assert f"member_seed{seed}_f{frac}_snap{snap}.ckpt" in names
    assert "eval_results.tsv" in names
    assert "ood_results.tsv" in names
    assert any(n.startswith("ood_hist_csghmc_k") for n in names)


def test_pretrain_log_format(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    lines = Path(out, "pretrain_log_seed0.tsv").read_text().splitlines()
    assert lines[0] == "step\tlr\tloss\tnoise_active"
    assert len(lines) == 41  # header + one row per step
    first = lines[1].split("\t")
    assert first[0] == "0" and first[3] in ("0", "1")


def test_eval_table_names_config_digest(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    run_all(cfg_path, out)
    cfg = config.load(cfg_path)
    rows = Path(out, "eval_results.tsv").read_text().splitlines()
    header = rows[0].split("\t")
    assert "config_digest" in header
    idx = header.index("config_digest")
    assert all(line.split("\t")[idx] == cfg.digest() for line in rows[1:])


def test_eval_single_mode_equals_bma_prefix_one(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    run_all(cfg_path, out)
    rows = [line.split("\t") for line in
            Path(out, "eval_results.tsv").read_text().splitlines()[1:]]
    by_key = {(r[1], r[2], r[3]): (r[4], r[6]) for r in rows}
    for frac in ("1", "0.5"):
        assert by_key[("single", frac, "1")] == by_key[("bma", frac, "1")]


def test_repeated_run_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    out_a = run_all(cfg_path, str(tmp_path / "a"))
    out_b = run_all(cfg_path, str(tmp_path / "b"))
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert digest_of(os.path.join(out_a, name)) == digest_of(os.path.join(out_b, name)), name


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out, "--seed", "7"]) == 0
    assert os.path.exists(os.path.join(out, "ensemble_seed7.ckpt"))
    assert not os.path.exists(os.path.join(out, "ensemble_seed0.ckpt"))


def test_map_sgd_two_cycles_yields_two_snapshots_and_loss_trends_down(tmp_path):
    text = TINY_CONFIG.replace("kind = csghmc", "kind = map_sgd") \
                      .replace("total_steps = 40", "total_steps = 80") \
                      .replace("cycle_len = 10", "cycle_len = 40")
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    from mcbyol.posterior import load_ensemble
    ens = load_ensemble(os.path.join(out, "ensemble_seed0.ckpt"))
    assert ens.size == 2
    losses = [float(line.split("\t")[2]) for line in
              Path(out, "pretrain_log_seed0.tsv").read_text().splitlines()[1:]]
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_label_fraction_sweep_produces_one_member_set_per_fraction(tmp_path):
    text = TINY_CONFIG.replace("label_fractions = 1.0,0.5",
                               "label_fractions = 1.0,0.5,0.25,0.1")
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out, "--seed", "0"]) == 0
    assert cli.main(["finetune", "--config", cfg_path, "--out", out, "--seed", "0"]) == 0
    for tag in ("1", "0p5", "0p25", "0p1"):
        members = [n for n in os.listdir(out) if n.startswith(f"member_seed0_f{tag}_")]
        assert len(members) == 4, tag


def test_eval_loads_each_ensemble_once(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    for cmd in ("pretrain", "finetune"):
        assert cli.main([cmd, "--config", cfg_path, "--out", out]) == 0
    loaded, read_container = [], posterior.read_container

    def counting_load(path, **kwargs):
        loaded.append(os.path.basename(path))
        return read_container(path, **kwargs)

    monkeypatch.setattr(posterior, "read_container", counting_load)
    pipeline.run_eval(config.load(cfg_path), out)  # two seeds x two label fractions
    ensembles = [name for name in loaded if name.startswith("ensemble_")]
    assert sorted(ensembles) == ["ensemble_seed0.ckpt", "ensemble_seed1.ckpt"]


def test_frozen_finetune_member_encoder_equals_snapshot(tmp_path):
    # default finetune mode is linear evaluation, so a member stores no
    # encoder: it loads as the pretraining snapshot's own
    from mcbyol.posterior import load_ensemble, load_member, read_container
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["finetune", "--config", cfg_path, "--out", out]) == 0
    ens = load_ensemble(os.path.join(out, "ensemble_seed0.ckpt"))
    for snap_idx in range(ens.size):
        path = os.path.join(out, f"member_seed0_f1_snap{snap_idx}.ckpt")
        enc, head, meta = load_member(path, ens, 3)
        assert meta["freeze_encoder"] is True
        assert enc is ens.snapshots[snap_idx].encoder_params
        header, payload = read_container(path)
        assert [(b["name"], bool(b["segments"])) for b in header["blocks"]] == \
            [("encoder", False), ("head", True)]
        assert np.array_equal(payload, head.flatten())  # the head alone


def test_datasets_loadable_from_files(tmp_path):
    # persist the generated splits, then run the pipeline from the files
    from mcbyol import pipeline
    from mcbyol.data import save_dataset
    cfg_path = write_config(tmp_path)
    cfg = config.load(cfg_path)
    splits = pipeline.make_datasets(cfg)
    prefix = str(tmp_path / "ds")
    for tag, ds in zip(("pretrain", "train", "test", "ood"), splits):
        save_dataset(ds, f"{prefix}_{tag}")
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, file_prefix=prefix))
    reloaded = pipeline.make_datasets(cfg)
    for orig, back in zip(splits, reloaded):
        assert np.array_equal(orig.x, back.x)
        assert (orig.y is None) == (back.y is None)
        if orig.y is not None:
            assert np.array_equal(orig.y, back.y)


def test_file_dataset_pretrain_scales_by_loaded_rows(tmp_path):
    # the posterior gradient's n is the pretrain file's row count, whatever
    # classes * per_class_pretrain says
    from mcbyol.data import save_dataset
    cfg_path = write_config(tmp_path)
    cfg = config.load(cfg_path)
    prefix = str(tmp_path / "ds")
    for tag, ds in zip(("pretrain", "train", "test", "ood"), pipeline.make_datasets(cfg)):
        save_dataset(ds, f"{prefix}_{tag}")
    # 12 rows by the config, 120 in the file
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, file_prefix=prefix,
                                                            per_class_pretrain=4))
    from_file = pipeline.run_pretrain(cfg, 0, str(tmp_path / "file"))
    assert from_file.run_meta["n_dataset"] == 120
    generated = pipeline.run_pretrain(config.load(cfg_path), 0, str(tmp_path / "generated"))
    assert generated.run_meta["n_dataset"] == 120
    for a, b in zip(generated.snapshots, from_file.snapshots, strict=True):
        assert np.array_equal(a.encoder_params.flatten(), b.encoder_params.flatten())


DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def save_splits(cfg_path, prefix):
    """The four generated splits of cfg_path as <prefix>_<split> dataset files."""
    from mcbyol.data import save_dataset
    for tag, ds in zip(("pretrain", "train", "test", "ood"),
                       pipeline.make_datasets(config.load(cfg_path))):
        save_dataset(ds, f"{prefix}_{tag}")


def test_model_input_width_comes_from_the_dataset_files(tmp_path):
    # TINY_CONFIG's rows are 6 wide; default.cfg says input_dim = 10
    from mcbyol.posterior import load_ensemble
    prefix = tmp_path / "ds"
    save_splits(write_config(tmp_path), prefix)
    cfg_path = write_config(tmp_path, DEFAULT_CFG.read_text().replace(
        "file_prefix = ", f"file_prefix = {prefix}"))
    out = tmp_path / "out"
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 0
    (snap, *_) = load_ensemble(str(out / "ensemble_seed0.ckpt")).snapshots
    assert snap.encoder_params["layer0.w"].shape[0] == 6


def test_split_of_another_width_is_data_error(tmp_path, capsys):
    from mcbyol.data import Dataset, save_dataset
    prefix = tmp_path / "ds"
    save_splits(write_config(tmp_path), prefix)
    save_dataset(Dataset(x=np.zeros((5, 4)), y=np.zeros(5, dtype=np.int64)), f"{prefix}_test")
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("[model]",
                                                          f"file_prefix = {prefix}\n[model]"))
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "ds_test.bin: rows have width 4, " in err and "ds_pretrain.bin's have 6" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tag,defect", [("test", "unlabeled"), ("train", "unlabeled"),
                                        ("train", "fractional label"), ("test", "label 7"),
                                        ("train", "label 7"), ("test", "no rows"),
                                        ("train", "no rows"), ("ood", "no rows"),
                                        ("pretrain", "no rows")])
def test_unusable_labels_stop_every_stage_with_data_error(tmp_path, capsys, tag, defect):
    # the pretrain and ood splits may be unlabeled; train and test may not,
    # and their labels must lie below data.classes = 3; no split may be empty
    from mcbyol.data import Dataset, load_dataset, save_dataset
    prefix = tmp_path / "ds"
    save_splits(write_config(tmp_path), prefix)
    for unlabeled in ("pretrain", "ood"):
        save_dataset(Dataset(x=load_dataset(f"{prefix}_{unlabeled}").x, y=None),
                     f"{prefix}_{unlabeled}")
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace(
        "[model]", f"file_prefix = {prefix}\n[model]").replace("seeds = 0,1", "seeds = 0"))
    out = tmp_path / "out"
    run_all(cfg_path, str(out))
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    split = load_dataset(f"{prefix}_{tag}")
    if defect == "unlabeled":
        save_dataset(Dataset(x=split.x, y=None), f"{prefix}_{tag}")
        message = f"ds_{tag}.txt: labeled = 0, but the {tag} split needs labels"
    elif defect == "no rows":
        save_dataset(Dataset(x=split.x[:0], y=None if split.y is None else split.y[:0]),
                     f"{prefix}_{tag}")
        message = f"ds_{tag}.txt: the {tag} split has no rows"
    else:
        label = 1.5 if defect == "fractional label" else 7.0
        raw = np.fromfile(f"{prefix}_{tag}.bin", dtype="<f8")
        raw[split.x.size + 3] = label
        Path(f"{prefix}_{tag}.bin").write_bytes(raw.tobytes())
        message = (f"ds_{tag}.bin: the label of row 3, 1.5, is not a whole number >= 0"
                   if label == 1.5 else
                   f"ds_{tag}.bin: the label of row 3, 7, is not below data.classes = 3")
    for cmd in ("pretrain", "finetune", "eval", "ood"):
        assert cli.main([cmd, "--config", cfg_path, "--out", str(out)]) == 2, cmd
        assert message in capsys.readouterr().err, cmd
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_sample_diag_writes_chain_stats(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "diag")
    rc = cli.main(["sample-diag", "--config", cfg_path, "--out", out,
                   "--steps", "2000", "--burn-in", "200"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "chain_stats.tsv"))
    assert "variance" in capsys.readouterr().out


@pytest.mark.parametrize("steps,burn_in", [("1000", "-3"), ("2", "1")])
def test_sample_diag_rejects_bad_burn_in(tmp_path, capsys, steps, burn_in):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "diag")
    rc = cli.main(["sample-diag", "--config", cfg_path, "--out", out,
                   "--steps", steps, "--burn-in", burn_in])
    assert rc == 1
    assert capsys.readouterr().err == (f"config error: --burn-in must be >= 0 and leave 2 "
                                       f"of the {steps} steps, got {burn_in}\n")
    assert not os.path.exists(out)


def test_sample_diag_default_burn_in_leaves_two_samples(tmp_path, capsys):
    # the default burn-in is 5% of the steps and at least 1, but never more
    # than --steps 2 allows; --steps 1 cannot leave 2 samples at all
    cfg_path = write_config(tmp_path)
    out = tmp_path / "diag"
    assert cli.main(["sample-diag", "--config", cfg_path, "--out", str(out),
                     "--steps", "2"]) == 0
    assert (out / "chain_stats.tsv").exists()
    capsys.readouterr()
    out = tmp_path / "diag1"
    assert cli.main(["sample-diag", "--config", cfg_path, "--out", str(out),
                     "--steps", "1"]) == 1
    assert capsys.readouterr().err == ("config error: --burn-in must be >= 0 and leave 2 "
                                       "of the 1 steps, got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--steps", "--dim"])
def test_sample_diag_rejects_non_positive_flag(tmp_path, capsys, flag):
    out = tmp_path / "diag"
    assert cli.main(["sample-diag", "--config", write_config(tmp_path), "--out", str(out),
                     flag, "0"]) == 1
    err = capsys.readouterr().err
    assert f"{flag} must be >= 1" in err and "total_steps" not in err
    assert not out.exists()


def test_sample_diag_analytic_variance_is_the_sampler_temperature(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("lr0 = 0.0005",
                                                          "lr0 = 0.0005\ntemperature = 0.1"))
    out = tmp_path / "diag"
    assert cli.main(["sample-diag", "--config", cfg_path, "--out", str(out),
                     "--steps", "200", "--dim", "3"]) == 0
    header, *rows = (out / "chain_stats.tsv").read_text().splitlines()
    column = header.split("\t").index("analytic_variance")
    assert [float(row.split("\t")[column]) for row in rows] == [0.1, 0.1, 0.1]


@pytest.mark.parametrize("kind", ["map_sgd", "snap_sgd"])
def test_sample_diag_refuses_a_noiseless_kind(tmp_path, capsys, kind):
    # from theta = 0, where the gradient is 0, a noiseless chain never moves
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("kind = csghmc", f"kind = {kind}"))
    out = tmp_path / "diag"
    with pytest.raises(ConfigError, match=f"sampler.kind = {kind} injects no noise"):
        pipeline.run_sample_diag(config.load(cfg_path), str(out), steps=200)
    assert not out.exists()
    assert cli.main(["sample-diag", "--config", cfg_path, "--out", str(out),
                     "--steps", "200"]) == 1
    assert f"sampler.kind = {kind} injects no noise" in capsys.readouterr().err
    assert not out.exists()


MAXRSS_RUN = """
import resource, sys
from mcbyol import cli
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_sample_diag_memory_does_not_grow_with_steps(tmp_path):
    # the whole trajectory would add 8 B per step and coordinate: 25.6 MB here
    env = dict(os.environ, PYTHONPATH=str(DEFAULT_CFG.parents[1] / "src"))
    peaks_kb = []
    for steps in (10_000, 60_000):
        proc = subprocess.run([sys.executable, "-c", MAXRSS_RUN, "sample-diag", "--config",
                               str(DEFAULT_CFG), "--out", str(tmp_path / str(steps)),
                               "--steps", str(steps), "--dim", "64"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks_kb.append(int(proc.stdout.splitlines()[-1]))
    assert abs(peaks_kb[1] - peaks_kb[0]) <= 4 * 1024


def diag_lines(stats):
    return "".join(f"coord {i}: mean {stats.mean[i]:+.6f} variance {stats.variance[i]:.6f} "
                   f"lag1 {stats.lag1_autocorr[i]:.4f}\n" for i in range(stats.mean.size))


def test_sample_diag_warns_on_stderr_when_lag1_leaves_too_few_samples(tmp_path, capsys):
    # default.cfg's lr0 = 1e-4 mixes far too slowly for 20,000 steps
    cfg = config.load(str(DEFAULT_CFG))
    stats = pipeline.run_sample_diag(cfg, str(tmp_path / "lib"), steps=20_000)
    assert capsys.readouterr() == ("", "")  # the library call stays silent
    out = tmp_path / "diag"
    assert cli.main(["sample-diag", "--config", str(DEFAULT_CFG), "--out", str(out),
                     "--steps", "20000"]) == 0
    printed = capsys.readouterr()
    assert printed.out == diag_lines(stats)
    (ess,) = diagnostics.lag1_effective_samples(stats)
    assert ess < 1
    assert printed.err == (f"warning: coord 0: lag1 1.0000 leaves about {ess:.1f} effective "
                           f"samples of 19000, below 100: too few to trust its mean and "
                           f"variance\n")
    name = "chain_stats.tsv"
    assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.parametrize("kind", ["sgld", "sghmc"])
def test_sample_diag_at_a_diagnostics_rate_does_not_warn(tmp_path, capsys, kind):
    # lag-1 estimates of about 460 (sgld) and 250 (sghmc, beta = 0.9) samples
    cfg_path = write_config(tmp_path, DEFAULT_CFG.read_text().replace(
        "kind = csghmc", f"kind = {kind}").replace("lr0 = 0.0001", "lr0 = 0.01"))
    assert config.load(cfg_path).sampler.beta == 0.9
    assert cli.main(["sample-diag", "--config", cfg_path, "--out", str(tmp_path / "diag")]) == 0
    assert capsys.readouterr().err == ""


# (kind, beta, temperature, dim): criterion 03's six chains, then a 3-D one
DIAG_GOLDEN_SHA256 = {
    ("sgld", 0.0, 1.0, 1): "e5069fdb3ff6ee2801280f4643dfd45b6db9d1197e54cbb65bc453e20f90ac3e",
    ("sgld", 0.0, 0.1, 1): "d311eb057514337515970469225d91ab8484cbb47b38eb57ed70c534ba6fed02",
    ("sghmc", 0.0, 1.0, 1): "8c2186f4e5b9c0961fb510fdb4cb9f50c306a9d6581f4e15bceb231011375b2c",
    ("sghmc", 0.0, 0.1, 1): "ce3fbac18380522b441ed3b3f63c317feb825617fa5e946b9f89de2f3ddc29e2",
    ("sghmc", 0.9, 1.0, 1): "ea7148a52a76c7eaa8c6806318841081248a923660f6d3d983aa84fa563821c5",
    ("sghmc", 0.9, 0.1, 1): "6afc919198b0fa891696a4732b917f014475730357accef551c592da7eb1054c",
    ("sghmc", 0.9, 0.1, 3): "824d9e609101178f54a1caee689983b0ee5c4a374c4a329616385261ca43c795",
}


@pytest.mark.parametrize("kind,beta,temperature,dim", sorted(DIAG_GOLDEN_SHA256))
def test_sample_diag_matches_golden_digests(tmp_path, kind, beta, temperature, dim):
    """default.cfg's sample-diag at lr0 = 0.01 for 20,000 steps writes a
    chain_stats.tsv with these sha256 digests, under the same terms as
    test_acceptance.GOLDEN_SHA256: they pin numpy 2.4 with single-thread
    OpenBLAS 0.3.31, and on another build they are re-recorded from an
    unchanged checkout, not adjusted to a change."""
    cfg = config.load(str(DEFAULT_CFG))
    cfg = dataclasses.replace(cfg, sampler=dataclasses.replace(
        cfg.sampler, kind=kind, beta=beta, temperature=temperature, lr0=0.01))
    pipeline.run_sample_diag(cfg, str(tmp_path), steps=20_000, dim=dim)
    golden = DIAG_GOLDEN_SHA256[(kind, beta, temperature, dim)]
    assert digest_of(tmp_path / "chain_stats.tsv") == golden


# ---- divergence reports -----------------------------------------------------


def pretrain_with_grad(tmp_path, monkeypatch, edit):
    """run_pretrain, with a gradient helper process, with every posterior
    gradient passed through edit(grad, loss)."""
    real = pipeline.posterior_grad
    monkeypatch.setattr(pipeline, "posterior_grad",
                        lambda *args: edit(*real(*args)))
    monkeypatch.setattr(helper, "available_cpus", lambda: 2)
    cfg = config.load(write_config(tmp_path))
    with pytest.raises(DivergenceError) as err:
        pipeline.run_pretrain(cfg, 0, str(tmp_path / "o"))
    assert err.value.step == 0
    assert "lr 0.0005, noise off" in str(err.value)
    assert_no_child_process()
    return err.value


def test_divergence_reports_non_finite_loss(tmp_path, monkeypatch):
    err = pretrain_with_grad(tmp_path, monkeypatch, lambda g, loss: (g, float("nan")))
    assert err.quantity == "loss" and np.isnan(err.value)
    assert "non-finite loss" in str(err)


def test_divergence_reports_non_finite_parameter(tmp_path, monkeypatch):
    def edit(g, loss):
        g[5] = np.inf
        return g, loss
    err = pretrain_with_grad(tmp_path, monkeypatch, edit)
    assert (err.quantity, err.value) == ("theta[5]", -np.inf)
    assert "non-finite parameter" in str(err)


def test_divergence_reports_parameter_above_limit(tmp_path, monkeypatch):
    def edit(g, loss):
        g[7] = -1e12  # one step moves theta[7] by (lr / 2) * n * 1e12 = 3e10
        return g, loss
    err = pretrain_with_grad(tmp_path, monkeypatch, edit)
    assert err.quantity == "theta[7]"
    assert DIVERGENCE_LIMIT < err.value < np.inf
    assert "|theta| > 1e+06" in str(err)


# ---- exit codes -------------------------------------------------------------


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sampler]\nbogus_key = 1\n")
    assert cli.main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood"])
def test_empty_label_fractions_is_config_error(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("label_fractions = 1.0,0.5",
                                                          "label_fractions ="))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood"])
@pytest.mark.parametrize("old,new", [("label_fractions = 1.0,0.5", "label_fractions = 0.5,0.5"),
                                     ("seeds = 0,1", "seeds = 1,1")])
def test_repeated_list_value_is_config_error(tmp_path, capsys, command, old, new):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace(old, new))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood"])
def test_fractions_sharing_a_file_tag_is_config_error(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("label_fractions = 1.0,0.5",
                                                          "label_fractions = 0.1234567,0.1234568"))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "share the file tag '0p123457'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood"])
@pytest.mark.parametrize("old,new,message", [
    ("epochs = 5", "epochs = 5\nlr = -1", "finetune.lr must be non-negative"),
    ("separation = 4.0", "separation = 4.0\nmask_prob = 1.0", "data.mask_prob must lie in"),
    ("[run]", "[eval]\nbins = 0\n[run]", "eval.bins must be >= 1"),
    ("epochs = 5", "epochs = 5\nepochs = 6", "finetune.epochs is already set on line"),
    ("lr0 = 0.0005", "lr0 = -1", "sampler.lr0 must be positive"),
    ("batch = 32", "batch = 0", "sampler.batch must be >= 1"),
    ("kind = csghmc", "kind = adam", "unknown sampler.kind 'adam'"),
    ("pred_hidden = 6", "pred_hidden = 6\nactivation = sigmoid",
     "unknown model.activation 'sigmoid'"),
    ("pred_hidden = 6", "pred_hidden = 6\ntau = 1.5", "model.tau must lie in [0, 1]"),
    ("embed_dim = 5", "embed_dim = 0", "model.embed_dim must be >= 1"),
    ("input_dim = 6", "input_dim = 0", "data.input_dim must be >= 1"),
    ("per_class_pretrain = 40", "per_class_pretrain = -1", "data.per_class_pretrain must be >= 0"),
    ("per_class_train = 30", "per_class_train = -1", "data.per_class_train must be >= 0"),
    ("per_class_test = 30", "per_class_test = -1", "data.per_class_test must be >= 0"),
])
def test_bad_value_fails_at_load_for_every_stage(tmp_path, capsys, command, old, new, message):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace(old, new))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood", "sample-diag"])
def test_a_non_finite_float_is_config_error_for_every_stage(tmp_path, capsys, command):
    for section, key in FLOAT_KEYS:
        for value in ("nan", "inf", "-inf"):
            lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith(f"{key} =")]
            cfg_path = write_config(tmp_path, "\n".join(lines) + f"\n[{section}]\n{key} = {value}\n")
            assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
            assert f"({section}.{key}): not a finite number: '{value}'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new,message", [
    ("rows = 120", "rows = x1000", "ds_pretrain.txt: rows = 'x1000' is not a non-negative integer"),
    ("dim = 6\n", "", "ds_pretrain.txt: no 'dim' line"),
])
def test_malformed_dataset_header_is_data_error(tmp_path, capsys, old, new, message):
    prefix = tmp_path / "ds"
    save_splits(write_config(tmp_path), prefix)
    header = tmp_path / "ds_pretrain.txt"
    assert old in header.read_text()
    header.write_text(header.read_text().replace(old, new))
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("[model]",
                                                          f"file_prefix = {prefix}\n[model]"))
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ood"])
@pytest.mark.parametrize("tag", ["train", "test"])
def test_empty_generated_split_stops_every_stage(tmp_path, capsys, command, tag):
    # before any file is written, not when a later stage first reads the split
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace(f"per_class_{tag} = 30",
                                                          f"per_class_{tag} = 0"))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"the {tag} split has no rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_pretrain_split_is_data_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace("per_class_pretrain = 40",
                                                          "per_class_pretrain = 0"))
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "the pretrain split has no rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_code_missing_config_file(tmp_path):
    rc = cli.main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == 4


def test_exit_code_missing_ensemble(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli.main(["finetune", "--config", cfg_path, "--out", str(tmp_path / "empty")])
    assert rc == 4


@pytest.mark.parametrize("command", ["finetune", "eval", "ood"])
def test_a_seed_never_pretrained_names_its_missing_ensemble(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "o"
    out.mkdir()
    assert cli.main([command, "--config", cfg_path, "--out", str(out), "--seed", "7"]) == 4
    assert capsys.readouterr().err.strip() == \
        f"i/o error: missing ensemble checkpoint: {out / 'ensemble_seed7.ckpt'}"


@pytest.mark.parametrize("freeze", ["true", "false"])
@pytest.mark.parametrize("command", ["eval", "ood"])
def test_members_of_an_earlier_pretrain_are_an_io_error_naming_both_files(tmp_path, capsys,
                                                                         command, freeze):
    # pretrain is re-run under another config, finetune is not: the members
    # were fitted on the old snapshots, whether their encoders were frozen or trained
    out = tmp_path / "o"
    text = TINY_CONFIG.replace("epochs = 5", f"epochs = 5\nfreeze_encoder = {freeze}")
    first, second = write_config(tmp_path, text), str(tmp_path / "second.cfg")
    Path(second).write_text(text.replace("lr0 = 0.0005", "lr0 = 0.001"))
    for cmd, cfg_path in (("pretrain", first), ("finetune", first), ("pretrain", second)):
        assert cli.main([cmd, "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 0
    capsys.readouterr()
    for cfg_path in (first, second):
        assert cli.main([command, "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 4
        member, ensemble = out / "member_seed0_f1_snap0.ckpt", out / "ensemble_seed0.ckpt"
        assert capsys.readouterr().err == (
            f"i/o error: {member}: stale, not fitted on snapshot 0 of {ensemble}\n")
    assert not list(out.glob(f"{command}_results.tsv"))


@pytest.mark.parametrize("widths", [[6, 8, 8, 4], [6, 8, 7, 5]], ids=["embed", "hidden"])
def test_a_snapshot_laid_out_unlike_snapshot_0_is_an_io_error(tmp_path, capsys, widths):
    # snapshot 1 is re-saved with another encoder after finetune; the file's CRC holds
    cfg_path = write_config(tmp_path)
    out = tmp_path / "o"
    for cmd in ("pretrain", "finetune"):
        assert cli.main([cmd, "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 0
    path = out / "ensemble_seed0.ckpt"
    ens = posterior.load_ensemble(path)
    ens.snapshots[1].encoder_params = model.init_mlp(widths, np.random.default_rng(0))
    posterior.save_ensemble(ens, path)
    capsys.readouterr()
    for command in ("finetune", "eval", "ood"):
        assert cli.main([command, "--config", cfg_path, "--out", str(out), "--seed", "0"]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {path}: snapshot 1 is laid out unlike snapshot 0\n")
    assert not list(out.glob("*_results.tsv"))


def test_exit_code_divergence(tmp_path, monkeypatch):
    monkeypatch.setattr(helper, "available_cpus", lambda: 2)
    blowup = TINY_CONFIG.replace("lr0 = 0.0005", "lr0 = 50.0")
    cfg_path = write_config(tmp_path, blowup)
    rc = cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert_no_child_process()


def test_header_byte_flip_in_an_ensemble_is_an_io_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 0
    path = out / "ensemble_seed0.ckpt"
    raw = path.read_bytes()
    assert raw.count(b'"segments"') > 1
    path.write_bytes(raw.replace(b'"segments"', b'"segmfnts"', 1))
    capsys.readouterr()
    assert cli.main(["finetune", "--config", cfg_path, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "header corrupt" in err


def test_exit_code_bad_seed_override(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o"),
                   "--seed", "abc"])
    assert rc == 1


def test_a_repeated_seed_override_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out), "--seed", "3,3"]) == 1
    assert capsys.readouterr().err == "config error: run.seeds repeats 3\n"
    assert not out.exists()


def test_no_output_dir_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    assert cli.main(["pretrain", "--config", cfg_path]) == 1
