import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from test_helper import assert_no_child_process

from mcbyol import cli, config, helper, pipeline
from mcbyol.errors import DivergenceError
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
    loaded, read_container = [], pipeline.read_container

    def counting_load(path, **kwargs):
        loaded.append(os.path.basename(path))
        return read_container(path, **kwargs)

    monkeypatch.setattr(pipeline, "read_container", counting_load)
    pipeline.run_eval(config.load(cfg_path), out)  # two seeds x two label fractions
    assert sorted(loaded) == ["ensemble_seed0.ckpt", "ensemble_seed1.ckpt"]


def test_frozen_finetune_member_encoder_equals_snapshot(tmp_path):
    # default finetune mode is linear evaluation, so the stored member
    # encoder must be byte-identical to the pretraining snapshot
    from mcbyol.finetune import load_member
    from mcbyol.posterior import load_ensemble
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["finetune", "--config", cfg_path, "--out", out]) == 0
    ens = load_ensemble(os.path.join(out, "ensemble_seed0.ckpt"))
    for snap_idx in range(ens.size):
        enc, _, meta = load_member(os.path.join(out, f"member_seed0_f1_snap{snap_idx}.ckpt"))
        assert meta["freeze_encoder"] is True
        assert np.array_equal(enc.flatten(),
                              ens.snapshots[snap_idx].encoder_params.flatten())


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
    cfg.data.file_prefix = prefix
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
    cfg.data.file_prefix = prefix
    cfg.data.per_class_pretrain = 4  # 12 rows by the config, 120 in the file
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
                                        ("train", "fractional label")])
def test_unusable_labels_stop_every_stage_with_data_error(tmp_path, capsys, tag, defect):
    # the pretrain and ood splits may be unlabeled; train and test may not
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
    else:
        raw = np.fromfile(f"{prefix}_{tag}.bin", dtype="<f8")
        raw[split.x.size + 3] = 1.5
        Path(f"{prefix}_{tag}.bin").write_bytes(raw.tobytes())
        message = f"ds_{tag}.bin: the label of row 3, 1.5, is not a whole number >= 0"
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
def test_sample_diag_rejects_bad_burn_in(tmp_path, steps, burn_in):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "diag")
    rc = cli.main(["sample-diag", "--config", cfg_path, "--out", out,
                   "--steps", steps, "--burn-in", burn_in])
    assert rc == 1
    assert not os.path.exists(out)


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
])
def test_bad_value_fails_at_load_for_every_stage(tmp_path, capsys, command, old, new, message):
    cfg_path = write_config(tmp_path, TINY_CONFIG.replace(old, new))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
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


def test_no_output_dir_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    assert cli.main(["pretrain", "--config", cfg_path]) == 1
