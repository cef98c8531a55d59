import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from mcbyol import cli, config, pipeline
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
    loaded, load_ensemble = [], pipeline.load_ensemble

    def counting_load(path):
        loaded.append(os.path.basename(path))
        return load_ensemble(path)

    monkeypatch.setattr(pipeline, "load_ensemble", counting_load)
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
    assert not os.path.exists(os.path.join(out, "chain_stats.tsv"))


# ---- divergence reports -----------------------------------------------------


def pretrain_with_grad(tmp_path, monkeypatch, edit):
    """run_pretrain with every posterior gradient passed through edit(grad, loss)."""
    real = pipeline.posterior_grad
    monkeypatch.setattr(pipeline, "posterior_grad",
                        lambda *args: edit(*real(*args)))
    cfg = config.load(write_config(tmp_path))
    with pytest.raises(DivergenceError) as err:
        pipeline.run_pretrain(cfg, 0, str(tmp_path / "o"))
    assert err.value.step == 0
    assert "lr 0.0005, noise off" in str(err.value)
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


def test_exit_code_missing_config_file(tmp_path):
    rc = cli.main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == 4


def test_exit_code_missing_ensemble(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli.main(["finetune", "--config", cfg_path, "--out", str(tmp_path / "empty")])
    assert rc == 4


def test_exit_code_divergence(tmp_path):
    blowup = TINY_CONFIG.replace("lr0 = 0.0005", "lr0 = 50.0")
    cfg_path = write_config(tmp_path, blowup)
    rc = cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_exit_code_bad_seed_override(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o"),
                   "--seed", "abc"])
    assert rc == 1


def test_no_output_dir_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    assert cli.main(["pretrain", "--config", cfg_path]) == 1
