from pathlib import Path

import pytest

from mcbyol import config
from mcbyol.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_defaults_roundtrip():
    cfg = config.RunConfig()
    text = config.serialize(cfg)
    assert config.parse(text) == cfg


def test_roundtrip_preserves_overrides():
    text = """
[data]
classes = 6
separation = 2.5
[sampler]
kind = sgld
lr0 = 0.003
[run]
seeds = 5,6,7
"""
    cfg = config.parse(text)
    assert cfg.data.classes == 6
    assert cfg.sampler.kind == "sgld"
    assert cfg.run.seeds == [5, 6, 7]
    assert config.parse(config.serialize(cfg)) == cfg


def test_digest_changes_with_content():
    a = config.RunConfig()
    b = config.parse("[sampler]\nlr0 = 0.123\n")
    assert a.digest() != b.digest()
    assert len(a.digest()) == 12


def test_unknown_key_fails_fast():
    with pytest.raises(ConfigError):
        config.parse("[sampler]\nlearning_rate = 0.1\n")


def test_unknown_section_fails_fast():
    with pytest.raises(ConfigError):
        config.parse("[optimizer]\nlr0 = 0.1\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        config.parse("classes = 4\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError):
        config.parse("[data]\nclasses = four\n")
    with pytest.raises(ConfigError):
        config.parse("[finetune]\nfreeze_encoder = maybe\n")


def test_repeated_key_rejected_with_both_lines():
    text = "[sampler]\nlr0 = 0.1\n[data]\n[sampler]\nlr0 = 0.2\nlr0 = 0.3\n"
    with pytest.raises(ConfigError, match=r"line 5: sampler.lr0 is already set on line 2"):
        config.parse(text)
    # the same key name in two sections is two keys
    cfg = config.parse("[sampler]\nbatch = 1\n[finetune]\nbatch = 2\n")
    assert (cfg.sampler.batch, cfg.finetune.batch) == (1, 2)


@pytest.mark.parametrize("text,message", [
    ("[data]\nnoise_std = -0.1\n", "data.noise_std"),
    ("[data]\nmask_prob = 1.0\n", "data.mask_prob"),
    ("[data]\nscale_min = 0.0\n", "scale_min"),
    ("[data]\nscale_min = 1.3\n", "scale_min <= scale_max"),
    ("[finetune]\nlr = -1\n", "finetune.lr"),
    ("[finetune]\nmomentum = 1.0\n", "finetune.momentum"),
    ("[finetune]\nbatch = 0\n", "finetune.batch"),
    ("[finetune]\nepochs = -1\n", "finetune.epochs"),
    ("[eval]\nbins = 0\n", "eval.bins"),
    ("[sampler]\nlr0 = -1\n", "sampler.lr0"),
    ("[sampler]\nbatch = 0\n", "sampler.batch"),
    ("[sampler]\nkind = adam\n", "sampler.kind"),
    ("[model]\nactivation = sigmoid\n", "model.activation"),
    ("[model]\ntau = 1.5\n", "model.tau"),
    ("[model]\nembed_dim = 0\n", "model.embed_dim"),
    ("[data]\ninput_dim = 0\n", "data.input_dim"),
])
def test_out_of_range_values_fail_at_load(text, message):
    with pytest.raises(ConfigError, match=message):
        config.parse(text)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_are_canonical(path):
    # every key, in order, with its value as serialize writes it
    assert path.read_text() == config.serialize(config.load(path))


def test_comments_and_blank_lines_ignored():
    cfg = config.parse("# top comment\n\n[data]\nclasses = 5  # inline\n")
    assert cfg.data.classes == 5


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigError):
        config.parse("[run]\nseeds = \n")


def test_empty_label_fraction_list_rejected():
    with pytest.raises(ConfigError, match="label_fractions"):
        config.parse("[finetune]\nlabel_fractions = \n")


@pytest.mark.parametrize("text,repeated", [
    ("[finetune]\nlabel_fractions = 0.5,0.5\n", "label_fractions repeats 0.5"),
    ("[finetune]\nlabel_fractions = 1.0,0.25,1\n", "label_fractions repeats 1.0"),
    ("[run]\nseeds = 0,1,0\n", "seeds repeats 0"),
])
def test_repeated_list_value_rejected(text, repeated):
    with pytest.raises(ConfigError, match=repeated):
        config.parse(text)


@pytest.mark.parametrize("fractions,first,second,tag", [
    ("0.1234567,0.1234568", "0.1234567", "0.1234568", "0p123457"),
    ("1.0,0.5,0.50000001", "0.5", "0.50000001", "0p5"),
])
def test_fractions_sharing_a_file_tag_rejected(fractions, first, second, tag):
    with pytest.raises(ConfigError, match=f"{first} and {second} share the file tag '{tag}'"):
        config.parse(f"[finetune]\nlabel_fractions = {fractions}\n")
    assert config.parse("[finetune]\nlabel_fractions = 0.123457,0.12346\n")


def test_label_fraction_bounds_validated():
    with pytest.raises(ConfigError):
        config.parse("[finetune]\nlabel_fractions = 0.5,1.5\n")


def test_save_load_file(tmp_path):
    cfg = config.RunConfig()
    cfg.run.seeds = [9]
    path = tmp_path / "run.cfg"
    config.save(cfg, path)
    assert config.load(path) == cfg
