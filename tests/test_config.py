import dataclasses
from pathlib import Path

import pytest

from mcbyol import config
from mcbyol.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (section, key) of every float and float-list key
FLOAT_KEYS = [(name, f.name) for name, cls in config.SECTIONS.items()
              for f in dataclasses.fields(cls) if "float" in str(f.type)]


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
    assert cfg.run.seeds == (5, 6, 7)
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
    # no cycle ends, so no snapshot would be collected (the default cycle_len is 50)
    ("[sampler]\ntotal_steps = 20\n", "sampler.total_steps = 20 is below sampler.cycle_len = 50"),
    ("[sampler]\ncycle_len = 10\ntotal_steps = 9\n", "total_steps = 9 is below sampler.cycle_len = 10"),
    ("[model]\nactivation = sigmoid\n", "model.activation"),
    ("[model]\ntau = 1.5\n", "model.tau"),
    ("[model]\nembed_dim = 0\n", "model.embed_dim"),
    ("[data]\ninput_dim = 0\n", "data.input_dim"),
    ("[data]\nper_class_pretrain = -1\n", "data.per_class_pretrain must be >= 0"),
    ("[data]\nper_class_train = -1\n", "data.per_class_train must be >= 0"),
    ("[data]\nper_class_test = -1\n", "data.per_class_test must be >= 0"),
])
def test_out_of_range_values_fail_at_load(text, message):
    with pytest.raises(ConfigError, match=message):
        config.parse(text)


@pytest.mark.parametrize("build,message", [
    (lambda: dataclasses.replace(config.RunSection(), seeds=[1, 1]), "run.seeds repeats 1"),
    (lambda: dataclasses.replace(config.RunSection(), seeds=[-1]),
     "run.seeds must be non-negative"),
    (lambda: config.EvalSection(bins=0), "eval.bins must be >= 1"),
    (lambda: config.EvalSection(score="x"), "unknown eval.score 'x'"),
    (lambda: config.FinetuneSection(label_fractions=[]),
     "finetune.label_fractions must be non-empty"),
    (lambda: config.FinetuneSection(label_fractions=[0.5, 1.5]),
     "label_fractions must lie in (0, 1]"),
    (lambda: config.FinetuneSection(label_fractions=[0.5, 0.5]),
     "finetune.label_fractions repeats 0.5"),
    (lambda: config.FinetuneSection(label_fractions=[0.5, 0.50000001]),
     "finetune.label_fractions 0.5 and 0.50000001 share the file tag '0p5'"),
], ids=["seeds_repeat", "seed_negative", "bins_zero", "score_unknown", "fractions_empty",
        "fraction_above_1", "fractions_repeat", "fractions_share_a_tag"])
def test_a_section_checks_its_own_keys_whenever_it_is_built(build, message):
    # without a RunConfig around it, as an override by dataclasses.replace builds it
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("assign", [
    lambda cfg: setattr(cfg.sampler, "kind", "adam"),
    lambda cfg: setattr(cfg.eval, "bins", 0),
    lambda cfg: setattr(cfg.run, "seeds", [9]),
    lambda cfg: setattr(cfg, "sampler", config.SamplerSection()),
], ids=["sampler_kind", "eval_bins", "run_seeds", "whole_section"])
def test_a_loaded_config_is_frozen(assign):
    # a field assigned in place would skip its section's checks and leave
    # a digest that no file can hold; dataclasses.replace checks it instead
    cfg = config.load(CONFIGS / "default.cfg")
    digest = cfg.digest()
    with pytest.raises(dataclasses.FrozenInstanceError):
        assign(cfg)
    assert cfg.digest() == digest
    with pytest.raises(ConfigError, match="eval.bins must be >= 1"):
        dataclasses.replace(cfg.eval, bins=0)


def test_list_keys_read_back_as_tuples():
    cfg = config.parse("[model]\nencoder_hidden = 8,4\n[run]\nseeds = 3,1\n")
    assert cfg.model.encoder_hidden == (8, 4)
    assert cfg.run.seeds == (3, 1)
    assert cfg.finetune.label_fractions == (1.0, 0.25, 0.1)
    # a section given a list stores a tuple, with the same serialization and digest
    given = config.RunConfig(model=config.ModelSection(encoder_hidden=[8, 4]),
                             run=config.RunSection(seeds=[3, 1]))
    assert given.model.encoder_hidden == (8, 4) and given.run.seeds == (3, 1)
    assert given == cfg and given.digest() == cfg.digest()
    assert "encoder_hidden = 8,4\n" in config.serialize(cfg)


# every annotation parse reads; a string or any other type would parse as str
PARSED_TYPES = {int, float, str, bool, tuple[int, ...], tuple[float, ...]}


def test_every_section_key_has_a_type_parse_reads():
    unread = [f"{name}.{f.name}: {f.type!r}" for name, cls in config.SECTIONS.items()
              for f in dataclasses.fields(cls) if f.type not in PARSED_TYPES]
    assert not unread


def test_sections_are_the_run_configs_fields_in_serialization_order():
    fields = dataclasses.fields(config.RunConfig)
    assert list(config.SECTIONS.items()) == [(f.name, f.type) for f in fields]
    assert all(dataclasses.is_dataclass(cls) for cls in config.SECTIONS.values())
    # the order every digest hashes: moving a section changes them all
    headers = [line for line in config.serialize(config.RunConfig()).splitlines()
               if line.startswith("[")]
    assert headers == ["[data]", "[model]", "[sampler]", "[finetune]", "[eval]", "[run]"]


def test_float_keys_cover_every_section_with_floats():
    assert {section for section, _ in FLOAT_KEYS} == {"data", "model", "sampler", "finetune"}
    assert {("finetune", "lr"), ("sampler", "lr0"), ("sampler", "temperature"),
            ("sampler", "prior_std"), ("data", "separation"), ("data", "noise_std"),
            ("finetune", "label_fractions")} <= set(FLOAT_KEYS)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_a_non_finite_float_fails_at_load_naming_its_key(section, key, value):
    with pytest.raises(ConfigError) as err:
        config.parse(f"[{section}]\n{key} = {value}\n")
    assert str(err.value) == f"line 2 ({section}.{key}): not a finite number: '{value}'"


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
    cfg = config.RunConfig(run=config.RunSection(seeds=(9,)))
    path = tmp_path / "run.cfg"
    config.save(cfg, path)
    assert config.load(path) == cfg
