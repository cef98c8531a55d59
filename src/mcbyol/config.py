"""Run configuration: flat sectioned key-value text files.

Format: `[section]` headers, `key = value` lines, `#` comments.  Unknown
sections or keys and repeated keys are errors so typos fail fast.  Values
round-trip exactly through serialize/parse, and the digest of the
canonical serialization identifies every output a run produces.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from .atomic import write_atomic
from .errors import ConfigError


@dataclass
class DataSection:
    classes: int = 4
    per_class_pretrain: int = 500
    per_class_train: int = 250
    per_class_test: int = 500
    input_dim: int = 10
    separation: float = 4.0
    seed: int = 1234
    ood_mode: str = "shifted_means"
    noise_std: float = 0.1
    mask_prob: float = 0.1
    scale_min: float = 0.8
    scale_max: float = 1.2
    # when set, splits load from <file_prefix>_{pretrain,train,test,ood}
    # instead of the generator above
    file_prefix: str = ""

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("data.classes must be >= 2")
        if self.input_dim < 1:
            raise ConfigError("data.input_dim must be >= 1")
        if self.separation <= 0:
            raise ConfigError("data.separation must be positive")
        if self.ood_mode not in OOD_MODES:
            raise ConfigError(f"unknown data.ood_mode {self.ood_mode!r}; choose from {OOD_MODES}")
        if self.noise_std < 0:
            raise ConfigError("data.noise_std must be non-negative")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ConfigError("data.mask_prob must lie in [0, 1)")
        if not 0.0 < self.scale_min <= self.scale_max:
            raise ConfigError("data scale range must satisfy 0 < scale_min <= scale_max")


@dataclass
class ModelSection:
    encoder_hidden: list[int] = field(default_factory=lambda: [64, 64])
    embed_dim: int = 16
    proj_hidden: int = 32
    proj_dim: int = 8
    pred_hidden: int = 32
    activation: str = "tanh"
    tau: float = 0.99

    def __post_init__(self):
        if any(w < 1 for w in self.encoder_hidden):
            raise ConfigError("model.encoder_hidden widths must be >= 1")
        for key in ("embed_dim", "proj_hidden", "proj_dim", "pred_hidden"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"unknown model.activation {self.activation!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("model.tau must lie in [0, 1]")


class SamplerKind(NamedTuple):
    """What a [sampler] kind does at each step."""
    cyclic: bool    # cosine lr restarting every cycle_len steps; else constant lr0
    noisy: bool     # injects Gaussian noise; a cyclic kind only from noise_start_frac on
    momentum: bool  # steps with sghmc_step; else with sgld_step


SAMPLER_KINDS = {
    "map_sgd": SamplerKind(cyclic=False, noisy=False, momentum=True),
    "snap_sgd": SamplerKind(cyclic=True, noisy=False, momentum=True),
    "sgld": SamplerKind(cyclic=False, noisy=True, momentum=False),
    "sghmc": SamplerKind(cyclic=False, noisy=True, momentum=True),
    "csghmc": SamplerKind(cyclic=True, noisy=True, momentum=True),
}

# how data.make_ood draws the out-of-distribution split
OOD_MODES = ("shifted_means", "scaled_variance", "uniform_box")


@dataclass
class SamplerSection:
    kind: str = "csghmc"
    lr0: float = 1e-4
    beta: float = 0.9
    temperature: float = 0.1
    cycle_len: int = 50
    total_steps: int = 200
    noise_start_frac: float = 0.8
    prior_std: float = 1.0
    batch: int = 256

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler.kind {self.kind!r}")
        if self.lr0 <= 0:
            raise ConfigError("sampler.lr0 must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError("sampler.beta must lie in [0, 1)")
        if self.temperature <= 0:
            raise ConfigError("sampler.temperature must be positive")
        if self.cycle_len < 1:
            raise ConfigError("sampler.cycle_len must be >= 1")
        if self.total_steps < 1:
            raise ConfigError("sampler.total_steps must be >= 1")
        if not 0.0 <= self.noise_start_frac <= 1.0:
            raise ConfigError("sampler.noise_start_frac must lie in [0, 1]")
        if self.prior_std <= 0:
            raise ConfigError("sampler.prior_std must be positive")
        if self.batch < 1:
            raise ConfigError("sampler.batch must be >= 1")


@dataclass
class FinetuneSection:
    lr: float = 0.05
    momentum: float = 0.9
    batch: int = 80
    epochs: int = 60
    label_fractions: list[float] = field(default_factory=lambda: [1.0, 0.25, 0.1])
    # desk-scale default is linear evaluation: joint fine-tuning at this
    # scale drowns the representation signal in SGD noise
    freeze_encoder: bool = True

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("finetune.lr must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("finetune.momentum must lie in [0, 1)")
        if self.batch < 1:
            raise ConfigError("finetune.batch must be >= 1")
        if self.epochs < 0:
            raise ConfigError("finetune.epochs must be non-negative")


@dataclass
class EvalSection:
    bins: int = 10
    score: str = "entropy"  # or max_prob


@dataclass
class RunSection:
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    output_dir: str = ""


def _reject_repeats(name: str, values: list) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{name} repeats {v!r}")
        seen.add(v)


def frac_tag(frac: float) -> str:
    """A label fraction as it appears in file names, e.g. 0.25 -> 0p25."""
    return f"{frac:g}".replace(".", "p")


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    finetune: FinetuneSection = field(default_factory=FinetuneSection)
    eval: EvalSection = field(default_factory=EvalSection)
    run: RunSection = field(default_factory=RunSection)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not self.run.seeds:
            raise ConfigError("run.seeds must be non-empty")
        if any(s < 0 for s in self.run.seeds):
            raise ConfigError("run.seeds must be non-negative")
        _reject_repeats("run.seeds", self.run.seeds)
        if self.eval.score not in ("entropy", "max_prob"):
            raise ConfigError(f"unknown eval.score {self.eval.score!r}")
        if self.eval.bins < 1:
            raise ConfigError("eval.bins must be >= 1")
        if not self.finetune.label_fractions:
            raise ConfigError("finetune.label_fractions must be non-empty")
        for frac in self.finetune.label_fractions:
            if not 0.0 < frac <= 1.0:
                raise ConfigError("label_fractions must lie in (0, 1]")
        # a repeat would fit the fraction twice into the same member files
        _reject_repeats("finetune.label_fractions", self.finetune.label_fractions)
        # and so would two fractions that print alike at 6 significant digits
        tagged: dict[str, float] = {}
        for frac in self.finetune.label_fractions:
            other = tagged.setdefault(frac_tag(frac), frac)
            if other != frac:
                raise ConfigError(f"finetune.label_fractions {other!r} and {frac!r} "
                                  f"share the file tag {frac_tag(frac)!r}")

    def digest(self) -> str:
        return hashlib.sha256(serialize(self).encode("utf-8")).hexdigest()[:12]


SECTIONS = {
    "data": DataSection,
    "model": ModelSection,
    "sampler": SamplerSection,
    "finetune": FinetuneSection,
    "eval": EvalSection,
    "run": RunSection,
}


def _parse_scalar(raw: str, target_type, where: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _field_types(section_cls) -> dict[str, type]:
    out = {}
    for f in dataclasses.fields(section_cls):
        if f.type in ("list[int]", "list[float]") or str(f.type).startswith("list"):
            elem = int if "int" in str(f.type) else float
            out[f.name] = ("list", elem)
        else:
            out[f.name] = {"int": int, "float": float, "str": str, "bool": bool}[str(f.type)]
    return out


def parse(text: str) -> RunConfig:
    values: dict[str, dict] = {name: {} for name in SECTIONS}
    first_line: dict[tuple[str, str], int] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        types = _field_types(SECTIONS[section])
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: {section}.{key} is already set on line {first}")
        expected = types[key]
        where = f"line {lineno} ({section}.{key})"
        if isinstance(expected, tuple):
            elem = expected[1]
            values[section][key] = [_parse_scalar(part, elem, where)
                                    for part in raw.split(",") if part.strip() != ""]
        else:
            values[section][key] = _parse_scalar(raw, expected, where)
    try:
        sections = {name: cls(**values[name]) for name, cls in SECTIONS.items()}
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**sections)


def load(path) -> RunConfig:
    with open(path) as f:
        return parse(f.read())


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ",".join(_format_value(e) for e in v)
    return str(v)


def serialize(cfg: RunConfig) -> str:
    lines = []
    for name, cls in SECTIONS.items():
        lines.append(f"[{name}]")
        section = getattr(cfg, name)
        for f in dataclasses.fields(cls):
            lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)


def save(cfg: RunConfig, path) -> None:
    write_atomic(path, serialize(cfg))
