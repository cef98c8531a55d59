"""Run configuration: flat sectioned key-value text files.

Format: `[section]` headers, `key = value` lines, `#` comments.  Unknown
sections or keys and repeated keys are errors so typos fail fast.  Values
round-trip exactly through serialize/parse, and the digest of the
canonical serialization identifies every output a run produces.

Each section and RunConfig is a frozen value: dataclasses.replace is the
one way to change a loaded config, and each section checks its own keys
whenever it is built, by parse, by its constructor, or by replace.  The
list-valued keys are tuples, and a section turns any list it is given
into one.  The parser reads each key's type from the section's field
annotations.
"""

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, get_args

from .atomic import write_atomic
from .errors import ConfigError


@dataclass(frozen=True)
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
        for key in ("per_class_pretrain", "per_class_train", "per_class_test"):
            if getattr(self, key) < 0:
                raise ConfigError(f"data.{key} must be >= 0")
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


@dataclass(frozen=True)
class ModelSection:
    encoder_hidden: tuple[int, ...] = (64, 64)
    embed_dim: int = 16
    proj_hidden: int = 32
    proj_dim: int = 8
    pred_hidden: int = 32
    activation: str = "tanh"
    tau: float = 0.99

    def __post_init__(self):
        _as_tuple(self, "encoder_hidden")
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


@dataclass(frozen=True)
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
        if self.total_steps < self.cycle_len:
            raise ConfigError(f"sampler.total_steps = {self.total_steps} is below sampler.cycle_len"
                              f" = {self.cycle_len}: no cycle ends, so no snapshot is collected")
        if not 0.0 <= self.noise_start_frac <= 1.0:
            raise ConfigError("sampler.noise_start_frac must lie in [0, 1]")
        kind, c = SAMPLER_KINDS[self.kind], self.cycle_len
        if kind.cyclic and kind.noisy and self.noise_start_frac * c > c - 1:
            raise ConfigError(f"sampler.noise_start_frac = {self.noise_start_frac} leaves no noisy "
                              f"step in a cycle of sampler.cycle_len = {self.cycle_len}: "
                              f"{self.kind} would run as snap_sgd")
        if self.prior_std <= 0:
            raise ConfigError("sampler.prior_std must be positive")
        if self.batch < 1:
            raise ConfigError("sampler.batch must be >= 1")


@dataclass(frozen=True)
class FinetuneSection:
    lr: float = 0.05
    momentum: float = 0.9
    batch: int = 80
    epochs: int = 60
    label_fractions: tuple[float, ...] = (1.0, 0.25, 0.1)
    # desk-scale default is linear evaluation: joint fine-tuning at this
    # scale drowns the representation signal in SGD noise
    freeze_encoder: bool = True

    def __post_init__(self):
        _as_tuple(self, "label_fractions")
        if self.lr < 0:
            raise ConfigError("finetune.lr must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("finetune.momentum must lie in [0, 1)")
        if self.batch < 1:
            raise ConfigError("finetune.batch must be >= 1")
        if self.epochs < 0:
            raise ConfigError("finetune.epochs must be non-negative")
        if not self.label_fractions:
            raise ConfigError("finetune.label_fractions must be non-empty")
        for frac in self.label_fractions:
            if not 0.0 < frac <= 1.0:
                raise ConfigError("label_fractions must lie in (0, 1]")
        # a repeat would fit the fraction twice into the same member files
        _reject_repeats("finetune.label_fractions", self.label_fractions)
        # and so would two fractions that print alike at 6 significant digits
        tagged: dict[str, float] = {}
        for frac in self.label_fractions:
            other = tagged.setdefault(frac_tag(frac), frac)
            if other != frac:
                raise ConfigError(f"finetune.label_fractions {other!r} and {frac!r} "
                                  f"share the file tag {frac_tag(frac)!r}")


@dataclass(frozen=True)
class EvalSection:
    bins: int = 10
    score: str = "entropy"  # or max_prob

    def __post_init__(self):
        if self.score not in ("entropy", "max_prob"):
            raise ConfigError(f"unknown eval.score {self.score!r}")
        if self.bins < 1:
            raise ConfigError("eval.bins must be >= 1")


@dataclass(frozen=True)
class RunSection:
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = ""

    def __post_init__(self):
        _as_tuple(self, "seeds")
        if not self.seeds:
            raise ConfigError("run.seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("run.seeds must be non-negative")
        _reject_repeats("run.seeds", self.seeds)


def _as_tuple(section, key: str) -> None:
    """Stores a list-valued key given as any iterable as a tuple."""
    object.__setattr__(section, key, tuple(getattr(section, key)))


def _reject_repeats(name: str, values: tuple) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{name} repeats {v!r}")
        seen.add(v)


def frac_tag(frac: float) -> str:
    """A label fraction as it appears in file names, e.g. 0.25 -> 0p25."""
    return f"{frac:g}".replace(".", "p")


@dataclass(frozen=True)
class RunConfig:
    data: DataSection = DataSection()
    model: ModelSection = ModelSection()
    sampler: SamplerSection = SamplerSection()
    finetune: FinetuneSection = FinetuneSection()
    eval: EvalSection = EvalSection()
    run: RunSection = RunSection()

    def digest(self) -> str:
        return hashlib.sha256(serialize(self).encode("utf-8")).hexdigest()[:12]


SECTIONS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


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
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse(text: str) -> RunConfig:
    values: dict[str, dict] = {name: {} for name in SECTIONS}
    first_line: dict[tuple[str, str], int] = {}
    section = types = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            types = {f.name: f.type for f in dataclasses.fields(SECTIONS[section])}
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: {section}.{key} is already set on line {first}")
        where = f"line {lineno} ({section}.{key})"
        elem = get_args(types[key])  # (int, ...) of tuple[int, ...], () of a scalar
        if elem:
            values[section][key] = [_parse_scalar(part, elem[0], where)
                                    for part in raw.split(",") if part.strip() != ""]
        else:
            values[section][key] = _parse_scalar(raw, types[key], where)
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
    if isinstance(v, tuple):
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
