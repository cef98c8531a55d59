"""The package holds only what its pipeline and CLI run: every function,
class and method defined under src/mcbyol must be referenced from somewhere
else in src/mcbyol.  An oracle that only tests use belongs in tests/.

The scan is by name: a definition counts as used when a Name or an
attribute access with its name appears in src/ outside its own body.
Imports do not count, so a package-root re-export keeps nothing alive.
Dunder methods are called by Python itself and are not checked.

Each setting has one home, its config section: no dataclass outside
config.py re-declares a key of a section.  And a loaded config is a value
that only dataclasses.replace, which runs a section's checks, can change:
every dataclass in config.py is frozen, and no field holds a list.

The checkpoint format has one home, posterior.py: no other module names
the container functions, whether it calls, imports or defines them.

The tape stays an independent oracle: no Tape method, model.mlp_forward or
model.byol_loss_one_direction names the closed-form gradient code that the
tests check against it.

Tensor is the tape's type only: outside autodiff.py and params.py, just the
tape oracle in model.py names it, and no module but autodiff.py names a
gradient flag (requires_grad, in any form); the tests mark their leaves."""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

from mcbyol import config

SRC = Path(__file__).resolve().parents[1] / "src" / "mcbyol"

# definitions kept without a caller in src/, each for a stated reason
ALLOWED = {
    # bench/ writes its generated configs with it
    "config.save",
    # README's way to write a file_prefix dataset
    "data.save_dataset",
    # BENCHMARK.json lists autodiff.op.softmax_cross_entropy.*, which bench/tracing.py
    # measures by patching every Tape op; no pipeline path builds a tape, and the
    # tests' fine-tuning oracle runs it (every other Tape op is called by
    # model.mlp_forward or a twin-loss function, the tests' pretraining oracle)
    "Tape.softmax_cross_entropy",
    # bench/tracing.py patches it, and BENCHMARK.json lists params.grad_flat_s and
    # params.grad_flat.calls; the tests' tape oracles read their gradients with it
    "ParamVector.grad_flat",
    # bench/tracing.py patches sampler.byol_loss_symmetrized to time
    # model.loss_forward; posterior_grad sums two closed-form directions instead
    "model.byol_loss_symmetrized",
    # bench/tracing.py patches it to count model.online_flat; pretraining now
    # reads TwinModel.online in place, and tests take independent copies with it
    "TwinModel.online_flat",
}

# mirror-scan hits kept, each for a stated reason
MIRRORS_ALLOWED = {
    # the chain's momentum buffer, not finetune.momentum
    "sampler.SamplerState: finetune momentum",
}


def _refs(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of every module-level function and
    class and every method, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def scan(src: Path) -> tuple[set[str], list[str]]:
    """(every checked definition, those that nothing else in src names)."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in trees.values():
        everywhere += _refs(tree)
    defs = [(qualified, everywhere[name] - _refs(node)[name])
            for module, tree in trees.items()
            for qualified, name, node in _definitions(module, tree)]
    return {q for q, _ in defs}, [q for q, uses in defs if uses == 0]


def test_every_src_definition_has_a_caller_in_src():
    defined, unreferenced = scan(SRC)
    dead = [q for q in unreferenced if q not in ALLOWED]
    assert not dead, f"defined in src/ but referenced only outside it: {dead}"
    assert ALLOWED <= defined, f"stale allowlist entries: {sorted(ALLOWED - defined)}"


def test_scan_flags_a_definition_without_caller(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return unused_twin\n\n"
        "def dead():\n    return dead()\n\n"
        "class K:\n    def __init__(self):\n        pass\n\n    def meth(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from .a import dead\nused()\nK()\n")
    assert scan(tmp_path) == ({"a.used", "a.dead", "a.K", "K.meth"}, ["a.dead", "K.meth"])


CONTAINER_NAMES = {"read_container", "write_container", "_pv_from_payload"}


def container_users(src: Path) -> list[str]:
    """'module: name' for every module other than posterior.py that names a
    checkpoint container function in code, an import or a definition."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "posterior.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = set(_refs(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        found += [f"{path.stem}: {name}" for name in sorted(names & CONTAINER_NAMES)]
    return found


def test_only_posterior_names_the_checkpoint_container():
    found = container_users(SRC)
    assert not found, f"read and write checkpoints through posterior.py's functions: {found}"


def test_container_scan_flags_a_call_an_import_and_a_definition(tmp_path):
    (tmp_path / "posterior.py").write_text(
        "def read_container(p):\n    pass\n\ndef write_container(p):\n    pass\n")
    (tmp_path / "a.py").write_text("from .posterior import read_container as load\n")
    (tmp_path / "b.py").write_text("from . import posterior\nposterior.write_container(1)\n")
    (tmp_path / "c.py").write_text("def _pv_from_payload(segments):\n    pass\n")
    (tmp_path / "d.py").write_text("from .posterior import load_member\nload_member(1)\n")
    assert container_users(tmp_path) == ["a: read_container", "b: write_container",
                                         "c: _pv_from_payload"]


# the tape oracle's definitions, and the closed-form code they check
ORACLE = {"autodiff.Tape", "model.mlp_forward", "model.byol_loss_one_direction"}
CLOSED_FORM = {"mlp_layers", "mlp_backward", "direction_grad"}


def oracle_leaks(src: Path) -> list[str]:
    """'module.definition: name' for every closed-form gradient function
    that a definition of the tape oracle names."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if f"{path.stem}.{getattr(node, 'name', '')}" in ORACLE:
                found += [f"{path.stem}.{node.name}: {name}"
                          for name in sorted(set(_refs(node)) & CLOSED_FORM)]
    return found


def test_the_tape_oracle_shares_no_code_with_what_it_checks():
    found = oracle_leaks(SRC)
    assert not found, f"the tape oracle must not run the code it checks: {found}"


def test_oracle_scan_flags_a_tape_method_and_both_loss_functions(tmp_path):
    (tmp_path / "autodiff.py").write_text(
        "def mlp_layers(x):\n    pass\n\n"
        "class Tape:\n    def mlp(self, x):\n        return mlp_layers(x)\n")
    (tmp_path / "model.py").write_text(
        "from . import sampler\n\n"
        "def mlp_forward(tape, x):\n    return autodiff.mlp_backward(x)\n\n"
        "def byol_loss_one_direction(tape, x):\n    return sampler.direction_grad(x)\n\n"
        "def mlp_forward_np(x):\n    return mlp_layers(x)\n")
    (tmp_path / "sampler.py").write_text(
        "class Tape:\n    def f(self):\n        return direction_grad\n")
    assert oracle_leaks(tmp_path) == ["autodiff.Tape: mlp_layers",
                                      "model.mlp_forward: mlp_backward",
                                      "model.byol_loss_one_direction: direction_grad"]


# the tape oracle's definitions in model.py, which record over Tensors
TENSOR_ORACLE = ("_layers", "mlp_forward", "byol_loss_")


def _identifiers(node: ast.AST) -> set[str]:
    """Every name a node spells: names, attributes, keywords, parameters and
    the definitions' own names."""
    out = set(_refs(node))
    for n in ast.walk(node):
        if isinstance(n, (ast.keyword, ast.arg)) and n.arg:
            out.add(n.arg)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
    return out


def tape_type_users(src: Path) -> list[str]:
    """'module.definition: name' for every top-level statement outside
    autodiff.py that names Tensor where it may not, or a gradient flag.
    Imports do not count."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "autodiff":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            name = getattr(node, "name", "")
            may_name_tensor = path.stem == "params" or (
                path.stem == "model" and name.startswith(TENSOR_ORACLE))
            found += [f"{path.stem}.{name or f'line {node.lineno}'}: {ident}"
                      for ident in sorted(_identifiers(node))
                      if "requires_grad" in ident or (ident == "Tensor" and not may_name_tensor)]
    return found


def test_only_the_tape_and_its_oracle_name_tensor_or_a_gradient_flag():
    found = tape_type_users(SRC)
    assert not found, f"build parameters from arrays, and mark leaves in the tests: {found}"


def test_tape_type_scan_flags_tensor_and_every_form_of_the_flag(tmp_path):
    (tmp_path / "autodiff.py").write_text(
        "class Tensor:\n    def __init__(self, v, requires_grad=False):\n"
        "        self.requires_grad = requires_grad\n")
    (tmp_path / "params.py").write_text(
        "from .autodiff import Tensor\n\n"
        "def wrap(v):\n    return Tensor(v)\n\n"
        "def mark(t):\n    t.requires_grad = True\n")
    (tmp_path / "model.py").write_text(
        "from .autodiff import Tensor\n\n"
        "def _layers(pv) -> Tensor:\n    pass\n\n"
        "def byol_loss_one_direction(x):\n    return Tensor(x)\n\n"
        "def init(requires_grad):\n    return Tensor(1.0, requires_grad=requires_grad)\n")
    (tmp_path / "posterior.py").write_text(
        "from . import autodiff\n\n"
        "def collect(pv):\n    pv.set_requires_grad(False)\n\n"
        "class Loader:\n    def load(self):\n        return autodiff.Tensor(0.0)\n\n"
        "LEAF = autodiff.Tensor(0.0, True)\n")
    assert tape_type_users(tmp_path) == ["model.init: Tensor", "model.init: requires_grad",
                                         "params.mark: requires_grad",
                                         "posterior.collect: set_requires_grad",
                                         "posterior.Loader: Tensor", "posterior.line 10: Tensor"]


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def section_mirrors(src: Path) -> list[str]:
    """Every dataclass outside config.py that declares a field name of a
    config section, as 'module.Class: section keys'."""
    sections = {name: {f.name for f in dataclasses.fields(cls)}
                for name, cls in config.SECTIONS.items()}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))):
                continue
            fields = {item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            for section, keys in sections.items():
                shared = sorted(fields & keys)
                if shared:
                    found.append(f"{path.stem}.{node.name}: {section} {', '.join(shared)}")
    return found


def test_no_dataclass_mirrors_a_config_section():
    mirrors = section_mirrors(SRC)
    found = [m for m in mirrors if m not in MIRRORS_ALLOWED]
    assert not found, f"read these settings from their config section instead: {found}"
    assert MIRRORS_ALLOWED <= set(mirrors), f"stale allowlist entries: {sorted(MIRRORS_ALLOWED)}"


def test_mirror_scan_flags_one_shared_key(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass Mirror:\n    lr0: float\n    beta: float\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Frozen:\n    embed_dim: int\n    tau: float\n\n"
        "@dataclass\nclass One:\n    temperature: float\n    input_dim: int\n\n"
        "class Plain:\n    lr0: float\n    beta: float\n")
    (tmp_path / "config.py").write_text("@dataclass\nclass S:\n    lr0: float\n    beta: float\n")
    assert section_mirrors(tmp_path) == ["a.Mirror: sampler beta, lr0",
                                         "a.Frozen: model embed_dim, tau",
                                         "a.One: data input_dim",
                                         "a.One: sampler temperature"]


def _is_frozen(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and _is_dataclass(decorator) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def mutable_config(src: Path) -> list[str]:
    """'Class: not frozen' for every dataclass in config.py without
    frozen=True, and 'Class.field: annotation' for every field of one whose
    annotation names list or List anywhere."""
    found = []
    for node in ast.walk(ast.parse((src / "config.py").read_text())):
        if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))):
            continue
        if not any(map(_is_frozen, node.decorator_list)):
            found.append(f"{node.name}: not frozen")
        found += [f"{node.name}.{item.target.id}: {ast.unparse(item.annotation)}"
                  for item in node.body if isinstance(item, ast.AnnAssign)
                  and {"list", "List"} & set(_refs(item.annotation))]
    return found


def test_every_config_dataclass_is_frozen_and_holds_no_list():
    found = mutable_config(SRC)
    assert not found, f"freeze config dataclasses and give list keys tuple types: {found}"


def test_config_scan_flags_an_unfrozen_dataclass_and_a_list_field(tmp_path):
    (tmp_path / "config.py").write_text(
        "import dataclasses\nimport typing\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass Open:\n    seeds: list[int]\n\n"
        "@dataclasses.dataclass(frozen=False)\nclass Thawed:\n    lr: float\n\n"
        "@dataclass(eq=True)\nclass Unsaid:\n    lr: float\n\n"
        "@dataclass(frozen=True)\nclass Nested:\n    widths: typing.List[int]\n"
        "    table: dict[str, list[float]]\n    hidden: tuple[int, ...]\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Sound:\n    seeds: tuple[int, ...]\n\n"
        "class Plain:\n    seeds: list[int]\n")
    assert mutable_config(tmp_path) == ["Open: not frozen", "Open.seeds: list[int]",
                                        "Thawed: not frozen", "Unsaid: not frozen",
                                        "Nested.widths: typing.List[int]",
                                        "Nested.table: dict[str, list[float]]"]
