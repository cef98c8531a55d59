"""The package holds only what its pipeline and CLI run: every function,
class and method defined under src/mcbyol must be referenced from somewhere
else in src/mcbyol.  An oracle that only tests use belongs in tests/.

The scan is by name: a definition counts as used when a Name or an
attribute access with its name appears in src/ outside its own body.
Imports do not count, so a package-root re-export keeps nothing alive.
Dunder methods are called by Python itself and are not checked.

Each setting has one home, its config section: no dataclass outside
config.py re-declares a key of a section."""

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
    # BENCHMARK.json lists autodiff.op.scale.* and autodiff.op.relu.*, which
    # bench/tracing.py measures by patching every Tape op (Tape.dot, Tape.sum and
    # Tape.tanh pass the scan only because numpy's .dot, .sum and .tanh share
    # their names)
    "Tape.scale",
    "Tape.relu",
    # bench/tracing.py patches sampler.byol_loss_symmetrized to time
    # model.loss_forward; posterior_grad sums the two directions instead
    "model.byol_loss_symmetrized",
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
