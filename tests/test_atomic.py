import errno

import numpy as np
import pytest

from mcbyol import atomic, config
from mcbyol.data import make_clusters, save_dataset
from mcbyol.metrics import entropy_histogram, write_histogram, write_table
from mcbyol.params import ParamVector
from mcbyol.posterior import write_container

# each writer puts version v of its file(s) into a directory
WRITERS = {
    "write_container": lambda d, v: write_container(
        d / "m.ckpt", "member", {"v": v}, [("head", {}, ParamVector({"w": np.full(3, v)}))]),
    "write_table": lambda d, v: write_table(d / "t.tsv", ["a", "b"], [(v, 0.5)] * 4),
    "write_histogram": lambda d, v: write_histogram(
        d / "h.tsv", entropy_histogram(np.full(4, 0.2 * v), bins=3, lo=0.0, hi=1.0)),
    "config.save": lambda d, v: config.save(config.RunConfig(run=config.RunSection(seeds=[v])),
                                            d / "run.cfg"),
    "save_dataset": lambda d, v: save_dataset(
        make_clusters(config.DataSection(classes=2, input_dim=3, separation=2.0, seed=v), 4 + v),
        str(d / "ds")),
}


class DiskFull:
    """File stand-in that stores half of what it is given, then fails."""

    def __init__(self, real):
        self.real = real

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.real.close()

    def write(self, data):
        self.real.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def contents(d):
    return {p.name: p.read_bytes() for p in d.iterdir()}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    WRITERS[writer](tmp_path, 1)
    before = contents(tmp_path)
    real_open = open
    monkeypatch.setattr(atomic, "open", lambda path, mode: DiskFull(real_open(path, mode)),
                        raising=False)
    with pytest.raises(OSError):
        WRITERS[writer](tmp_path, 2)
    assert contents(tmp_path) == before


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_rewrite_replaces_file_and_leaves_no_temp(tmp_path, writer):
    WRITERS[writer](tmp_path, 1)
    first = contents(tmp_path)
    WRITERS[writer](tmp_path, 2)
    second = contents(tmp_path)
    assert second.keys() == first.keys()
    assert second != first
