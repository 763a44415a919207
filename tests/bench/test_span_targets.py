"""Every library call site that the repository benchmark's trace spans
wrap (``rmabench/spans.py``) exists.

The spans wrap functions by module attribute, so a renamed or deleted
one makes ``Recorder.install`` raise.  The benchmark's own selftest finds
that too, but only when it runs; this test finds it in seconds.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.relational.relation import Relation

RMABENCH = Path(__file__).resolve().parents[2] / "rmabench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(RMABENCH))
    return importlib.import_module("spans")


def test_install_wraps_every_target_and_uninstall_restores_it(spans):
    recorder = spans.Recorder()
    targets = [(owner, attribute) for owner, attribute, _, _
               in recorder._targets]
    originals = [vars(owner)[attribute] for owner, attribute in targets]
    recorder.install()
    try:
        assert all(vars(owner)[attribute] is not original
                   for (owner, attribute), original
                   in zip(targets, originals))
        db = repro.connect()
        db.register("l", Relation.from_columns({
            "id": np.arange(4, dtype=np.int64), "v": np.arange(4.0)}))
        db.register("r", Relation.from_columns({
            "key": np.arange(4, dtype=np.int64), "w": np.arange(4.0)}))
        result = recorder.query(1, lambda: db.execute(
            "SELECT v, w FROM l JOIN r ON l.id = r.key"))
    finally:
        recorder.uninstall()
    assert result.nrows == 4
    assert {"plan.physical", "relational.join"} <= {
        span.name for span in recorder.spans}
    assert all(vars(owner)[attribute] is original
               for (owner, attribute), original in zip(targets, originals))
