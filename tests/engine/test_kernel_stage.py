"""The kernel stage under the morsel engine: one step function, with
every backend and morsel decision taken over the full inputs."""

import numpy as np
import pytest

import repro
import repro.engine.pool as pool
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma
from repro.linalg.mkl_backend import MklBackend
from repro.linalg.policy import BackendPolicy
from repro.relational.relation import Relation


def config(prefer="auto", enabled=True) -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer=prefer),
                     validate_keys=False,
                     parallel=ParallelConfig(enabled=enabled, workers=2,
                                             min_morsel_rows=1))


def leaves(count, n=64):
    rng = np.random.default_rng(5)
    return [Relation.from_columns({f"k{i}": np.arange(n),
                                   "x": rng.uniform(0.0, 10.0, n),
                                   "y": rng.uniform(0.0, 10.0, n)})
            for i in range(count)]


def matrices(relations):
    db = repro.connect(plan_cache=False)
    return [db.matrix(r, by=r.names[0]) for r in relations]


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestMklPreference:
    @pytest.mark.parametrize("op", ["add", "sub", "emu"])
    def test_elementwise_op_reaches_mkl(self, monkeypatch, op):
        calls = counting(monkeypatch, MklBackend, "compute")
        r, s = leaves(2)
        out = execute_rma(op, r, "k0", s, "k1", config=config("mkl"))
        assert len(calls) == 1
        serial = execute_rma(op, r, "k0", s, "k1",
                             config=config("mkl", enabled=False))
        assert out.column("x").tail.tolist() == \
            serial.column("x").tail.tolist()

    def test_fused_chain_reaches_mkl(self, monkeypatch):
        calls = counting(monkeypatch, MklBackend, "compute")
        m0, m1, m2 = matrices(leaves(3))
        ((m0 + m1) - m2).collect(config=config("mkl"))
        assert len(calls) == 2  # one call per fused step, as serially


class TestChunkedChains:
    def test_fused_add_chain_runs_chunked(self, monkeypatch):
        # An add over an intermediate slot splits into morsels like
        # sub/emu: one chunked kernel stage for the whole chain.
        calls = counting(monkeypatch, pool, "map_chunks")
        m0, m1, m2 = matrices(leaves(3))
        out = ((m0 + m1) + m2).collect(config=config())
        assert len(calls) == 1
        serial = ((m0 + m1) + m2).collect(config=config(enabled=False))
        for name in ("x", "y"):
            assert out.column(name).tail.tolist() == \
                serial.column(name).tail.tolist()
