"""Self-operand binary operations: shared order BATs align by identity.

When both arguments of a RELATIVE operation share their order-part BATs,
the composed alignment is the identity, so ``prepare_binary`` neither sorts
nor gathers, and a self-operand ``cpd`` reaches the kernel as ``b is a``:
one dense copy and dsyrk on MKL, the upper triangle on BATs.  The shortcut
must keep every key check and every bit of the gathering path.
"""

import numpy as np
import pytest

from repro.bat.bat import BAT, DataType
from repro.bat.properties import use_properties
from repro.bat.sorting import key_violation
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.context import prepare_binary
from repro.core.ops import execute_rma
from repro.errors import KeyViolationError
from repro.linalg import BatBackend
from repro.linalg.policy import BackendPolicy
from repro.opspec import spec_of
from repro.relational.relation import Relation

PARALLEL = {"serial": ParallelConfig(),
            "parallel": ParallelConfig(enabled=True, workers=2,
                                       min_morsel_rows=1)}


class RecordingBat(BatBackend):
    """BAT backend that records whether each ``cpd`` saw one operand."""

    def __init__(self):
        super().__init__()
        self.self_operand: list[bool] = []

    def compute(self, op, a, b=None):
        if op == "cpd":
            self.self_operand.append(b is a)
        return super().compute(op, a, b)


def _relation(n: int = 40, k: int = 4, seed: int = 7,
              duplicate: bool = False) -> Relation:
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    if duplicate:
        keys[1] = keys[0]
    data = {"k": keys}
    for j in range(k):
        data[f"x{j}"] = rng.normal(size=n)
    return Relation.from_columns(data)


def _config(prefer: str, parallel: str = "serial", **kw) -> RmaConfig:
    policy = BackendPolicy(prefer=prefer,
                           bat=RecordingBat() if prefer == "bat"
                           else BatBackend())
    return RmaConfig(policy=policy, parallel=PARALLEL[parallel], **kw)


def _assert_identical(a: Relation, b: Relation) -> None:
    assert a.names == b.names
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype is cb.dtype
        if ca.dtype is DataType.DBL:
            assert np.array_equal(ca.tail, cb.tail, equal_nan=True), name
        else:
            assert list(ca.tail) == list(cb.tail), name


def _gram(rel: Relation) -> np.ndarray:
    return np.column_stack([rel.column(n).tail for n in rel.names[1:]])


@pytest.mark.parametrize("parallel", sorted(PARALLEL))
class TestSelfOperandCpd:
    def test_mkl_copies_once_and_is_symmetric(self, parallel):
        r = _relation()
        config = _config("mkl", parallel)
        out = execute_rma("cpd", r, "k", r, "k", config=config)
        stats = config.policy.mkl.stats
        assert stats.calls == 1
        assert stats.bytes_in == r.nrows * 4 * 8
        gram = _gram(out)
        assert np.array_equal(gram, gram.T)

    def test_bat_takes_symmetric_branch(self, parallel):
        r = _relation()
        config = _config("bat", parallel)
        out = execute_rma("cpd", r, "k", r, "k", config=config)
        assert config.policy.bat.self_operand == [True]
        gram = _gram(out)
        assert np.array_equal(gram, gram.T)


class TestIdentityAlignment:
    def test_prepare_hands_over_the_same_arrays(self):
        r = _relation()
        pr, ps = prepare_binary(r, "k", r, "k", spec_of("cpd"),
                                RmaConfig())
        assert all(x is y for x, y in zip(pr.app_columns, ps.app_columns))
        assert all(x is y for x, y in zip(pr.order_bats, ps.order_bats))

    def test_no_sort_when_keys_are_not_validated(self):
        r = _relation()
        execute_rma("cpd", r, "k", r, "k",
                    config=RmaConfig(validate_keys=False))
        assert r.cached_order_info(("k",)) is None

    @pytest.mark.parametrize("props", [True, False])
    @pytest.mark.parametrize("prefer", ["bat", "mkl"])
    def test_duplicate_key_still_rejected(self, props, prefer):
        r = _relation(duplicate=True)
        expected = str(key_violation(["k"]))
        with use_properties(props):
            for op in ("cpd", "sol"):
                with pytest.raises(KeyViolationError) as info:
                    execute_rma(op, r, "k", r, "k",
                                config=_config(prefer))
                assert str(info.value) == expected

    @pytest.mark.parametrize("props", [True, False])
    def test_duplicate_key_shared_under_two_names(self, props):
        # r BY k1, s BY k2 where k2 is the very BAT of k1: the first
        # argument's violation is reported, as on the gathering path.
        r = _relation(duplicate=True)
        s = Relation.from_columns({"k2": r.column("k"),
                                   **{f"y{j}": r.column(f"x{j}")
                                      for j in range(4)}})
        with use_properties(props):
            with pytest.raises(KeyViolationError) as info:
                execute_rma("add", r, "k", s, "k2", config=RmaConfig())
        assert str(info.value) == str(key_violation(["k"]))


def _trips_shape(shared: bool, duplicate: bool = False):
    """A design and a target relation over one ``trip_id`` column — shared
    as one BAT (the ``olr_trips`` shape) or copied, which forces the
    gathering path."""
    design = _relation(n=30, k=3, seed=11, duplicate=duplicate)
    trip = design.column("k")
    key = trip if shared else BAT(trip.dtype, trip.tail.copy())
    rng = np.random.default_rng(12)
    target = Relation.from_columns({"k": key, "y": rng.normal(size=30)})
    return design, target


@pytest.mark.parametrize("parallel", sorted(PARALLEL))
@pytest.mark.parametrize("props", [True, False])
@pytest.mark.parametrize("prefer", ["bat", "mkl"])
class TestSharedKeyBitIdentity:
    @pytest.mark.parametrize("op", ["cpd", "sol"])
    def test_shared_matches_gathered(self, op, prefer, props, parallel):
        results = []
        for shared in (True, False):
            design, target = _trips_shape(shared)
            with use_properties(props):
                results.append(execute_rma(
                    op, design, "k", target, "k",
                    config=_config(prefer, parallel)))
        _assert_identical(*results)

    def test_duplicate_keys_without_validation(self, prefer, props,
                                               parallel):
        results = []
        for shared in (True, False):
            design, target = _trips_shape(shared, duplicate=True)
            with use_properties(props):
                results.append(execute_rma(
                    "cpd", design, "k", target, "k",
                    config=_config(prefer, parallel, validate_keys=False)))
        _assert_identical(*results)
