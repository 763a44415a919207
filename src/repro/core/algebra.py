"""Public RMA operations (paper Table 2), run eagerly.

Each function runs one operation *eagerly*.  Argument conventions are
shared:

* ``r``/``s``       — argument relations;
* ``by``/``s_by``   — order schemas (attribute name or list of names); the
  attributes must form a key of their relation;
* ``config``        — optional :class:`~repro.core.config.RmaConfig`.

The remaining attributes form the application schema the matrix kernel is
applied to; they must be numeric.

Each call runs :func:`repro.core.ops.execute_rma` through the eager adapter
(:mod:`repro.api.eager`) — the same pipeline the plan executor runs for
every RMA node of a SQL statement or :class:`~repro.api.matrix.Matrix`
expression, producing the same relation (warm order caches, errors).

A *chain* of operations written this way still executes one op at a time,
though — re-sorting derived relations, materializing every intermediate and
caching nothing across calls.  Chains belong on a session
(:func:`repro.connect`), where the same expression gets element-wise
fusion, CSE and the session result cache::

    db = repro.connect()
    xtx = db.matrix(xtx_rel, by="C")
    beta = (xtx.inv() @ db.matrix(xty_rel, by="C")).collect()

Results are bit-identical between all the styles; the equivalence tests
assert it for every operation and the paper's four workloads.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import RmaConfig
from repro.core.ops import execute_rma
from repro.relational.relation import Relation

By = str | Sequence[str]


def rma_operation(name: str, r: Relation, by: By,
                  s: Relation | None = None, s_by: By | None = None,
                  config: RmaConfig | None = None,
                  scalar: float | None = None) -> Relation:
    """Run an operation by name — the plan executor's per-node hook."""
    return execute_rma(name, r, by, s, s_by, config, scalar=scalar)


def _eager(name: str, r: Relation, by: By,
           s: Relation | None = None, s_by: By | None = None,
           config: RmaConfig | None = None,
           scalar: float | None = None) -> Relation:
    """Run one operation now (see :mod:`repro.api.eager`)."""
    from repro.api.eager import eager_rma  # deferred: api builds on core
    return eager_rma(name, r, by, s, s_by, config, scalar=scalar)


# -- element-wise (shape type (r*, c*)) -------------------------------------

def add(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Matrix addition over relations: ``add_{U;V}(r, s)``.

    Result schema is ``U ∘ V ∘ U-bar``: both order parts plus the sums named
    by ``r``'s application schema.  Rows are matched positionally after
    ordering each relation by its order schema.
    """
    return _eager("add", r, by, s, s_by, config)


def sub(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Matrix subtraction over relations (see :func:`add`)."""
    return _eager("sub", r, by, s, s_by, config)


def emu(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Element-wise multiplication over relations (see :func:`add`)."""
    return _eager("emu", r, by, s, s_by, config)


# -- scalar variants (kernel-program layer, not part of Table 2) ---------------

def sadd(r: Relation, by: By, value: float,
         config: RmaConfig | None = None) -> Relation:
    """Add a constant to every application value: ``sadd_{U}(r, c)``.

    Result schema is ``U ∘ U-bar`` with rows in ``r``'s storage order (the
    order part is attached verbatim).  Inside ``Matrix`` expressions scalar
    steps fuse into the surrounding element-wise chain as a single kernel
    step.
    """
    return _eager("sadd", r, by, config=config, scalar=value)


def ssub(r: Relation, by: By, value: float,
         config: RmaConfig | None = None) -> Relation:
    """Subtract a constant from every application value (see :func:`sadd`)."""
    return _eager("ssub", r, by, config=config, scalar=value)


def smul(r: Relation, by: By, value: float,
         config: RmaConfig | None = None) -> Relation:
    """Multiply every application value by a constant (see :func:`sadd`)."""
    return _eager("smul", r, by, config=config, scalar=value)


def sdiv(r: Relation, by: By, value: float,
         config: RmaConfig | None = None) -> Relation:
    """Divide every application value by a constant (see :func:`sadd`).

    True element-wise division (``np.divide``) — not multiplication by the
    reciprocal, which differs in the last ulp for most divisors.  Division
    by zero follows IEEE semantics (±inf/nan) at execution time.
    """
    return _eager("sdiv", r, by, config=config, scalar=value)


# -- products ----------------------------------------------------------------

def mmu(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Matrix multiplication ``mmu_{U;V}(r, s)``; shape type (r1, c2).

    The application part of ``r`` (n x k) is multiplied with the application
    part of ``s`` (k x m): ``r``'s application schema width must equal
    ``s``'s cardinality.  Result schema: ``U ∘ V-bar``.
    """
    return _eager("mmu", r, by, s, s_by, config)


def opd(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Outer product ``opd_{U;V}(r, s) = A·Bᵀ``; shape type (r1, r2).

    Result columns are named by the sorted values of ``s``'s (single)
    order attribute (column cast ▽V).
    """
    return _eager("opd", r, by, s, s_by, config)


def cpd(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Cross product ``cpd_{U;V}(r, s) = Aᵀ·B``; shape type (c1, c2).

    The result has a context attribute ``C`` holding ``r``'s application
    schema names and one column per attribute of ``s``'s application schema.
    Passing the same relation and order schema twice computes the symmetric
    ``AᵀA`` via the dsyrk-style fast path.
    """
    return _eager("cpd", r, by, s, s_by, config)


def sol(r: Relation, by: By, s: Relation, s_by: By,
        config: RmaConfig | None = None) -> Relation:
    """Least-squares solve of ``A·x = b``; shape type (c1, c2).

    ``r`` holds the coefficient matrix, ``s`` the right-hand side(s); both
    are ordered by their order schemas and matched positionally.
    """
    return _eager("sol", r, by, s, s_by, config)


# -- unary --------------------------------------------------------------------

def tra(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Transpose; shape type (c1, r1).

    Result attribute ``C`` holds the application schema names; the remaining
    attributes are named by the sorted values of the single order attribute
    (column cast), so ``tra`` requires ``|U| = 1``.
    """
    return _eager("tra", r, by, config=config)


def inv(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Matrix inversion; shape type (r1, c1); square application part."""
    return _eager("inv", r, by, config=config)


def evc(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Eigenvectors (columns sorted by decreasing |eigenvalue|);
    shape type (r1, c1); square application part."""
    return _eager("evc", r, by, config=config)


def evl(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Eigenvalues as a single column named ``evl``; shape type (r1, 1)."""
    return _eager("evl", r, by, config=config)


def chf(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Cholesky factorization (upper factor, like R's ``chol``);
    shape type (r1, c1); symmetric positive-definite application part."""
    return _eager("chf", r, by, config=config)


def qqr(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Q factor of the QR decomposition; shape type (r1, c1)."""
    return _eager("qqr", r, by, config=config)


def rqr(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """R factor of the QR decomposition; shape type (c1, c1)."""
    return _eager("rqr", r, by, config=config)


def usv(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Left singular vectors (full U); shape type (r1, r1).

    Result columns are named by the sorted order values (requires
    ``|U| = 1``).
    """
    return _eager("usv", r, by, config=config)


def dsv(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Singular values as a diagonal matrix; shape type (c1, c1)."""
    return _eager("dsv", r, by, config=config)


def vsv(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Right singular vectors V; shape type (c1, c1).

    Note: the paper's Table 1 types ``vsv`` as (r1, 1), which contradicts
    its own definition of VSV returning the V matrix; we follow the
    definition (see DESIGN.md).
    """
    return _eager("vsv", r, by, config=config)


def det(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Determinant; shape type (1, 1): one row ``('r', value)``."""
    return _eager("det", r, by, config=config)


def rnk(r: Relation, by: By, config: RmaConfig | None = None) -> Relation:
    """Matrix rank; shape type (1, 1): one row ``('r', value)``."""
    return _eager("rnk", r, by, config=config)
