"""The executor's position algebra: frames over base relations.

Frames materialize late, the way MonetDB passes candidate lists and
positional joins between operators.  A :class:`Frame` holds, per source
relation (:class:`_Source`), the base BATs and one position vector;
Filter, Sort, LIMIT and joins compose those vectors, and a column is
gathered once, when something first reads it.  A join whose side matches
every row exactly once (the FK→PK case) keeps that side's vectors and
gathered columns unchanged.  Frames reading one base column through one
position vector gather it once (the executor's table of gathered
columns).  Position vectors carry whether they are non-decreasing and
free of duplicates (Filter candidate lists, a join's left positions), so
a sorted base column gathered through them stays sorted without a
rescan.

A frame resolves user-visible (alias, column) names to internal column
names through its :class:`Layout`: its :class:`Binding` list and a memo
of the references resolved so far.  Every run of one plan node of a
template builds its frames with one layout (:func:`cached_layout`), so a
warm run resolves each reference by one dict probe and builds no
binding.  A frame keeps column equivalence classes, derived from the
inner equi-join conjuncts of two bare columns that made it
(:func:`equate_classes`); :func:`split_join_condition` classifies a join
condition's conjuncts by the frames their columns resolve in.  Key codes
of a frame's rows can come from its base columns
(:meth:`Frame.base_codes`).

A source whose positions derive from a smaller source of the same frame
(the right side of a join probed at that source's rows) keeps a
``parent`` link and composes its positions only when a gather reads
them; :meth:`Frame.domain` codes rows by the parent's positions, so an
expression over a star join's small dimensions runs once per distinct
combination of their rows.

A scan or RMA result enters the executor as a frame *view* of its
relation (:meth:`Frame.from_relation`), so a relation that only passes
from one RMA node to the next reaches the prepare stage as the very same
object, its seeded order caches included.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bat.bat import BAT, DataType
from repro.errors import BindError
import repro.relational.joins as rel_join
from repro.relational.relation import Relation, is_identity
from repro.relational.schema import Attribute, Schema
from repro.plan import nodes
from repro.sql import ast

@dataclass(frozen=True)
class Binding:
    """Maps a user-visible (alias, column) pair to an internal column.

    ``hidden`` bindings are resolvable (so ORDER BY can reference source
    columns after projection) but are not part of the visible output.
    """

    alias: Optional[str]
    name: str
    internal: str
    hidden: bool = False


class Layout:
    """A frame's bindings and what its column references resolve to; it
    holds names only, never a statement's arrays (see the module
    docstring and :func:`cached_layout`)."""

    __slots__ = ("bindings", "resolved", "_internals")

    def __init__(self, bindings: list[Binding]):
        self.bindings = bindings
        # ColumnRef -> internal name, for references that resolve.
        self.resolved: dict[ast.ColumnRef, str] = {}
        self._internals: tuple[str, ...] | None = None

    def internals(self) -> tuple[str, ...]:
        """The bindings' internal names, in order."""
        if self._internals is None:
            self._internals = tuple(b.internal for b in self.bindings)
        return self._internals


def cached_layout(cache: dict | None, key, parents: tuple,
                  build: Callable[[], list[Binding]]) -> Layout:
    """The layout ``cache`` holds under ``key`` when it was built from
    equal ``parents`` (the layouts, or a view's column names, that the
    bindings derive from), else a new one of ``build()``, stored when
    ``cache`` is given.  ``key`` is ``None`` for a plan node that may run
    more than once per statement (a subplan object reused in several
    places): its frames then get layouts of their own."""
    if cache is None or key is None:
        return Layout(build())
    entry = cache.get(key)
    if entry is not None and entry[0] == parents:
        return entry[1]
    layout = Layout(build())
    cache[key] = (parents, layout)
    return layout


class _Source:
    """One base relation seen through a frame: its columns by internal
    name, plus each frame row's position in them.

    ``positions`` is ``None`` for the identity.  ``nullable`` marks
    positions that may be ``-1`` (LEFT JOIN rows without a match); those
    rows read as nil when a column is gathered.  ``positions_sorted`` and
    ``positions_key`` say that the positions are non-decreasing and free
    of duplicates; a gather hands them to :meth:`BAT.fetch`, so a sorted
    base column stays sorted without a rescan.  They compose through
    :meth:`take` and are never set on nullable positions.  ``gathered``
    is the executor's table of gathered columns: sources that read one
    base column through one position vector object (the frames of a
    statement sharing a Filter's candidate list) gather it once.

    ``parent`` is ``(root, vector)`` when the positions derive from a
    non-nullable ``root`` source of the same frame, ``positions ==
    vector[root.positions]``: the right side of a join probed at the
    root's rows (:meth:`Executor._small_probe`).  :meth:`Frame.domain`
    then codes the rows by the root's positions.  A source made by
    :meth:`derived` computes that composition only when something reads
    its positions (a row-level gather), so an expression evaluated over
    the domain of the root's rows never composes them.
    """

    __slots__ = ("columns", "_positions", "nullable", "gathered",
                 "positions_sorted", "positions_key", "parent", "lazy")

    def __init__(self, columns: dict[str, BAT],
                 positions: np.ndarray | None = None,
                 nullable: bool = False,
                 gathered: dict[tuple, tuple] | None = None,
                 positions_sorted: bool = False,
                 positions_key: bool = False):
        self.columns = columns
        self._positions = positions
        self.nullable = nullable
        self.gathered = gathered
        self.positions_sorted = positions_sorted and not nullable
        self.positions_key = positions_key and not nullable
        self.parent: "tuple[_Source, np.ndarray] | None" = None
        self.lazy = False

    @classmethod
    def derived(cls, columns: dict[str, BAT], root: "_Source",
                vector: np.ndarray,
                gathered: dict[tuple, tuple] | None = None) -> "_Source":
        """A source whose positions are ``vector[root.positions]``
        (``vector`` without ``-1``), composed on first read."""
        source = cls(columns, None, False, gathered)
        source.parent = (root, vector)
        source.lazy = True
        return source

    @property
    def positions(self) -> np.ndarray | None:
        if self.lazy:
            root, vector = self.parent
            self._positions = vector[root.positions]
            self.lazy = False
        return self._positions

    def take(self, outer: np.ndarray, outer_nullable: bool = False,
             outer_sorted: bool = False, outer_key: bool = False,
             composed: dict | None = None) -> "_Source":
        """This source seen through ``outer``, positions into its rows;
        ``outer_sorted``/``outer_key`` describe ``outer``.  ``composed``
        holds the compositions through ``outer`` by position vector, so
        sources sharing a vector share its composition and gathers."""
        positions = self.positions
        if positions is None:
            return _Source(self.columns, outer, outer_nullable,
                           self.gathered, outer_sorted, outer_key)
        entry = None if composed is None else composed.get(id(positions))
        if entry is None:
            # -1 entries of a nullable source propagate through the
            # gather; -1 entries of a nullable outer stay -1.
            taken = (rel_join.compose(positions, outer) if outer_nullable
                     else positions[outer])
            entry = (positions, taken)
            if composed is not None:
                composed[id(positions)] = entry
        if outer_nullable:
            return _Source(self.columns, entry[1], True, self.gathered)
        return _Source(self.columns, entry[1], self.nullable, self.gathered,
                       self.positions_sorted and outer_sorted,
                       self.positions_key and outer_key)

    def base_rows(self) -> int:
        """The rows of the base relation."""
        return len(next(iter(self.columns.values())))

    def gather(self, name: str) -> BAT:
        base = self.columns[name]
        positions = self.positions
        if positions is None:
            return base
        if self.gathered is None:
            return self._gather(base)
        key = (id(base), id(positions), self.nullable)
        entry = self.gathered.get(key)
        if entry is None:
            # The entry holds the key's objects, so their ids stay unique
            # for as long as the table lives.
            entry = (base, positions, self._gather(base))
            self.gathered[key] = entry
        return entry[2]

    def _gather(self, base: BAT) -> BAT:
        if self.nullable:
            return rel_join.gather_nullable(base, self.positions)
        if base.dtype in _SCANNED_TAILS:
            # Vectorized scans cached on the base column (a catalog column
            # pays them once): a gathered copy inherits the bits, so it is
            # never scanned for nils, nor for order when gathered in order.
            base.tnonil
            if self.positions_sorted and base.dtype is not DataType.DBL:
                base.tsorted
        return base.fetch(self.positions, self.positions_sorted,
                          self.positions_key)


def _take_sources(sources: list[_Source], outer: np.ndarray,
                  nullable: bool = False, outer_sorted: bool = False,
                  outer_key: bool = False) -> list[_Source]:
    """Every source seen through ``outer``; a ``parent`` link to a source
    of the list follows it to its taken copy (through non-nullable
    positions only, so the root stays non-nullable), and a source whose
    positions are not composed yet stays so."""
    composed: dict = {}
    if nullable:
        return [s.take(outer, True, composed=composed) for s in sources]
    taken = [None if s.lazy else s.take(outer, False, outer_sorted,
                                          outer_key, composed)
             for s in sources]
    copies = {id(s): t for s, t in zip(sources, taken) if t is not None}
    for i, source in enumerate(sources):
        if source.parent is None:
            continue
        root = copies.get(id(source.parent[0]))
        if taken[i] is None:
            taken[i] = (source.take(outer, False, composed=composed)
                        if root is None
                        else _Source.derived(source.columns, root,
                                             source.parent[1],
                                             source.gathered))
        elif root is not None:
            taken[i].parent = (root, source.parent[1])
    return taken


_SCANNED_TAILS = (DataType.INT, DataType.DATE, DataType.TIME, DataType.OID,
                  DataType.DBL)


class Frame:
    """Rows of one or more base relations, with name bindings for
    expression resolution.

    A frame does not copy columns.  It keeps, per source relation, the
    base BATs and one int64 position vector (:class:`_Source`), so
    filters, sorts, limits and joins only compose position vectors.  A
    column is gathered when something first reads it (expression
    evaluation, projection, aggregation, :meth:`to_plain_relation`) and
    then stays cached in the frame.  Internal column names are globally
    unique so joins can combine sources without clashes while
    user-visible names stay resolvable (qualified or unqualified).
    :meth:`domain` codes rows by the positions of the sources an
    expression reads, so the expression can run over the distinct codes.

    A frame over a relation (:meth:`from_relation`) is a *view*: building
    it costs the same whatever the relation's width, and its bindings,
    sources and internal names are minted only when something first reads
    them (a relational operator resolving a name, a join combining it).
    ``origin`` is set only on a view, which nothing modifies, so
    :meth:`to_plain_relation` hands the relation itself back.  A relation
    that only passes from one RMA node to the next therefore costs no
    Python per column in the plan layer.
    """

    _counter = itertools.count(1)  # itertools: atomic under the GIL, so
    # concurrently evaluated subplans never mint the same internal name
    _mint_lock = threading.Lock()  # one minting per view, whoever asks

    def __init__(self, layout: Layout, sources: list[_Source], nrows: int,
                 cache: dict[str, BAT] | None = None,
                 classes: tuple[frozenset, ...] = ()):
        self._bind(layout, sources)
        self.nrows = nrows
        self.origin: Relation | None = None
        self._cache = cache if cache is not None else {}
        self.classes = classes

    def _bind(self, layout: Layout, sources: list[_Source]) -> None:
        # A later source overrides an earlier one for the names it holds;
        # sources no binding reads from are dropped.
        owner: dict[str, _Source] = {}
        for source in sources:
            owner.update(dict.fromkeys(source.columns, source))
        if len(sources) > 1 or not layout.bindings:
            used = {id(owner[b.internal]) for b in layout.bindings}
            sources = [s for s in sources if id(s) in used]
        self._owner = owner
        self.sources = sources
        self.layout = layout
        self.bindings = layout.bindings

    @classmethod
    def _fresh(cls, hint: str) -> str:
        return f"{hint}#{next(cls._counter)}"

    @classmethod
    def from_relation(cls, relation: Relation, alias: Optional[str],
                      gathered: dict[tuple, tuple] | None = None,
                      layouts: dict | None = None, key=None) -> "Frame":
        """A view of ``relation``; ``gathered`` is the executor's table of
        shared gathers (see :class:`_Source`), ``layouts`` and ``key``
        where its layout is kept (:func:`cached_layout`)."""
        frame = cls.__new__(cls)
        frame.nrows = relation.nrows
        frame.origin = relation
        frame._cache = {}
        frame.classes = ()
        frame._view = (relation, None, alias, gathered, layouts, key)
        return frame

    def pruned(self, names: Sequence[str], layouts: dict | None = None,
               key=None) -> "Frame | None":
        """A view of this view's columns named in ``names`` (a Prune over
        a scan), made before the view mints anything; ``None`` when this
        frame is not such a view or every column is kept."""
        view = self.__dict__.get("_view")
        if view is None or "layout" in self.__dict__:
            return None
        relation, _, alias, gathered, _, _ = view
        kept = tuple(i for i, n in enumerate(relation.names) if n in names)
        if not kept or len(kept) == len(relation.names):
            return None
        frame = Frame.from_relation(relation, alias, gathered, layouts, key)
        frame.origin = None  # not the relation: a subset of its columns
        frame._view = (relation, kept, alias, gathered, layouts, key)
        return frame

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the layout, bindings,
        # sources and owner table of a view before their first use.
        if name not in ("layout", "bindings", "sources", "_owner") \
                or "_view" not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        with Frame._mint_lock:
            if "layout" not in self.__dict__:
                relation, kept, alias, gathered, layouts, key = self._view
                names, columns = relation.names, relation.columns
                if kept is not None:
                    names = [names[i] for i in kept]
                    columns = [columns[i] for i in kept]
                names = tuple(names)
                layout = cached_layout(
                    layouts, key, (names,),
                    lambda: [Binding(alias, n, Frame._fresh(n))
                             for n in names])
                self._bind(layout, [_Source(
                    dict(zip(layout.internals(), columns)),
                    gathered=gathered)])
        return self.__dict__[name]

    @classmethod
    def wrap(cls, relation: Relation, layout: Layout) -> "Frame":
        """A frame over a relation whose column names are the internal
        names the layout's bindings refer to."""
        source = _Source(dict(zip(relation.names, relation.columns)))
        return cls(layout, [source], relation.nrows)

    @classmethod
    def joined(cls, left: "Frame", right: "Frame",
               lpos: np.ndarray | None, rpos: np.ndarray | None,
               lpos_sorted: bool = False, lpos_key: bool = False,
               classes: tuple[frozenset, ...] = (),
               root: "tuple[_Source, np.ndarray] | None" = None,
               layout: Layout | None = None) -> "Frame":
        """Row ``i`` pairs ``left`` row ``lpos[i]`` with ``right`` row
        ``rpos[i]`` (``-1``: no match, read as nil); ``lpos=None`` is the
        identity.

        A side whose positions are the identity keeps its position
        vectors and its already gathered columns.  ``lpos_sorted`` and
        ``lpos_key`` say that ``lpos`` is non-decreasing and free of
        duplicates; ``classes`` are the output's column equivalence
        classes.  ``root`` is ``(source, slot)`` when ``rpos ==
        slot[source.positions[lpos]]`` for a source of ``left``: the
        right side's sources then derive from it (``_Source.parent``).
        With a ``root``, ``rpos=None`` says that ``slot`` holds no ``-1``
        and ``lpos`` is the identity: the right side's positions are
        composed only when a gather reads them.  ``layout`` holds the
        bindings of both sides (by default a new one).
        """
        cache: dict[str, BAT] = {}
        root_copy = None
        if lpos is None or (len(lpos) == left.nrows and is_identity(lpos)):
            sources = list(left.sources)
            cache.update(left._cache)
            nrows = left.nrows
            if root is not None:
                root_copy = root[0]
        else:
            reusable = left._reusable_sources()
            sources = _take_sources(reusable, lpos, False, lpos_sorted,
                                    lpos_key)
            nrows = len(lpos)
            if root is not None:
                root_copy = next(copy for source, copy in
                                 zip(reusable, sources) if source is root[0])
        compose = rel_join.compose
        if rpos is None:
            sources += [_Source.derived(source.columns, root_copy,
                                        compose(source.positions, root[1]),
                                        source.gathered)
                        for source in right._reusable_sources()]
        else:
            nrows = len(rpos)
            nullable = bool(len(rpos)) and int(rpos.min()) < 0
            if (not nullable and len(rpos) == right.nrows
                    and is_identity(rpos)):
                sources += right.sources
                cache.update(right._cache)
            else:
                reusable = right._reusable_sources()
                taken = _take_sources(reusable, rpos, nullable)
                if root_copy is not None:
                    for source, copy in zip(reusable, taken):
                        copy.parent = (root_copy,
                                       compose(source.positions, root[1]))
                sources += taken
        if layout is None:
            layout = Layout(left.bindings + right.bindings)
        return cls(layout, sources, nrows, cache, classes)

    # -- resolution ----------------------------------------------------------

    def _matches(self, ref: ast.ColumnRef) -> list[Binding]:
        """The visible bindings ``ref`` names, else the hidden ones."""
        name, table = ref.name, ref.table
        matches = [b for b in self.bindings
                   if b.name == name and not b.hidden
                   and (table is None or b.alias == table)]
        if not matches:
            matches = [b for b in self.bindings
                       if b.name == name and b.hidden
                       and (table is None or b.alias == table)]
        return matches

    def find(self, ref: ast.ColumnRef) -> str | None:
        """:meth:`resolve`, or ``None`` where it would raise."""
        internal = self.layout.resolved.get(ref)
        if internal is not None:
            return internal
        matches = self._matches(ref)
        if not matches or (len(matches) > 1 and ref.table is None):
            return None
        internal = self.layout.resolved[ref] = matches[0].internal
        return internal

    def resolve(self, ref: ast.ColumnRef) -> str:
        """The internal name of the column ``ref`` names; the layout
        remembers it, so later frames of the layout look it up."""
        internal = self.layout.resolved.get(ref)
        if internal is not None:
            return internal
        matches = self._matches(ref)
        if not matches:
            known = sorted({b.name for b in self.bindings})
            raise BindError(
                f"unknown column {ref.to_sql()!r}; available: "
                f"{', '.join(known)}")
        if len(matches) > 1 and ref.table is None:
            aliases = sorted({str(b.alias) for b in matches})
            raise BindError(
                f"ambiguous column {ref.name!r} (in {', '.join(aliases)}); "
                "qualify it")
        internal = self.layout.resolved[ref] = matches[0].internal
        return internal

    def bat(self, internal: str) -> BAT:
        """The column with this internal name, gathered on first read."""
        column = self._cache.get(internal)
        if column is None:
            column = self._owner[internal].gather(internal)
            self._cache[internal] = column
        return column

    def column(self, ref: ast.ColumnRef) -> BAT:
        internal = self.layout.resolved.get(ref)
        return self.bat(internal if internal is not None
                        else self.resolve(ref))


    def base_codes(self, exprs: Sequence[ast.Expr], memo: dict) \
            -> "tuple[list[BAT], rel_join.KeyCodes] | None":
        """(base columns, their key codes at this frame's rows) when every
        expression is a nil-free integer column of one non-nullable
        source with at least ``1 / DENSE_SPAN_FACTOR`` of its base's rows,
        and the base codes (:func:`~repro.relational.joins.base_codes`)
        have a layout within ``DENSE_SPAN_FACTOR`` times the rows.
        ``memo`` is the statement's table of gathered codes
        (``Executor._codes``): a GROUP BY and a join over the same rows'
        columns gather them once."""
        source, bases = None, []
        for expr in exprs:
            if not isinstance(expr, ast.ColumnRef):
                return None
            internal = self.find(expr)
            if internal is None:
                return None
            owner = self._owner[internal]
            if owner is not source and source is not None:
                return None
            source = owner
            bases.append(owner.columns[internal])
        if source.nullable or not all(b.dtype in rel_join.INT_TAILS
                                      and b.tnonil for b in bases):
            return None
        positions = source.positions
        key = ("rows", id(positions)) + tuple(map(id, bases))
        entry = memo.get(key)
        if entry is None:
            rows = len(bases[0]) if positions is None else len(positions)
            if rows * rel_join.DENSE_SPAN_FACTOR < len(bases[0]):
                return None
            coded = rel_join.base_codes(bases)
            if (coded.layout is None
                    or coded.k > rel_join.DENSE_SPAN_FACTOR * max(rows, 1)):
                return None
            if positions is not None:
                coded = coded._replace(codes=coded.codes[positions])
            entry = memo.setdefault(key, (positions, bases, coded))
        return entry[1], entry[2]

    def dtype(self, internal: str) -> DataType:
        return self._owner[internal].columns[internal].dtype

    def visible_bindings(self) -> list[Binding]:
        return [b for b in self.bindings if not b.hidden]

    def star_bindings(self, table: Optional[str]) -> list[Binding]:
        if table is None:
            return self.visible_bindings()
        matches = [b for b in self.visible_bindings() if b.alias == table]
        if not matches:
            raise BindError(f"unknown table alias {table!r} in star")
        return matches

    def with_bindings(self, layout: Layout) -> "Frame":
        """The same rows with a subset of the bindings."""
        return Frame(layout, self.sources, self.nrows, dict(self._cache),
                     self.classes)

    def projected(self, names: list[str], columns: list[BAT],
                  layouts: dict | None = None, key=None) -> "Frame":
        """A frame whose visible columns are ``columns`` under ``names``.

        This frame's bindings stay resolvable as hidden bindings (so ORDER
        BY above a projection can reference source columns) without
        being gathered.  ``layouts`` and ``key`` keep the layout
        (:func:`cached_layout`).
        """
        def build() -> list[Binding]:
            return ([Binding(None, name, Frame._fresh(name))
                     for name in names]
                    + [Binding(b.alias, b.name, b.internal, hidden=True)
                       for b in self.bindings])

        layout = cached_layout(layouts, key, (self.layout, tuple(names)),
                               build)
        computed = _Source(dict(zip(layout.internals(), columns)))
        return Frame(layout, [computed] + self.sources, self.nrows,
                     dict(self._cache), self.classes)

    def to_relation(self, bindings: list[Binding]) -> Relation:
        """The bound columns under their internal names."""
        schema = Schema(Attribute(b.internal, self.dtype(b.internal))
                        for b in bindings)
        return Relation(schema, [self.bat(b.internal) for b in bindings])

    def to_plain_relation(self) -> Relation:
        """Expose user-visible names (for RMA inputs and final output).

        A view (:meth:`from_relation`) returns its relation itself, in
        constant time and with its (possibly warm) order cache — the plan
        layer's cross-operation cache reuse depends on this passthrough.
        """
        if self.origin is not None:
            return self.origin
        visible = self.visible_bindings()
        names = [b.name for b in visible]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise BindError(
                f"duplicate output columns {duplicates}; add aliases")
        schema = Schema(Attribute(b.name, self.dtype(b.internal))
                        for b in visible)
        return Relation(schema, [self.bat(b.internal) for b in visible])

    def domain(self, internals: Sequence[str]) \
            -> "tuple[Frame, np.ndarray] | None":
        """The distinct rows of the sources ``internals`` are read from,
        as a frame, and each row's index into it; ``None`` unless every
        such source has a position vector and their roots' base
        cardinalities (plus one for ``-1``) multiply to at most
        ``nrows / 8``.

        A source's root is its ``parent`` source when it derives from one
        (a join probed at the parent's rows), else the source itself.  A
        row's code is its roots' positions as the digits of one mixed
        radix number, ``-1`` (a LEFT JOIN miss) a digit of its own.  The
        codes that occur, in code order, are the domain; the domain frame
        reads each source's base columns at the positions its root's
        digits map to.  It shares this frame's layout: each reference of
        an expression over ``internals`` resolves as it does here.
        """
        owners: dict[int, _Source] = {}
        for internal in internals:
            source = self._owner[internal]
            if source.parent is None and source.positions is None:
                return None
            owners.setdefault(id(source), source)
        roots: dict[int, tuple[_Source, int]] = {}
        for source in owners.values():
            root = source if source.parent is None else source.parent[0]
            roots.setdefault(id(root), (root, root.base_rows()))
        strides = []
        size = 1
        for _, base in roots.values():
            strides.append(size)
            size *= base + 1
        if size * 8 > self.nrows:
            return None
        codes = None
        for (root, _), stride in zip(roots.values(), strides):
            digit = root.positions + 1 if root.nullable else root.positions
            if codes is None:
                codes = digit  # the first stride is 1
            else:
                digit = digit * stride
                digit += codes
                codes = digit
        distinct = np.flatnonzero(np.bincount(codes, minlength=size))
        if len(distinct) and distinct[-1] == len(distinct) - 1:
            rows = codes  # the codes 0 .. m - 1 all occur: their own index
        else:
            index = np.empty(size, dtype=np.int64)
            index[distinct] = np.arange(len(distinct), dtype=np.int64)
            rows = index[codes]
        digits = {}
        for (root, base), stride in zip(roots.values(), strides):
            positions = distinct // stride % (base + 1)
            if root.nullable:
                positions -= 1
            digits[id(root)] = positions
        sources = []
        for source in owners.values():
            if source.parent is None:
                positions = digits[id(source)]
            else:
                positions = source.parent[1][digits[id(source.parent[0])]]
            sources.append(_Source(source.columns, positions,
                                   source.nullable))
        frame = Frame.__new__(Frame)
        frame.layout, frame.bindings = self.layout, self.bindings
        frame._owner = {name: s for s in sources for name in s.columns}
        frame.sources, frame.nrows = sources, len(distinct)
        frame.origin, frame._cache, frame.classes = None, {}, ()
        return frame, rows

    def select_positions(self, positions: np.ndarray,
                         positions_sorted: bool = False,
                         positions_key: bool = False) -> "Frame":
        """The frame's rows at ``positions``: composes every source's
        position vector once; no column is gathered.  The flags say that
        ``positions`` is non-decreasing and free of duplicates."""
        return Frame(self.layout,
                     _take_sources(self._reusable_sources(), positions,
                                   False, positions_sorted, positions_key),
                     len(positions), classes=self.classes)

    def _reusable_sources(self) -> list[_Source]:
        """The sources plus one over the columns gathered so far, so a
        column read again after new positions is gathered from its
        gathered copy (LEFT JOIN nils are filled once) rather than from
        the base."""
        if not self._cache:
            return self.sources
        return self.sources + [_Source(dict(self._cache))]


# -- column equivalence classes -------------------------------------------

def equated_columns(equi: list[tuple[ast.Expr, ast.Expr]], left: Frame,
                    right: Frame) -> list[tuple[str, str]]:
    """The (left, right) internal names that an inner join's equi-join
    conjuncts of two bare columns of one dtype make equal on its rows."""
    pairs = []
    for lexpr, rexpr in equi:
        if isinstance(lexpr, ast.ColumnRef) \
                and isinstance(rexpr, ast.ColumnRef):
            a, b = left.find(lexpr), right.find(rexpr)
            if a is not None and b is not None \
                    and left.dtype(a) is right.dtype(b):
                pairs.append((a, b))
    return pairs


def equate_classes(classes: tuple[frozenset, ...],
                   pairs: list[tuple[str, str]]) -> tuple[frozenset, ...]:
    """Column equivalence classes with each pair's classes merged."""
    for a, b in pairs:
        merged = {a, b}
        rest = []
        for members in classes:
            if a in members or b in members:
                merged |= members
            else:
                rest.append(members)
        classes = tuple(rest) + (frozenset(merged),)
    return classes


def split_join_condition(condition: Optional[ast.Expr], left: Frame,
                         right: Frame) -> tuple[list, list]:
    """(equi pairs, residual conjuncts) of a join's condition: each
    ``a = b`` conjunct whose sides read one frame each is a ``(left
    expr, right expr)`` pair; every other conjunct is residual."""
    if condition is None:
        return [], []
    equi: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for conjunct in nodes.split_conjuncts(condition):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            sides = (_side_of(conjunct.left, left, right),
                     _side_of(conjunct.right, left, right))
            if sides == ("left", "right"):
                equi.append((conjunct.left, conjunct.right))
                continue
            if sides == ("right", "left"):
                equi.append((conjunct.right, conjunct.left))
                continue
        residual.append(conjunct)
    return equi, residual


def _side_of(expr: ast.Expr, left: Frame, right: Frame) -> str | None:
    """Which frame the columns of ``expr`` resolve in: ``"left"``,
    ``"right"``, ``"both"``, ``"unknown"`` or ``None`` (no column)."""
    refs = nodes.column_refs(expr)
    if not refs:
        return None
    sides = set()
    for ref in refs:
        if left.find(ref) is not None:
            sides.add("left")
        elif right.find(ref) is not None:
            sides.add("right")
        else:
            return "unknown"
    return sides.pop() if len(sides) == 1 else "both"
