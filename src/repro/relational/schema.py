"""Relation schemas.

A schema is a finite *ordered* set of attribute names with types (paper
§3.1).  Order matters: the matrix constructor reads application columns in
schema order, and the relation constructor assigns base-result columns to
attribute names positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bat.bat import DataType
from repro.errors import SchemaError


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not self.name:
            raise SchemaError("attribute names must be non-empty")
        if not isinstance(self.dtype, DataType):
            raise SchemaError(
                f"attribute {self.name!r} has invalid type {self.dtype!r}")

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.dtype)

    def __str__(self) -> str:
        return f"{self.name} {self.dtype.value}"


class Schema:
    """An ordered set of attributes with unique names."""

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not all(isinstance(attr, Attribute) for attr in attrs):
            _raise_invalid(attrs)
        self._set(attrs)

    def _set(self, attrs: tuple[Attribute, ...]) -> None:
        index = {attr.name: i for i, attr in enumerate(attrs)}
        if len(index) != len(attrs):
            _raise_invalid(attrs)
        self._attributes = attrs
        self._index = index

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, *pairs: tuple[str, DataType]) -> "Schema":
        """Build a schema from (name, type) pairs."""
        return cls(Attribute(name, dtype) for name, dtype in pairs)

    @classmethod
    def derived(cls, attrs: tuple[Attribute, ...]) -> "Schema":
        """A schema over attributes taken from valid schemas (or built as
        :class:`Attribute`), where only the names' uniqueness can break."""
        schema = cls.__new__(cls)
        schema._set(attrs)
        return schema

    # -- accessors ---------------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> list[str]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, item: int | str) -> Attribute:
        if isinstance(item, str):
            return self._attributes[self.index(item)]
        return self._attributes[item]

    def index(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(
                f"unknown attribute {name!r}; schema is ({', '.join(self.names)})")
        return self._index[name]

    def positions(self, names: Iterable[str]) -> list[int | None]:
        """The position of each of ``names``; None for one not in the
        schema."""
        return list(map(self._index.get, names))

    def dtype(self, name: str) -> DataType:
        return self[name].dtype

    # -- derivations -------------------------------------------------------

    def project(self, names: Iterable[str]) -> "Schema":
        """Sub-schema with the given attributes, in the *given* order."""
        return Schema.derived(tuple(self[name] for name in names))

    def complement(self, names: Iterable[str]) -> list[str]:
        """Attribute names not in ``names``, in schema order.

        This is the paper's application schema: ``U-bar = R - U``.
        """
        excluded = set(names)
        unknown = excluded - self._index.keys()
        if unknown:
            raise SchemaError(
                f"unknown attributes {sorted(unknown)}; "
                f"schema is ({', '.join(self.names)})")
        return [n for n in self.names if n not in excluded]

    def rename(self, mapping: dict[str, str]) -> "Schema":
        unknown = mapping.keys() - self._index.keys()
        if unknown:
            raise SchemaError(f"cannot rename unknown attributes "
                              f"{sorted(unknown)}")
        return Schema.derived(tuple(
            attr.renamed(mapping[attr.name]) if attr.name in mapping
            else attr for attr in self._attributes))

    def concat(self, other: "Schema") -> "Schema":
        """Schema concatenation ``R ∘ S`` (names must stay unique)."""
        return Schema.derived(self._attributes + other._attributes)

    def union_compatible(self, other: "Schema") -> bool:
        """Same arity and pairwise compatible types (names may differ)."""
        if len(self) != len(other):
            return False
        for a, b in zip(self._attributes, other._attributes):
            if a.dtype is b.dtype:
                continue
            if a.dtype.is_numeric and b.dtype.is_numeric:
                continue
            return False
        return True

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self._attributes)
        return f"Schema({inner})"


def _raise_invalid(attrs: tuple) -> None:
    """Raise the first error, in attribute order, that makes ``attrs`` no
    valid schema: an entry that is no :class:`Attribute`, or a name seen
    before."""
    seen: set[str] = set()
    for attr in attrs:
        if not isinstance(attr, Attribute):
            raise SchemaError(f"expected Attribute, got {attr!r}")
        if attr.name in seen:
            raise SchemaError(
                f"duplicate attribute name {attr.name!r} in schema")
        seen.add(attr.name)
