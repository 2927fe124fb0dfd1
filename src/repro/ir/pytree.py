"""Minimal pytree utilities (flatten/unflatten nested containers).

The public API of the reproduction — like JAX's — passes parameters,
optimizer state, and batches around as nested dicts/tuples/lists of arrays.
These helpers flatten such containers to leaf lists plus a static
:class:`TreeDef` that can rebuild them, which is how traced functions with
structured inputs/outputs are handled throughout :mod:`repro.core`.

Only the containers the repo actually uses are supported: ``dict`` (keys
sorted for determinism), ``list``, ``tuple``, ``namedtuple``, dataclasses
(e.g. ``TrainState``), and ``None``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

__all__ = [
    "TreeDef",
    "tree_flatten",
    "tree_unflatten",
    "tree_map",
    "tree_leaves",
    "tree_structure",
    "tree_all",
]


_LEAF = "leaf"
_NONE = "none"


@dataclasses.dataclass(frozen=True)
class TreeDef:
    """Static structure of a pytree.

    ``kind`` is one of ``"leaf"``, ``"none"``, ``"list"``, ``"tuple"``,
    ``"namedtuple"``, ``"dict"``. ``meta`` holds dict keys or the namedtuple
    class; ``children`` the child TreeDefs.
    """

    kind: str
    meta: Any = None
    children: tuple["TreeDef", ...] = ()

    @property
    def num_leaves(self) -> int:
        """Number of leaf slots in the tree."""
        if self.kind == _LEAF:
            return 1
        return sum(c.num_leaves for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == _LEAF:
            return "*"
        if self.kind == _NONE:
            return "None"
        if self.kind == "dict":
            inner = ", ".join(f"{k!r}: {c!r}" for k, c in zip(self.meta, self.children))
            return "{" + inner + "}"
        inner = ", ".join(repr(c) for c in self.children)
        return f"{self.kind}({inner})"


_LEAF_DEF = TreeDef(_LEAF)
_NONE_DEF = TreeDef(_NONE)


def _node_kind(cls: type) -> tuple[str, Any]:
    """``(kind, fields)`` of a node of type ``cls``: every probe is a
    property of the type, so :data:`_KINDS` caches it per type."""
    if cls is type(None):
        return _NONE, None
    if dataclasses.is_dataclass(cls):
        return "dataclass", tuple(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, tuple):
        return ("namedtuple" if hasattr(cls, "_fields") else "tuple"), None
    if issubclass(cls, list):
        return "list", None
    if issubclass(cls, dict):
        return "dict", None
    return _LEAF, None


_KINDS: dict[type, tuple[str, Any]] = {}


def tree_flatten(tree: Any) -> tuple[list[Any], TreeDef]:
    """Flatten ``tree`` into ``(leaves, treedef)``."""
    leaves: list[Any] = []
    return leaves, _flatten_into(tree, leaves)


def _flatten_into(node: Any, leaves: list[Any]) -> TreeDef:
    # a module-level recursion, not a closure over ``leaves``: a local
    # function that calls itself is a reference cycle, which would keep
    # every leaf of every call alive until the cycle collector runs
    cls = type(node)
    kind = _KINDS.get(cls)
    if kind is None:
        kind = _KINDS[cls] = _node_kind(cls)
    kind, fields = kind
    if kind is _LEAF:
        leaves.append(node)
        return _LEAF_DEF
    if kind is _NONE:
        return _NONE_DEF
    if kind == "dict":
        keys = tuple(sorted(node.keys(), key=repr))
        return TreeDef(kind, keys, tuple([_flatten_into(node[k], leaves) for k in keys]))
    if kind == "dataclass":
        kids = tuple([_flatten_into(getattr(node, f), leaves) for f in fields])
        return TreeDef(kind, (cls, fields), kids)
    kids = tuple([_flatten_into(c, leaves) for c in node])
    return TreeDef(kind, cls if kind == "namedtuple" else None, kids)


def tree_unflatten(treedef: TreeDef, leaves: Iterable[Any]) -> Any:
    """Rebuild a pytree from ``treedef`` and an iterable of leaves."""
    it = iter(leaves)
    out = _unflatten_from(treedef, it)
    rest = list(it)
    if rest:
        raise ValueError(f"too many leaves for treedef: {len(rest)} left over")
    return out


def _unflatten_from(td: TreeDef, it) -> Any:
    # module-level for the reason :func:`_flatten_into` is
    if td.kind == _LEAF:
        return next(it)
    if td.kind == _NONE:
        return None
    if td.kind == "dict":
        return {k: _unflatten_from(c, it) for k, c in zip(td.meta, td.children)}
    kids = [_unflatten_from(c, it) for c in td.children]
    if td.kind == "list":
        return kids
    if td.kind == "namedtuple":
        return td.meta(*kids)
    if td.kind == "dataclass":
        cls, fields = td.meta
        return cls(**dict(zip(fields, kids)))
    return tuple(kids)


def tree_leaves(tree: Any) -> list[Any]:
    """Return the flat list of leaves of ``tree``."""
    return tree_flatten(tree)[0]


def tree_structure(tree: Any) -> TreeDef:
    """Return the :class:`TreeDef` of ``tree``."""
    return tree_flatten(tree)[1]


def tree_map(f: Callable[..., Any], tree: Any, *rest: Any) -> Any:
    """Map ``f`` over corresponding leaves of one or more pytrees.

    All trees must share the structure of the first one.
    """
    leaves, treedef = tree_flatten(tree)
    other = []
    for t in rest:
        lv, td = tree_flatten(t)
        if td != treedef:
            raise ValueError(f"tree structure mismatch: {treedef!r} vs {td!r}")
        other.append(lv)
    return tree_unflatten(treedef, [f(*args) for args in zip(leaves, *other)])


def tree_all(tree: Any) -> bool:
    """True if every leaf of ``tree`` is truthy."""
    return all(bool(x) for x in tree_leaves(tree))
