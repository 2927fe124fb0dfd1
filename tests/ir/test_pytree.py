"""Unit tests for the minimal pytree utilities."""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.ir import tree_flatten, tree_leaves, tree_map, tree_structure, tree_unflatten
from repro.ir.pytree import TreeDef

Point = collections.namedtuple("Point", ["x", "y"])


class TestFlattenUnflatten:
    def test_leaf(self):
        leaves, td = tree_flatten(42)
        assert leaves == [42]
        assert tree_unflatten(td, leaves) == 42

    def test_nested(self):
        t = {"a": [1, 2], "b": (3, {"c": 4})}
        leaves, td = tree_flatten(t)
        assert leaves == [1, 2, 3, 4]
        assert tree_unflatten(td, leaves) == t

    def test_dict_key_order_deterministic(self):
        t1 = {"b": 1, "a": 2}
        t2 = {"a": 2, "b": 1}
        assert tree_flatten(t1) == tree_flatten(t2)
        assert tree_flatten(t1)[0] == [2, 1]  # sorted keys: a, b

    def test_none_is_structure(self):
        leaves, td = tree_flatten({"a": None, "b": 1})
        assert leaves == [1]
        assert tree_unflatten(td, leaves) == {"a": None, "b": 1}

    def test_namedtuple(self):
        p = Point(1, (2, 3))
        leaves, td = tree_flatten(p)
        assert leaves == [1, 2, 3]
        out = tree_unflatten(td, leaves)
        assert isinstance(out, Point) and out == p

    def test_too_many_leaves_raises(self):
        _, td = tree_flatten((1, 2))
        with pytest.raises(ValueError):
            tree_unflatten(td, [1, 2, 3])

    def test_leaves_are_freed_without_the_cycle_collector(self):
        """Flatten / unflatten leave no reference cycle behind: a step
        function flattens its whole state every call, and a cycle would
        keep each call's arrays alive until the collector next runs."""
        gc.collect()
        gc.disable()
        try:
            leaf = np.zeros(8)
            gone = weakref.ref(leaf)
            leaves, td = tree_flatten({"a": [leaf, 1], "b": (2, None)})
            out = tree_unflatten(td, leaves)
            del leaf, leaves, out
            assert gone() is None
        finally:
            gc.enable()

    def test_num_leaves(self):
        _, td = tree_flatten({"a": [1, 2, 3], "b": None})
        assert td.num_leaves == 3


class TestTreeMap:
    def test_single(self):
        assert tree_map(lambda x: x * 2, {"a": 1, "b": [2, 3]}) == {"a": 2, "b": [4, 6]}

    def test_multi(self):
        a = {"x": 1, "y": 2}
        b = {"x": 10, "y": 20}
        assert tree_map(lambda p, q: p + q, a, b) == {"x": 11, "y": 22}

    def test_structure_mismatch(self):
        with pytest.raises(ValueError):
            tree_map(lambda p, q: p, {"x": 1}, {"y": 1})

    def test_arrays(self):
        t = {"w": np.ones((2, 2))}
        out = tree_map(np.sum, t)
        assert out == {"w": 4.0}


class TestStructure:
    def test_leaves(self):
        assert tree_leaves([1, {"a": 2}, (3,)]) == [1, 2, 3]

    def test_structure_equality(self):
        assert tree_structure({"a": 1}) == tree_structure({"a": 99})
        assert tree_structure([1]) != tree_structure((1,))


@dataclasses.dataclass
class State:
    params: dict
    step: int
    extra: object = None


class Pair(tuple):
    pass


class Items(list):
    pass


class Table(dict):
    pass


class Marked(np.ndarray):
    pass


def generic_flatten(node, leaves):
    """The flatten walk with every probe made on the node itself."""
    if node is None:
        return TreeDef("none")
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        fields = tuple(f.name for f in dataclasses.fields(node))
        kids = tuple(generic_flatten(getattr(node, f), leaves) for f in fields)
        return TreeDef("dataclass", (type(node), fields), kids)
    if isinstance(node, tuple) and hasattr(type(node), "_fields"):
        return TreeDef("namedtuple", type(node), tuple(generic_flatten(c, leaves) for c in node))
    if isinstance(node, tuple):
        return TreeDef("tuple", None, tuple(generic_flatten(c, leaves) for c in node))
    if isinstance(node, list):
        return TreeDef("list", None, tuple(generic_flatten(c, leaves) for c in node))
    if isinstance(node, dict):
        keys = tuple(sorted(node.keys(), key=repr))
        return TreeDef("dict", keys, tuple(generic_flatten(node[k], leaves) for k in keys))
    leaves.append(node)
    return TreeDef("leaf")


class TestKindCache:
    def test_same_treedef_and_leaves_as_the_generic_walk(self):
        """Node kinds are decided once per type; the treedef and the leaf
        order are those of a walk that probes every node."""
        marked = np.arange(3.0).view(Marked)
        tree = (
            State(
                params=Table(b=Items([1, None, Pair((2, 3))]), a=Point(marked, {"z": 4})),
                step=5,
                extra=[State({}, 6), (), Pair(()), Items(), Table(), None],
            ),
            State,  # a dataclass type is a leaf, not a node
            [np.float32(7), "s"],
        )
        for _ in range(2):  # the second walk reads every kind from the cache
            leaves, td = tree_flatten(tree)
            want_leaves = []
            want = generic_flatten(tree, want_leaves)
            assert td == want and repr(td) == repr(want)
            assert len(leaves) == len(want_leaves)
            assert all(a is b for a, b in zip(leaves, want_leaves))
        assert type(leaves[0]) is Marked
        out = tree_unflatten(td, leaves)
        assert isinstance(out[0], State) and isinstance(out[0].params["a"], Point)
        assert tree_structure(out) == td
