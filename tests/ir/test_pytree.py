"""Unit tests for the minimal pytree utilities."""

import collections
import gc
import weakref

import numpy as np
import pytest

from repro.ir import tree_flatten, tree_leaves, tree_map, tree_structure, tree_unflatten

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
