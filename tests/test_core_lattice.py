"""Unit tests for the liveness order machinery (repro.core.lattice)."""

import pytest

from repro.core.freedom import LKFreedom
from repro.core.lattice import LivenessOrder
from repro.core.liveness import Lmax, LockFreedom


def make_order(n=3, extra=()):
    properties = list(LKFreedom.grid(n)) + list(extra)
    return LivenessOrder(properties, n)


class TestRelations:
    def test_reflexive_equality(self):
        order = make_order()
        prop = LKFreedom(1, 2)
        assert order.relate(prop, LKFreedom(1, 2)).kind == "equal"

    def test_known_strict_order(self):
        order = make_order()
        # (2,2) admits a subset of (1,2)'s executions: stronger.
        assert order.relate(LKFreedom(2, 2), LKFreedom(1, 2)).kind == "stronger"
        assert order.relate(LKFreedom(1, 2), LKFreedom(2, 2)).kind == "weaker"

    def test_incomparable_pair_has_witnesses(self):
        order = make_order()
        witnesses = order.incomparability_witnesses(LKFreedom(1, 3), LKFreedom(2, 2))
        assert witnesses is not None
        only_13, only_22 = witnesses
        assert LKFreedom(1, 3).evaluate(only_13).holds
        assert not LKFreedom(2, 2).evaluate(only_13).holds
        assert LKFreedom(2, 2).evaluate(only_22).holds
        assert not LKFreedom(1, 3).evaluate(only_22).holds

    def test_no_witnesses_for_comparable_pair(self):
        order = make_order()
        assert order.incomparability_witnesses(LKFreedom(2, 2), LKFreedom(1, 2)) is None

    def test_transitivity_of_stronger(self):
        order = make_order()
        pairs = set(order.strictly_stronger_pairs())
        names = {p.name for p in order.properties}
        for a, b in pairs:
            for c in names:
                if (b, c) in pairs:
                    assert (a, c) in pairs or a == c

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LivenessOrder([LKFreedom(1, 1), LKFreedom(1, 1)], 2)


class TestGlobalStructure:
    def test_lmax_is_unique_maximal_element(self):
        order = LivenessOrder(
            [Lmax(), LockFreedom(), LKFreedom(1, 1)], n_processes=3
        )
        assert order.maximal_elements() == ["Lmax"]
        assert order.minimal_elements() == ["(1,1)-freedom"]

    def test_grid_is_not_totally_ordered(self):
        assert not make_order().is_totally_ordered()

    def test_chain_is_totally_ordered(self):
        order = LivenessOrder([Lmax(), LockFreedom(), LKFreedom(1, 1)], 3)
        assert order.is_totally_ordered()

    def test_hasse_edges_have_no_shortcuts(self):
        order = LivenessOrder([Lmax(), LockFreedom(), LKFreedom(1, 1)], 2)
        edges = order.hasse_edges()
        assert ("Lmax", "lock-freedom") in edges
        assert ("lock-freedom", "(1,1)-freedom") in edges
        assert ("Lmax", "(1,1)-freedom") not in edges

    def test_relation_matrix_is_complete(self):
        order = make_order(n=2)
        matrix = order.relation_matrix()
        names = [p.name for p in order.properties]
        assert len(matrix) == len(names) ** 2
        for name in names:
            assert matrix[(name, name)] == "equal"

    def test_strongest_below_restricted_candidates(self):
        order = make_order(n=3)
        candidates = [LKFreedom(1, 1), LKFreedom(1, 2), LKFreedom(1, 3)]
        assert order.strongest_below(candidates) == ["(1,3)-freedom"]

    def test_strongest_below_antichain_returns_all(self):
        order = make_order(n=3)
        candidates = [LKFreedom(1, 3), LKFreedom(2, 2)]
        assert set(order.strongest_below(candidates)) == {
            "(1,3)-freedom",
            "(2,2)-freedom",
        }
