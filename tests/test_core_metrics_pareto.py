"""Tests for TAR/CAR metrics and the Pareto filter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import car, pareto_front, pareto_indices, tar
from repro.core.metrics import car_array, tar_array


class TestMetrics:
    def test_definitions(self):
        # Section 3.5: TAR = t/a, CAR = c/a
        assert tar(2.0, 0.5) == 4.0
        assert car(0.9, 0.8) == pytest.approx(1.125)

    def test_lower_is_better_semantics(self):
        # same time, higher accuracy -> lower (better) TAR
        assert tar(1.0, 0.8) < tar(1.0, 0.4)

    def test_zero_accuracy_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            tar(1.0, 0.0)

    def test_above_one_accuracy_rejected(self):
        with pytest.raises(ValueError):
            car(1.0, 1.5)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            tar(-1.0, 0.5)

    def test_array_forms(self):
        t = tar_array([1.0, 2.0, 3.0], [0.5, 0.0, 1.0])
        np.testing.assert_allclose(t, [2.0, np.inf, 3.0])
        np.testing.assert_allclose(
            car_array([1.0], [0.25]), [4.0]
        )

    def test_array_validation(self):
        with pytest.raises(ValueError):
            tar_array([-1.0], [0.5])
        with pytest.raises(ValueError):
            tar_array([1.0], [1.5])

    @given(
        st.floats(0.001, 100.0),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_accuracy(self, t, a1, a2):
        lo, hi = sorted([a1, a2])
        assert tar(t, hi) <= tar(t, lo)


class TestParetoIndices:
    def test_simple_front(self):
        acc = [0.9, 0.8, 0.7, 0.6]
        obj = [10.0, 5.0, 7.0, 2.0]
        idx = set(pareto_indices(acc, obj).tolist())
        # 0.7/7.0 dominated by 0.8/5.0
        assert idx == {0, 1, 3}

    def test_single_point(self):
        assert pareto_indices([0.5], [1.0]).tolist() == [0]

    def test_empty(self):
        assert pareto_indices([], []).size == 0

    def test_duplicates_keep_one(self):
        acc = [0.5, 0.5, 0.5]
        obj = [1.0, 1.0, 1.0]
        assert len(pareto_indices(acc, obj)) == 1

    def test_equal_accuracy_lowest_objective_wins(self):
        acc = [0.5, 0.5]
        obj = [2.0, 1.0]
        assert pareto_indices(acc, obj).tolist() == [1]

    def test_equal_objective_highest_accuracy_wins(self):
        acc = [0.9, 0.5]
        obj = [1.0, 1.0]
        assert pareto_indices(acc, obj).tolist() == [0]

    def test_sorted_by_descending_accuracy(self):
        acc = [0.1, 0.9, 0.5]
        obj = [1.0, 9.0, 4.0]
        idx = pareto_indices(acc, obj)
        accs = [acc[i] for i in idx]
        assert accs == sorted(accs, reverse=True)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            pareto_indices([1.0], [1.0, 2.0])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.1, 100)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_no_front_point_dominated(self, points):
        """Property: no returned point is dominated by any input point."""
        acc = [p[0] for p in points]
        obj = [p[1] for p in points]
        front = pareto_indices(acc, obj)
        for i in front:
            for j in range(len(points)):
                dominated = (
                    acc[j] >= acc[i]
                    and obj[j] <= obj[i]
                    and (acc[j] > acc[i] or obj[j] < obj[i])
                )
                assert not dominated

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.1, 100)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_every_point_dominated_by_some_front_point(self, points):
        """Property: the front covers the whole set (weak domination)."""
        acc = [p[0] for p in points]
        obj = [p[1] for p in points]
        front = pareto_indices(acc, obj)
        for j in range(len(points)):
            assert any(
                acc[i] >= acc[j] and obj[i] <= obj[j] for i in front
            )


def _scan_pareto_indices(acc, obj):
    """The former per-point scan, kept as the reference for the kernel."""
    acc = np.asarray(acc, dtype=float)
    obj = np.asarray(obj, dtype=float)
    order = np.lexsort((np.arange(acc.size), obj, -acc))
    keep = []
    best_obj = np.inf
    for idx in order:
        if obj[idx] < best_obj:
            keep.append(int(idx))
            best_obj = obj[idx]
    return np.asarray(keep, dtype=np.intp)


#: few distinct values, so ties are common; NaN and both infinities
_EDGY = st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, np.nan, np.inf, -np.inf]
) | st.floats(allow_nan=True, allow_infinity=True)


class TestParetoKernel:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1),
                st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.1, 100),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_dominance(self, points):
        """Finite inputs: exactly the undominated points, first of ties."""
        acc = [p[0] for p in points]
        obj = [p[1] for p in points]
        expected = {
            i
            for i, (a, o) in enumerate(points)
            if not any(
                (b >= a and q <= o and (b > a or q < o))
                or ((b, q) == (a, o) and j < i)
                for j, (b, q) in enumerate(points)
            )
        }
        assert set(pareto_indices(acc, obj).tolist()) == expected

    @given(st.lists(st.tuples(_EDGY, _EDGY), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_with_nan_inf_and_ties(self, points):
        acc = [p[0] for p in points]
        obj = [p[1] for p in points]
        got = pareto_indices(acc, obj)
        assert got.dtype == np.intp
        assert got.tolist() == _scan_pareto_indices(acc, obj).tolist()


class TestParetoFront:
    def test_payloads_preserved(self):
        points = [(0.9, 10.0, "a"), (0.8, 5.0, "b"), (0.7, 7.0, "c")]
        front = pareto_front(points)
        assert [p.payload for p in front] == ["a", "b"]
        assert front[0].accuracy == 0.9

    def test_empty_input(self):
        assert pareto_front([]) == []
