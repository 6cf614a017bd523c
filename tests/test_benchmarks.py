"""Objective-function generation and evaluation checks."""

import math

import numpy as np
import pytest

from swarmnet.benchmarks import (
    BOUNDS,
    FunctionId,
    ObjectiveSpec,
    make_objective,
)
from swarmnet.errors import ConfigurationError, InputError

SHIFTED = [FunctionId.F2, FunctionId.F6, FunctionId.F14, FunctionId.F19]


def _spec(fid, dimension=20, group_size=5, domain_seed=3):
    return ObjectiveSpec(fid, dimension=dimension, group_size=group_size,
                         domain_seed=domain_seed)


class TestGeneration:
    def test_shift_inside_central_band(self):
        for fid in SHIFTED:
            obj = make_objective(_spec(fid))
            low, up = BOUNDS[fid]
            assert np.all(obj.shift > low)
            assert np.all(obj.shift < up)
            assert np.all(np.abs(obj.shift) <= 0.8 * up)

    def test_permutation_is_permutation(self):
        obj = make_objective(_spec(FunctionId.F14))
        assert sorted(obj.permutation) == list(range(20))

    def test_rotations_orthogonal(self):
        obj = make_objective(_spec(FunctionId.F14))
        assert len(obj.rotations) == 4
        for rot in obj.rotations:
            assert np.max(np.abs(rot @ rot.T - np.eye(5))) < 1e-12

    def test_same_seed_same_instance(self):
        a = make_objective(_spec(FunctionId.F6))
        b = make_objective(_spec(FunctionId.F6))
        assert np.array_equal(a.shift, b.shift)
        assert np.array_equal(a.permutation, b.permutation)
        assert np.array_equal(a.rotations[0], b.rotations[0])

    def test_different_seed_different_shift(self):
        a = make_objective(_spec(FunctionId.F2, domain_seed=1))
        b = make_objective(_spec(FunctionId.F2, domain_seed=2))
        assert not np.array_equal(a.shift, b.shift)

    def test_sphere_has_no_shift(self):
        obj = make_objective(_spec(FunctionId.SPHERE))
        assert np.all(obj.shift == 0.0)
        assert obj.rotations == ()

    def test_arrays_read_only(self):
        obj = make_objective(_spec(FunctionId.F2))
        with pytest.raises(ValueError):
            obj.shift[0] = 1.0


class TestValidation:
    def test_dimension_positive(self):
        with pytest.raises(ConfigurationError):
            _spec(FunctionId.F2, dimension=0).validate()

    def test_f6_group_within_dimension(self):
        with pytest.raises(ConfigurationError):
            _spec(FunctionId.F6, dimension=10, group_size=11).validate()
        _spec(FunctionId.F6, dimension=10, group_size=10).validate()

    def test_f14_group_must_divide(self):
        with pytest.raises(ConfigurationError):
            _spec(FunctionId.F14, dimension=10, group_size=3).validate()
        _spec(FunctionId.F14, dimension=10, group_size=5).validate()

    def test_evaluate_rejects_bad_shape(self):
        obj = make_objective(_spec(FunctionId.SPHERE))
        with pytest.raises(InputError):
            obj.evaluate_many(np.zeros((3, 7)))
        with pytest.raises(InputError):
            obj.evaluate_many(np.zeros(20))


class TestValuesAtOptimum:
    def test_shifted_functions_vanish_at_shift(self):
        for fid in SHIFTED:
            obj = make_objective(_spec(fid, dimension=30, group_size=5))
            assert abs(obj.evaluate_many(obj.shift[None])[0]) <= 1e-9

    def test_sphere_vanishes_at_origin(self):
        obj = make_objective(_spec(FunctionId.SPHERE))
        assert obj.evaluate_many(np.zeros((1, 20)))[0] == 0.0

    def test_positive_away_from_optimum(self):
        for fid in SHIFTED + [FunctionId.SPHERE]:
            obj = make_objective(_spec(fid, dimension=10, group_size=5))
            rng = np.random.default_rng(99)
            x = obj.shift + rng.uniform(0.5, 1.0, 10)
            assert obj.evaluate_many(x[None])[0] > 0.0


def _rastrigin_ref(z):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in z)


def _ackley_ref(z):
    d = len(z)
    s1 = sum(v * v for v in z) / d
    s2 = sum(math.cos(2.0 * math.pi * v) for v in z) / d
    return -20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20.0 + math.e


def _elliptic_ref(z):
    d = len(z)
    if d == 1:
        return z[0] * z[0]
    return sum(
        (10.0 ** 6) ** (i / (d - 1)) * z[i] * z[i] for i in range(d)
    )


def _schwefel_ref(z):
    total = 0.0
    for i in range(len(z)):
        partial = sum(z[: i + 1])
        total += partial * partial
    return total


class TestValuesAgainstReference:
    def _point(self, obj, seed=7):
        rng = np.random.default_rng(seed)
        low, up = obj.bounds
        return rng.uniform(low, up, obj.dimension)

    def test_f2_matches_reference(self):
        obj = make_objective(_spec(FunctionId.F2, dimension=12))
        x = self._point(obj)
        z = x - obj.shift
        expected = _rastrigin_ref(list(z))
        assert obj.evaluate_many(x[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_f6_matches_reference(self):
        obj = make_objective(_spec(FunctionId.F6, dimension=12, group_size=4))
        x = self._point(obj)
        z = (x - obj.shift)[obj.permutation]
        head = obj.rotations[0] @ z[:4]
        expected = 1e6 * _ackley_ref(list(head)) + _ackley_ref(list(z[4:]))
        assert obj.evaluate_many(x[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_f6_fully_rotated_has_no_tail(self):
        obj = make_objective(_spec(FunctionId.F6, dimension=8, group_size=8))
        x = self._point(obj)
        z = (x - obj.shift)[obj.permutation]
        expected = 1e6 * _ackley_ref(list(obj.rotations[0] @ z))
        assert obj.evaluate_many(x[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_f14_matches_reference(self):
        obj = make_objective(_spec(FunctionId.F14, dimension=12, group_size=3))
        x = self._point(obj)
        z = (x - obj.shift)[obj.permutation]
        expected = sum(
            _elliptic_ref(list(obj.rotations[g] @ z[3 * g: 3 * g + 3]))
            for g in range(4)
        )
        assert obj.evaluate_many(x[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_f19_matches_reference(self):
        obj = make_objective(_spec(FunctionId.F19, dimension=12))
        x = self._point(obj)
        z = x - obj.shift
        assert obj.evaluate_many(x[None])[0] == pytest.approx(_schwefel_ref(list(z)), rel=1e-12)

    def test_sphere_matches_reference(self):
        obj = make_objective(_spec(FunctionId.SPHERE, dimension=12))
        x = self._point(obj)
        assert obj.evaluate_many(x[None])[0] == pytest.approx(float(np.sum(x * x)), rel=1e-12)


class TestBatchEvaluation:
    def test_batch_equals_scalar_loop(self):
        # Rotated groups go through matrix products whose accumulation
        # order depends on the batch shape, so those functions are only
        # reproducible to rounding; the rest must agree exactly.
        rotated = {FunctionId.F6, FunctionId.F14}
        for fid in SHIFTED + [FunctionId.SPHERE]:
            obj = make_objective(_spec(fid, dimension=10, group_size=5))
            rng = np.random.default_rng(11)
            low, up = obj.bounds
            xs = rng.uniform(low, up, (6, 10))
            batch = obj.evaluate_many(xs)
            assert batch.shape == (6,)
            for row, value in zip(xs, batch):
                if fid in rotated:
                    assert obj.evaluate_many(row[None])[0] == pytest.approx(value, rel=1e-12)
                else:
                    assert obj.evaluate_many(row[None])[0] == value

    def test_row_blocks_do_not_change_any_bit(self):
        # A row-block runner may split the rows anywhere: sphere, F2 and F19
        # are row-local, and F6 and F14 never split their matrix products.
        calls = []

        def uneven_blocks(fn):
            for lo, hi in ((0, 1), (1, 4), (4, 4), (4, 7)):
                calls.append((lo, hi))
                fn(lo, hi)

        for fid in SHIFTED + [FunctionId.SPHERE]:
            obj = make_objective(_spec(fid, dimension=10, group_size=5))
            xs = np.random.default_rng(12).uniform(*obj.bounds, (7, 10))
            whole = obj.evaluate_many(xs)
            calls.clear()
            blocked = obj.evaluate_many(xs, rows=uneven_blocks)
            assert blocked.tobytes() == whole.tobytes()
            assert bool(calls) == (fid not in (FunctionId.F6, FunctionId.F14))
