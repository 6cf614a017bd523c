"""Benchmark objective functions in the shifted/rotated large-scale style.

Four functions cover the main problem characteristics (multi-modality,
partial and full non-separability) plus an unshifted sphere used as an
analytic control:

* F2     shifted Rastrigin, bounds [-5, 5]
* F6     single-group m-rotated shifted Ackley (rotated group weighted 1e6),
         bounds [-32, 32]
* F14    d/m-group m-rotated shifted elliptic, bounds [-100, 100]
* F19    shifted Schwefel 1.2, bounds [-100, 100]
* SPHERE sum of squares, no shift, bounds [-100, 100]

Shift vectors, index permutations, and orthogonal rotation matrices are not
loaded from data files; they are generated deterministically from a 64-bit
``domain_seed`` so any instance can be regenerated bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import ConfigurationError, InputError


class FunctionId(str, Enum):
    F2 = "f2"
    F6 = "f6"
    F14 = "f14"
    F19 = "f19"
    SPHERE = "sphere"


# Search bounds per function family.
BOUNDS = {
    FunctionId.F2: (-5.0, 5.0),
    FunctionId.F6: (-32.0, 32.0),
    FunctionId.F14: (-100.0, 100.0),
    FunctionId.F19: (-100.0, 100.0),
    FunctionId.SPHERE: (-100.0, 100.0),
}

# Fraction of the domain the shift vector is drawn from, keeping the optimum
# strictly inside the bounds.
_SHIFT_MARGIN = 0.8


@dataclass(frozen=True)
class ObjectiveSpec:
    """Identifies one benchmark instance: function, size, and generation seed."""

    function_id: FunctionId
    dimension: int
    group_size: int = 50
    domain_seed: int = 1

    def validate(self) -> None:
        if self.dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.dimension}")
        if self.domain_seed < 0:
            raise ConfigurationError(f"domain_seed must be >= 0, got {self.domain_seed}")
        m = self.group_size
        if self.function_id is FunctionId.F6:
            if not 1 <= m <= self.dimension:
                raise ConfigurationError(
                    f"group_size must satisfy 1 <= m <= dimension for F6, "
                    f"got m={m}, d={self.dimension}"
                )
        elif self.function_id is FunctionId.F14:
            if m < 1 or self.dimension % m != 0:
                raise ConfigurationError(
                    f"group_size must divide dimension for F14, "
                    f"got m={m}, d={self.dimension}"
                )


def _random_rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    """Orthogonal matrix from QR factorization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    # Fix the column signs so the factorization is unique.
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _ackley(z: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(z * z, axis=1))
    cos_mean = np.mean(np.cos(2.0 * np.pi * z), axis=1)
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e


def _elliptic(z: np.ndarray) -> np.ndarray:
    m = z.shape[1]
    weights = np.ones(1) if m == 1 else 10.0 ** (6.0 * np.arange(m) / (m - 1))
    return np.sum(weights * z * z, axis=1)


# Row-local objectives, bound to their shift by Objective.row_kernel.
def _sphere_rows(shift: np.ndarray, xs: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> None:
    np.add.reduce(np.multiply(xs, xs, out=tmp[0]), axis=1, out=out)


def _rastrigin_rows(shift: np.ndarray, xs: np.ndarray, out: np.ndarray,
                    tmp: np.ndarray) -> None:
    # z*z - 10*cos(2*pi*z) + 10, in that order.
    z = np.subtract(xs, shift, out=tmp[0])
    c = np.multiply(2.0 * np.pi, z, out=tmp[1])
    np.cos(c, out=c)
    c *= 10.0
    z *= z
    z -= c
    z += 10.0
    np.add.reduce(z, axis=1, out=out)


def _schwefel_1_2_rows(shift: np.ndarray, xs: np.ndarray, out: np.ndarray,
                       tmp: np.ndarray) -> None:
    z = np.subtract(xs, shift, out=tmp[0])
    np.cumsum(z, axis=1, out=z)
    z *= z
    np.add.reduce(z, axis=1, out=out)


_ROW_LOCAL = {
    FunctionId.SPHERE: _sphere_rows,
    FunctionId.F2: _rastrigin_rows,
    FunctionId.F19: _schwefel_1_2_rows,
}


@dataclass(frozen=True)
class Objective:
    """One benchmark instance: its spec and generated shift, permutation
    and rotation matrices.

    Immutable after generation; safe to share across workers.
    """

    spec: ObjectiveSpec
    shift: np.ndarray
    permutation: np.ndarray
    rotations: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.shift.setflags(write=False)
        self.permutation.setflags(write=False)
        for rot in self.rotations:
            rot.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def bounds(self) -> tuple[float, float]:
        return BOUNDS[self.spec.function_id]

    @property
    def row_kernel(self):
        """kernel(xs, out, tmp) writes f of each row of xs into out, using
        tmp, two arrays of xs's shape, as its only scratch; a row's value
        does not depend on the other rows, so any split of the rows gives
        the same bits. None for F6 and F14, whose rotations are matrix
        products over all rows.
        """
        kernel = _ROW_LOCAL.get(self.spec.function_id)
        return None if kernel is None else partial(kernel, self.shift)

    def evaluate_many(self, xs) -> np.ndarray:
        """Evaluate a batch of row vectors; returns one fitness per row.

        f(x) >= 0 everywhere, with f(shift) = 0. Sphere, F2 and F19 run
        `row_kernel` over all rows in fresh scratch; F6 and F14 compute
        each rotation as one matrix product over all rows.
        """
        spec = self.spec
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != spec.dimension:
            raise InputError(
                f"expected points of dimension {spec.dimension}, got shape {xs.shape}"
            )
        kernel = self.row_kernel
        if kernel is not None:
            out = np.empty(len(xs))
            kernel(xs, out, np.empty((2, *xs.shape)))
            return out
        fid = spec.function_id
        z = xs - self.shift
        zp = z[:, self.permutation]
        m = spec.group_size
        if fid is FunctionId.F6:
            value = 1e6 * _ackley(zp[:, :m] @ self.rotations[0].T)
            if m < spec.dimension:
                value = value + _ackley(zp[:, m:])
            return value
        if fid is FunctionId.F14:
            value = np.zeros(len(xs))
            for g, rot in enumerate(self.rotations):
                value += _elliptic(zp[:, g * m : (g + 1) * m] @ rot.T)
            return value
        raise InputError(f"unknown function id {fid!r}")


def make_objective(spec: ObjectiveSpec) -> Objective:
    """Deterministically generate an instance from ``spec.domain_seed``.

    The sphere control function is unshifted and unrotated; all other
    functions draw a shift uniformly from the central 80% of the domain,
    a permutation of the coordinate indices, and one orthogonal matrix per
    rotated group: one for F6, d/m for F14.
    """
    spec.validate()
    d = spec.dimension
    if spec.function_id is FunctionId.SPHERE:
        return Objective(spec, np.zeros(d), np.arange(d), ())
    rng = np.random.default_rng(spec.domain_seed)
    lower, upper = BOUNDS[spec.function_id]
    shift = rng.uniform(_SHIFT_MARGIN * lower, _SHIFT_MARGIN * upper, d)
    permutation = rng.permutation(d)
    groups = {FunctionId.F6: 1, FunctionId.F14: d // spec.group_size}
    rotations = tuple(
        _random_rotation(rng, spec.group_size)
        for _ in range(groups.get(spec.function_id, 0))
    )
    return Objective(spec, shift, permutation, rotations)
