"""Constraint transforms between unconstrained and constrained parameter space.

Samplers walk in unconstrained R^d; models live on products of identity,
positive, and simplex blocks. Each block maps back and forth and reports the
log-absolute-Jacobian of the unconstrained -> constrained direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IdentityBlock", "PositiveBlock", "SimplexBlock", "BlockTransform"]


@dataclass(frozen=True)
class IdentityBlock:
    size: int

    @property
    def unconstrained_size(self) -> int:
        return self.size

    @property
    def constrained_size(self) -> int:
        return self.size

    def constrain(self, z):
        return np.asarray(z, dtype=np.float64)

    def unconstrain(self, theta):
        return np.asarray(theta, dtype=np.float64)

    def log_jacobian(self, z):
        return 0.0


@dataclass(frozen=True)
class PositiveBlock:
    """Componentwise exp/log for positivity constraints."""

    size: int

    @property
    def unconstrained_size(self) -> int:
        return self.size

    @property
    def constrained_size(self) -> int:
        return self.size

    def constrain(self, z):
        return np.exp(z)

    def unconstrain(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if np.any(theta <= 0):
            raise ValueError("positive block requires strictly positive values")
        return np.log(theta)

    def log_jacobian(self, z):
        return float(np.sum(z))


@dataclass(frozen=True)
class SimplexBlock:
    """Stick-breaking map from K-1 unconstrained values to a K-simplex.

    Each z_k is squashed through a logistic with a -log(K-k) offset so z = 0
    lands on the uniform simplex. The Jacobian is triangular, so its log-abs
    determinant is the sum of the per-stick diagonal terms.
    """

    size: int  # number of simplex components K
    # log(K-1-k), the stick offsets, as the numpy scalars np.log returns.
    _offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("simplex block needs at least 2 components")
        offsets = tuple(np.log(self.size - 1 - k) for k in range(self.size - 1))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def unconstrained_size(self) -> int:
        return self.size - 1

    @property
    def constrained_size(self) -> int:
        return self.size

    def constrain(self, z):
        z = np.asarray(z, dtype=np.float64)
        x = np.empty(self.size)
        stick = 1.0
        for k, offset in enumerate(self._offsets):
            u = _sigmoid(z[k] - offset)
            x[k] = stick * u
            stick *= 1.0 - u
        x[-1] = stick
        return x

    def unconstrain(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if np.any(theta <= 0) or abs(theta.sum() - 1.0) > 1e-8:
            raise ValueError("simplex block requires positive values summing to 1")
        z = np.empty(self.size - 1)
        stick = 1.0
        for k, offset in enumerate(self._offsets):
            u = theta[k] / stick
            z[k] = np.log(u) - np.log1p(-u) + offset
            stick -= theta[k]
        return z

    def log_jacobian(self, z):
        z = np.asarray(z, dtype=np.float64)
        total = 0.0
        log_stick = 0.0
        for k, offset in enumerate(self._offsets):
            a = z[k] - offset
            # log u + log(1-u) for u = sigmoid(a), computed stably
            total += log_stick - np.logaddexp(0.0, -a) - np.logaddexp(0.0, a)
            log_stick += -np.logaddexp(0.0, a)  # log(1 - u)
        return float(total)


def _sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + np.exp(-a))
    e = np.exp(a)
    return e / (1.0 + e)


@dataclass(frozen=True)
class BlockTransform:
    """Concatenation of constraint blocks covering a full parameter vector."""

    blocks: tuple
    unconstrained_dim: int = field(init=False, repr=False, compare=False)
    constrained_dim: int = field(init=False, repr=False, compare=False)
    # (block, unconstrained slice, constrained slice) for each block
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, blocks):
        blocks = tuple(blocks)
        layout = []
        i = j = 0
        for b in blocks:
            layout.append(
                (b, slice(i, i + b.unconstrained_size), slice(j, j + b.constrained_size))
            )
            i += b.unconstrained_size
            j += b.constrained_size
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "unconstrained_dim", i)
        object.__setattr__(self, "constrained_dim", j)
        object.__setattr__(self, "_layout", tuple(layout))

    def constrain(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.empty(self.constrained_dim)
        for b, zs, ts in self._layout:
            out[ts] = b.constrain(z[zs])
        return out

    def unconstrain(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        out = np.empty(self.unconstrained_dim)
        for b, zs, ts in self._layout:
            out[zs] = b.unconstrain(theta[ts])
        return out

    def log_jacobian(self, z):
        z = np.asarray(z, dtype=np.float64)
        total = 0.0
        for b, zs, _ in self._layout:
            total += b.log_jacobian(z[zs])
        return float(total)
