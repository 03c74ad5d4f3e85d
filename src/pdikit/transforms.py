"""Constraint transforms between unconstrained and constrained parameter space.

Samplers walk in unconstrained R^d; models live on products of identity,
positive, and simplex blocks. Each block maps back and forth and reports the
log-absolute-Jacobian of the unconstrained -> constrained direction.
``BlockTransform`` concatenates blocks and walks them in block order, each
with its own slices of the two vectors, in all three of its methods.

``constrain`` and ``log_jacobian`` are written once over the last axis:
(..., P) points give (..., P') points and a (...) log-Jacobian, with ``...``
() for one point, which gets a float (``np.float64``), or (R,) for a batch,
each row of which is bitwise equal to the same point passed alone.
``unconstrain`` takes one point.
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
        return np.zeros(np.shape(z)[:-1])[()]  # [()] makes one point's 0-d a scalar


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
        return np.add.reduce(z, axis=-1)


@dataclass(frozen=True)
class SimplexBlock:
    """Stick-breaking map from K-1 unconstrained values to a K-simplex.

    Each z_k is squashed through a logistic with a -log(K-k) offset so z = 0
    lands on the uniform simplex. The Jacobian is triangular, so its log-abs
    determinant is the sum of the per-stick diagonal terms. ``constrain`` and
    ``log_jacobian`` work on all rows of a batch at once, with the running
    stick products and sums as cumulative products and sums along the K-1
    sticks.
    """

    size: int  # number of simplex components K
    # log(K-1-k), the stick offsets, one np.log per stick.
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("simplex block needs at least 2 components")
        offsets = np.array([np.log(self.size - 1 - k) for k in range(self.size - 1)])
        object.__setattr__(self, "_offsets", offsets)

    @property
    def unconstrained_size(self) -> int:
        return self.size - 1

    @property
    def constrained_size(self) -> int:
        return self.size

    def constrain(self, z):
        a = np.asarray(z, dtype=np.float64) - self._offsets
        # The logistic u, as 1/(1+exp(-a)) for a >= 0 and as exp(a)/(1+exp(a))
        # below: both are exp(min(a, 0)) / (1 + exp(-|a|)).
        u = np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))
        # x_0 = u_0, x_k = u_k times what the first k sticks left, and the
        # last component is all that is left.
        x = np.empty(a.shape[:-1] + (self.size,))
        x[..., 0] = 1.0
        np.multiply.accumulate(1.0 - u, axis=-1, out=x[..., 1:])
        x[..., :-1] *= u
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
        a = np.asarray(z, dtype=np.float64) - self._offsets
        # log u = -logaddexp(0, -a) and log(1-u) = -logaddexp(0, a), stably.
        minus_log_rest = np.logaddexp(0.0, a)
        log_stick = np.zeros(a.shape)  # log of the stick before each break
        np.add.accumulate(-minus_log_rest[..., :-1], axis=-1, out=log_stick[..., 1:])
        terms = log_stick - np.logaddexp(0.0, -a) - minus_log_rest
        # The running total adds the terms left to right (np.sum would add nine
        # or more of them pairwise); .T[-1] is its end for a point or a batch.
        return np.add.accumulate(terms, axis=-1).T[-1]


@dataclass(frozen=True)
class BlockTransform:
    """Concatenation of constraint blocks covering a full parameter vector.

    One layout serves ``constrain``, ``unconstrain`` and ``log_jacobian``:
    each block with its unconstrained and constrained slices, in block order.
    """

    blocks: tuple
    unconstrained_dim: int = field(init=False, repr=False, compare=False)
    constrained_dim: int = field(init=False, repr=False, compare=False)
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, blocks):
        blocks = tuple(blocks)
        layout = []
        i = j = 0
        for b in blocks:
            zs, ts = slice(i, i + b.unconstrained_size), slice(j, j + b.constrained_size)
            layout.append((b, zs, ts))
            i, j = zs.stop, ts.stop
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "unconstrained_dim", i)
        object.__setattr__(self, "constrained_dim", j)
        object.__setattr__(self, "_layout", tuple(layout))

    def constrain(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.empty(z.shape[:-1] + (self.constrained_dim,))
        for b, zs, ts in self._layout:
            out[..., ts] = b.constrain(z[..., zs])
        return out

    def unconstrain(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        out = np.empty(self.unconstrained_dim)
        for b, zs, ts in self._layout:
            out[zs] = b.unconstrain(theta[ts])
        return out

    def log_jacobian(self, z):
        # Each block's own sum, added to zeros in block order; the identity
        # blocks' zeros are skipped, since x + 0.0 is x for every total this
        # can reach (it starts at +0.0, so it is never -0.0).
        z = np.asarray(z, dtype=np.float64)
        total = np.zeros(z.shape[:-1])
        for b, zs, _ in self._layout:
            if not isinstance(b, IdentityBlock):
                total = total + b.log_jacobian(z[..., zs])
        return total[()]  # [()] makes one point's 0-d total a float
