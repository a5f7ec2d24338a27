"""Multiplicative subgroups of GF(p**r)* and their coset combinatorics.

For m dividing p**r - 1, the unique subgroup A of order m consists of the
powers g**(kappa*i) of the canonical generator, where kappa = (p**r - 1)/m
is the number of cosets.  Coset membership is a discrete log reduced mod
kappa, so everything here is table lookups on top of the field context.

The zero element belongs to no coset; operations that partition the full
field treat {0} as a distinguished pseudo-coset via the ZERO token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, NotADivisor, ResourceCap, ZeroElement
from .gf import FieldCtx, FieldElem


class _ZeroCoset:
    def __repr__(self):
        return "ZERO"


ZERO = _ZeroCoset()

DIFFSET_CAP = 2 ** 12


@dataclass(frozen=True)
class SubgroupSpec:
    """Subgroup A of order m inside GF(p**r)*, with kappa cosets."""

    ctx: FieldCtx
    m: int
    kappa: int
    element_logs: np.ndarray = field(repr=False)

    @property
    def element_values(self) -> np.ndarray:
        """Base-p integer values of the m members of A, in power order."""
        return self.ctx.value_of_exp[self.element_logs]

    @property
    def elements(self) -> list[FieldElem]:
        return [self.ctx.from_log(int(k)) for k in self.element_logs]

    def coset_values(self, d: int) -> np.ndarray:
        """Values of the coset x**d A, where x is the canonical generator."""
        if not 0 <= d < self.kappa:
            raise BadShape(f"coset index {d} outside [0, {self.kappa})")
        logs = (self.element_logs + d) % (self.ctx.n - 1)
        return self.ctx.value_of_exp[logs]


def subgroup_of_order(ctx: FieldCtx, m: int) -> SubgroupSpec:
    """The unique subgroup of GF(p**r)* with m elements."""
    order = ctx.n - 1
    if m < 1 or order % m != 0:
        raise NotADivisor(f"m = {m} does not divide {order}")
    kappa = order // m
    logs = (kappa * np.arange(m, dtype=np.int64)) % max(order, 1)
    return SubgroupSpec(ctx=ctx, m=m, kappa=kappa, element_logs=logs)


def coset_of(spec: SubgroupSpec, z: FieldElem) -> int:
    """Index d in [0, kappa) with z in x**d A; zero has no coset."""
    if z.is_zero():
        raise ZeroElement("zero element lies in no coset")
    return spec.ctx.log(z) % spec.kappa


def is_difference_set(spec: SubgroupSpec) -> tuple[bool, int | None]:
    """Brute-force census of differences a - a' over A.

    Returns (True, lam) when every nonzero field element arises exactly
    lam times, else (False, None).  O(m**2) work, capped at m <= 4096.
    """
    ctx, m = spec.ctx, spec.m
    if m > DIFFSET_CAP:
        raise ResourceCap(f"difference-set census capped at m <= {DIFFSET_CAP}")
    powers = np.int64(ctx.p) ** np.arange(ctx.r, dtype=np.int64)
    A = spec.element_values.astype(np.int64)[:, None] // powers % ctx.p
    counts = np.zeros(ctx.n, dtype=np.int64)
    step = max(1, (2 ** 22) // max(m, 1))
    for i0 in range(0, m, step):
        chunk = A[i0:i0 + step]
        diffs = (chunk[:, None, :] - A[None, :, :]) % ctx.p
        vals = diffs @ powers
        counts += np.bincount(vals.ravel(), minlength=ctx.n)
    nonzero = counts[1:]
    if nonzero.size == 0:
        return False, None
    lam = int(nonzero[0])
    if np.all(nonzero == lam):
        return True, lam
    return False, None


def _plus_one_values(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    # value of (z + 1): only the constant base-p digit changes
    c0 = values % ctx.p
    return values - c0 + (c0 + 1) % ctx.p


def translation_degree(spec: SubgroupSpec, s, t) -> int:
    """Number of z in S with 1 + z in T, where S, T are cosets or {0}.

    s and t are coset indices in [0, kappa), or the ZERO token for the
    pseudo-coset {0}.
    """
    ctx, kappa = spec.ctx, spec.kappa
    for lbl in (s, t):
        if lbl is not ZERO and not (isinstance(lbl, (int, np.integer))
                                    and 0 <= lbl < kappa):
            raise BadShape(f"coset label {lbl!r} outside [0, {kappa}) or ZERO")
    if s is ZERO:
        if t is ZERO:
            return 0
        return int(coset_of(spec, ctx.one) == t)
    shifted = _plus_one_values(ctx, spec.coset_values(int(s)))
    if t is ZERO:
        return int(np.count_nonzero(shifted == 0))
    logs = ctx.log_of_value[shifted]
    hits = (logs >= 0) & (logs % kappa == t)
    return int(np.count_nonzero(hits))


def parity_of_minus_one(spec: SubgroupSpec) -> dict:
    """Where -1 lands: inside A, or which coset it occupies.

    For p = 2 or m even, -1 is in A itself.  For p and m both odd, it
    lands exactly half way around, in coset kappa/2.
    """
    ctx = spec.ctx
    log_m1 = 0 if ctx.p == 2 else (ctx.n - 1) // 2
    coset = log_m1 % spec.kappa
    return {
        "in_A": coset == 0,
        "coset": coset,
        "is_half_kappa": (spec.kappa % 2 == 0 and coset == spec.kappa // 2),
    }
