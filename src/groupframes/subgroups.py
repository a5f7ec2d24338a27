"""Multiplicative subgroups of GF(p**r)*.

For m dividing p**r - 1, the unique subgroup A of order m consists of the
powers g**(kappa*i) of the canonical generator, where kappa = (p**r - 1)/m
is the number of cosets.  Coset membership is a discrete log reduced mod
kappa, so everything here is table lookups on top of the field context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotADivisor
from .gf import FieldCtx


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


def subgroup_of_order(ctx: FieldCtx, m: int) -> SubgroupSpec:
    """The unique subgroup of GF(p**r)* with m elements."""
    order = ctx.n - 1
    if m < 1 or order % m != 0:
        raise NotADivisor(f"m = {m} does not divide {order}")
    kappa = order // m
    logs = (kappa * np.arange(m, dtype=np.int64)) % max(order, 1)
    return SubgroupSpec(ctx=ctx, m=m, kappa=kappa, element_logs=logs)
