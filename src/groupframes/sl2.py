"""Character-level coherence for frames from SL2(F_q), q even.

The frames stack the m induced representations rho_chi of degree q+1 (or
the m cuspidal representations of degree q-1) over the group, so inner
products between frame vectors are class functions: one value on the
unipotent class, character sums over the order-2m subgroup A union -A on
the split (resp. nonsplit) torus classes, and zero elsewhere.  No
representation matrices are ever built; everything reduces to sums of
roots of unity mod q -+ 1, which must be prime for the m characters to
exist.
"""

from __future__ import annotations

import numpy as np

from .coherence import (
    CoherenceReport,
    _census_report,
    bound_general_kappa,
    cluster_complex,
    coset_sums,
)
from .errors import (
    MNotOddDivisor,
    NotEvenPrimePower,
    QMinusOneNotPrime,
    QPlusOneNotPrime,
    ResourceCap,
)
from .gf import build_field, is_prime, subgroup_of_order

Q_CAP = 2 ** 16


def _check_q(q: int):
    if q < 4 or q & (q - 1) != 0:
        raise NotEvenPrimePower(f"q = {q} must be 2**d with d >= 2")
    if q > Q_CAP:
        raise ResourceCap(f"q = {q} exceeds cap {Q_CAP}")


def _degree(q: int, m: int, mode: str) -> int:
    # validate (q, m) for the mode; the representation degree is q -+ 1
    if mode not in ("induced", "cuspidal"):
        raise ValueError(f"mode must be induced or cuspidal, got {mode!r}")
    _check_q(q)
    if mode == "induced":
        if not is_prime(q - 1):
            raise QMinusOneNotPrime(f"q - 1 = {q - 1} is not prime")
        base, deg = q - 2, q + 1
    else:
        if not is_prime(q + 1):
            raise QPlusOneNotPrime(f"q + 1 = {q + 1} is not prime")
        base, deg = q, q - 1
    if m < 1 or m % 2 == 0 or base % m != 0:
        raise MNotOddDivisor(f"m = {m} must be an odd divisor of {base}")
    return deg


def _class_sums(p: int, m: int) -> tuple:
    # A2m and s_l = sum_{a in A2m} w_p**(l a) for l = 1..p-1.  Tr is the
    # identity on the prime field, so s_l = 2m c with c the Gauss period
    # of the coset of l: the coset sum at log l mod the index of A2m
    ctx = build_field(p, 1)
    kappa, a2m = subgroup_of_order(ctx, 2 * m)
    c = coset_sums(ctx, kappa)
    return a2m, 2 * m * c[ctx.log_of_value[1:] % kappa]


def sl2_report(q: int, m: int, mode: str,
               log_base: float | None = None) -> CoherenceReport:
    """Coherence report of the SL2(F_q) frame, the same report type as
    frame reports, with the SL2 keys mode, sl2_bound, u_value, w_values.

    The census enumerates the signed class-function inner products with
    ordered-pair multiplicities n * class size.  nu is the exact group
    frame value 1/(n-1) (row sums of the Gram are -1 because all stacked
    characters are nontrivial irreducibles).
    """
    deg = _degree(q, m, mode)
    p = 2 * q - deg
    a2m, sums = _class_sums(p, m)
    n = q ** 3 - q
    # the unipotent class pins the inner product 1/deg; the torus classes
    # carrying characters mod p give |s_l| / (m deg) for l = 1..p-1
    u = 1.0 / deg
    w = np.abs(sums) / (m * deg)
    # the classes of SL2(F_q) besides the identity: one unipotent class of
    # q^2 - 1 elements, (q - 2)/2 split torus classes of q(q + 1) and q/2
    # nonsplit ones of q(q - 1), as (count, size); the torus family that
    # carries the characters takes the sums, the other one the value 0
    split, nonsplit = ((q - 2) // 2, q * (q + 1)), (q // 2, q * (q - 1))
    # cuspidal characters are -1 on the unipotent class and minus the torus
    # sums, so every cuspidal inner product carries a minus sign
    if mode == "induced":
        sign, carrier, silent = 1.0, split, nonsplit
        # the split-class value is 2|c_l|/(q+1) with c_l a sum over the
        # order-2m subgroup of index (q-2)/2m, hence twice the coset-sum
        # bound
        kappa = (q - 2) // (2 * m)
        sl2_bound = max(1.0, 2.0 * bound_general_kappa(2 * m, kappa)) / deg
    else:
        sign, carrier, silent = -1.0, nonsplit, split
        sl2_bound = None
    signed = sign * sums[:(p - 1) // 2] / (m * deg)

    # every class value is taken by n * (class mass) ordered pairs; the
    # common factor n is the census scale
    values = np.concatenate(([sign / deg], signed, [0.0]))
    weights = np.concatenate((
        [q * q - 1], np.full(len(signed), carrier[1]),
        [silent[0] * silent[1]]))
    reps, counts = cluster_complex(values, weights=weights)
    return _census_report(
        n, m * deg ** 2, float(max(u, w.max())), 1.0 / (n - 1),
        reps, counts, n, log_base=log_base,
        paths={"census_source": "class-functions",
               "nu_source": "group-frame-identity"},
        provenance={
            "construction": f"sl2-{mode}",
            "q": q,
            "m": m,
            "character_modulus": p,
            "A2m": sorted(int(v) for v in a2m),
        },
        extra={
            "mode": f"sl2-{mode}",
            "sl2_bound": sl2_bound,
            "u_value": u,
            "w_values": [float(x) for x in w],
        })
