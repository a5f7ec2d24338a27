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
    _check_log_base,
    bound_general_kappa,
    coset_sums,
)
from .errors import (
    BadShape,
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
        raise BadShape(f"mode must be induced or cuspidal, got {mode!r}")
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
    # A2m, its kappa periods s_d = 2m c_d (Tr is the identity on GF(p), so
    # c is the coset sums; real, as -1 is in A2m; -1 exactly at kappa = 1)
    # and the coset log l mod kappa of l = 1..p-1: s_l = s[coset of l]
    ctx = build_field(p, 1)
    kappa, a2m = subgroup_of_order(ctx, 2 * m)
    periods = 2 * m * coset_sums(ctx, kappa).real if kappa > 1 \
        else np.array([-1.0])
    return a2m, periods, ctx.log_of_value[1:] % kappa


def sl2_report(q: int, m: int, mode: str,
               log_base: float | None = None) -> CoherenceReport:
    """Coherence report of the SL2(F_q) frame, the same report type as
    frame reports, with the SL2 keys mode, sl2_bound, u_value, w_values.

    The census enumerates the signed class-function inner products with
    ordered-pair multiplicities n * class size.  nu is the exact group
    frame value 1/(n-1) (row sums of the Gram are -1 because all stacked
    characters are nontrivial irreducibles).
    """
    _check_log_base(log_base)
    deg = _degree(q, m, mode)
    p = 2 * q - deg
    a2m, periods, coset = _class_sums(p, m)
    n = q ** 3 - q
    # the unipotent class pins the inner product 1/deg; the torus classes
    # carrying characters mod p give |s_l| / (m deg) for l = 1..p-1
    u = 1.0 / deg
    w = np.abs(periods[coset]) / (m * deg)
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

    # each coset of A2m is closed under negation, so m of the carrier
    # classes l = 1..(p-1)/2 take its period.  A period is the 0/1
    # indicator of its coset in the basis w, ..., w**(p-1) of Z[w], and u
    # is -m(1, ..., 1)/(m deg), so the kappa + 2 values are distinct and
    # only at q = 4 induced (period -1) do two magnitudes, u and -u, merge.
    # Each value is taken by n * (class mass) ordered pairs
    values = np.concatenate(([sign / deg], sign * periods / (m * deg), [0.0]))
    mass = np.concatenate(([q * q - 1], np.full(len(periods), m * carrier[1]),
                           [silent[0] * silent[1]]))
    order = np.argsort(values)
    values, mass = values[order], mass[order]
    mags, which = np.unique(np.abs(values), return_inverse=True)
    mag_mass = np.zeros(len(mags), dtype=np.int64)
    np.add.at(mag_mass, which, mass)
    return _census_report(
        n, m * deg ** 2, float(max(u, w.max())), 1.0 / (n - 1),
        values, mass, n, log_base=log_base,
        magnitudes=[(v, c * n) for v, c in zip(mags.tolist(),
                                                mag_mass.tolist())],
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
