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

from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceReport,
    _census_report,
    bound_general_kappa,
    cluster_complex,
    multiplier_sums,
    welch_bound,
)
from .errors import (
    InvariantViolation,
    MNotOddDivisor,
    NotEvenPrimePower,
    QMinusOneNotPrime,
    QPlusOneNotPrime,
    ResourceCap,
)
from .gf import build_field, is_prime
from .subgroups import subgroup_of_order

Q_CAP = 2 ** 16


def _check_q(q: int):
    if q < 4 or q & (q - 1) != 0:
        raise NotEvenPrimePower(f"q = {q} must be 2**d with d >= 2")
    if q > Q_CAP:
        raise ResourceCap(f"q = {q} exceeds cap {Q_CAP}")


def admissible_q(mode: str, cap: int = Q_CAP) -> list[int]:
    """All q = 2**d <= cap where the required neighbor of q is prime."""
    if mode not in ("induced", "cuspidal"):
        raise ValueError(f"mode must be induced or cuspidal, got {mode!r}")
    out = []
    q = 4
    while q <= cap:
        neighbor = q - 1 if mode == "induced" else q + 1
        if is_prime(neighbor):
            out.append(q)
        q *= 2
    return out


@dataclass(frozen=True)
class Sl2ClassData:
    """Conjugacy-class census of SL2(F_q): (kind, class count, class size)."""

    q: int
    families: tuple

    @property
    def total(self) -> int:
        return sum(count * size for _, count, size in self.families)


def sl2_class_data(q: int) -> Sl2ClassData:
    """The four class families: identity, unipotent, split and nonsplit
    torus classes, with the standard counts and sizes."""
    _check_q(q)
    fams = (
        ("identity", 1, 1),
        ("unipotent", 1, q * q - 1),
        ("split", (q - 2) // 2, q * (q + 1)),
        ("nonsplit", q // 2, q * (q - 1)),
    )
    data = Sl2ClassData(q=q, families=fams)
    if data.total != q ** 3 - q:
        raise InvariantViolation(f"class mass {data.total} != {q ** 3 - q}")
    return data


def _validate_induced(q: int, m: int):
    _check_q(q)
    if not is_prime(q - 1):
        raise QMinusOneNotPrime(f"q - 1 = {q - 1} is not prime")
    if m < 1 or m % 2 == 0 or (q - 2) % m != 0:
        raise MNotOddDivisor(f"m = {m} must be an odd divisor of {q - 2}")


def _validate_cuspidal(q: int, m: int):
    _check_q(q)
    if not is_prime(q + 1):
        raise QPlusOneNotPrime(f"q + 1 = {q + 1} is not prime")
    if m < 1 or m % 2 == 0 or q % m != 0:
        raise MNotOddDivisor(f"m = {m} must be an odd divisor of {q}")


def _degree(q: int, m: int, mode: str) -> int:
    # validate (q, m) for the mode; the representation degree is q -+ 1
    if mode == "induced":
        _validate_induced(q, m)
        return q + 1
    if mode == "cuspidal":
        _validate_cuspidal(q, m)
        return q - 1
    raise ValueError(f"mode must be induced or cuspidal, got {mode!r}")


def a2m_values(p: int, m: int) -> np.ndarray:
    """The order-2m subgroup of (Z/pZ)* as residues, via the field layer."""
    ctx = build_field(p, 1)
    return subgroup_of_order(ctx, 2 * m).element_values.astype(np.int64)


def _class_sums(p: int, m: int) -> tuple:
    # A2m and s_l = sum_{a in A2m} w_p**(l a) for l = 1..p-1.  Tr is the
    # identity on the prime field, so s_l = 2m c_l with c the multiplier
    # sums of A2m, read at log l.
    ctx = build_field(p, 1)
    a2m = subgroup_of_order(ctx, 2 * m).element_values
    c = multiplier_sums(ctx, a2m)
    return a2m, 2 * m * c[ctx.log_of_value[1:]]


def _stacked_coherence(q: int, m: int, deg: int, sums: np.ndarray) -> dict:
    # m stacked representations of degree deg = q -+ 1: the unipotent class
    # pins the inner product 1/deg, the torus classes carrying characters
    # mod p = q +- 1 = 2q - deg give |s_l| / (m deg) for l = 1..p-1
    w = np.abs(sums) / (m * deg)
    u = 1.0 / deg
    return {
        "mu": float(max(u, w.max())) if len(w) else u,
        "u_value": u,
        "w_values": w,
        "n": q ** 3 - q,
        "dim": m * deg ** 2,
    }


def sl2_induced_coherence(q: int, m: int) -> dict:
    """Coherence of the frame stacking the m induced representations.

    The unipotent class pins the inner product 1/(q+1); the split classes
    give |sum_{a in A2m} w**(l a)| / (m(q+1)) for l = 1..q-2; nonsplit
    classes contribute zero.
    """
    _validate_induced(q, m)
    return _stacked_coherence(q, m, q + 1, _class_sums(q - 1, m)[1])


def _induced_bound(q: int, m: int) -> float:
    kappa = (q - 2) // (2 * m)
    return max(1.0, 2.0 * bound_general_kappa(2 * m, kappa)) / (q + 1)


def sl2_induced_bound(q: int, m: int) -> float:
    """Coherence bound (1/(q+1)) max(1, 2 B) where B is the general kappa
    bound at subgroup size 2m and index (q-2)/2m.

    The split-class inner product is (q+1) sum_{a in A2m} w**(l a), i.e.
    (q+1) * 2m * c_l with c_l a size-2m coset sum, and the column norm
    squared is m(q+1)**2; the normalized value is 2|c_l|/(q+1), hence the
    factor 2 in front of the coset-sum bound.
    """
    _validate_induced(q, m)
    return _induced_bound(q, m)


def sl2_cuspidal_coherence(q: int, m: int) -> dict:
    """Mirror construction from the m cuspidal representations; nonsplit
    classes carry the character sums, split classes vanish."""
    _validate_cuspidal(q, m)
    return _stacked_coherence(q, m, q - 1, _class_sums(q + 1, m)[1])


def sl2_welch(q: int, m: int, mode: str) -> float:
    """Welch bound at the frame shape n = q(q+1)(q-1), dim = m(q+-1)**2."""
    return welch_bound(q ** 3 - q, m * _degree(q, m, mode) ** 2)


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
    coh = _stacked_coherence(q, m, deg, sums)
    n = coh["n"]
    # cuspidal characters are -1 on the unipotent class and minus the torus
    # sums, so every cuspidal inner product carries a minus sign
    if mode == "induced":
        sign, carrier, silent = 1.0, "split", "nonsplit"
        sl2_bound = _induced_bound(q, m)
    else:
        sign, carrier, silent = -1.0, "nonsplit", "split"
        sl2_bound = None
    signed = sign * sums[:(p - 1) // 2] / (m * deg)

    sizes = {kind: (count, size)
             for kind, count, size in sl2_class_data(q).families}
    values = [sign / deg] + signed.tolist() + [0.0]
    weights = [n * (q * q - 1)]
    weights += [n * sizes[carrier][1]] * len(signed)
    weights += [n * sizes[silent][0] * sizes[silent][1]]
    reps, counts = cluster_complex(np.array(values, dtype=np.complex128),
                                   weights=weights)
    return _census_report(
        n, coh["dim"], coh["mu"], 1.0 / (n - 1),
        list(zip(reps.tolist(), counts.tolist())), log_base=log_base,
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
            "u_value": coh["u_value"],
            "w_values": [float(x) for x in coh["w_values"]],
        })
