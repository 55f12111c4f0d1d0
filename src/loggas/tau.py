"""Tau functions, Miwa shifts, Baker-Akhiezer wave functions, and the
bilinear pairing residue.

Deformation times never materialize: a background is its moment
sequence.  The negative Miwa shift acts exactly on moments; the
positive shift enters only through the closed-form coefficients B_k of
psi_plus, computed in the (M+1)-particle exterior algebra.
"""
from __future__ import annotations

import math

from .ensemble import MomentRangeError, MomentSequence, gram_form, partition_function
from .exterior import ModelShape, star_pairing
from .scalars import rational, scalar_is_zero, scalar_json
from .spine import epsilon


class LaurentPolynomial:
    """Sparse exact Laurent polynomial in the spectral parameter z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for e in sorted(coeffs):
            c = coeffs[e]
            if not scalar_is_zero(c):
                clean[int(e)] = c
        self.coeffs = clean

    def coefficient(self, n: int):
        return self.coeffs.get(n, rational(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc[e] + c if e in acc else c
        return LaurentPolynomial(acc)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            acc: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    term = c1 * c2
                    acc[e] = acc[e] + term if e in acc else term
            return LaurentPolynomial(acc)
        return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def evaluate(self, z):
        z = rational(z)
        total = None
        for e, c in self.coeffs.items():
            term = c * z**e
            total = term if total is None else total + term
        return rational(0) if total is None else total

    def __repr__(self):
        if not self.coeffs:
            return "Laurent(0)"
        return "Laurent(" + " + ".join(f"({c!r})z^{e}" for e, c in self.coeffs.items()) + ")"

    def to_json_dict(self) -> dict:
        return {str(e): scalar_json(c) for e, c in self.coeffs.items()}


def tau(moments: MomentSequence, shape: ModelShape):
    """tau_M = star(gamma^{^M}/M!), the partition function with times
    folded into the moments."""
    return partition_function(moments, shape, route="hyperpfaffian")


def miwa_negative_moments(moments: MomentSequence, z, shape: ModelShape) -> MomentSequence:
    """Moments of the background shifted by -L^2 [z^{-1}]: the weight
    picks up the factor z^{-L^2}(z - x)^{L^2}."""
    z = rational(z)
    if z == 0:
        raise ValueError("Miwa shift needs z != 0")
    L2 = shape.L * shape.L
    if moments.D < L2:
        raise MomentRangeError(f"need moments through m_{L2}, have D={moments.D}")
    zinv = z**-L2
    new_vals = []
    for k in range(moments.D - L2 + 1):
        total = rational(0)
        for j in range(L2 + 1):
            term = math.comb(L2, j) * z ** (L2 - j) * moments.values[k + j]
            total = total + (term if j % 2 == 0 else -term)
        new_vals.append(zinv * total)
    return moments.derived(new_vals)


def _star_against(pair, mode):
    """star(mode ^ gamma^{^(M-1)}/(M-1)!) on the background of pair, a
    star_pairing: the adjunction value of a momentum mode."""
    return pair((mode,))


def psi_minus(moments: MomentSequence, shape: ModelShape) -> LaurentPolynomial:
    """Insertion wave function: sum_p z^{p+K} A_p with
    A_p = star_M(eps_p ^ gamma^{^(M-1)}/(M-1)!)."""
    pair = star_pairing(gram_form(moments, shape))
    return LaurentPolynomial(
        {p + shape.K: moments.result(_star_against(pair, epsilon(p, shape))) for p in range(-shape.K, shape.K + 1)}
    )


def default_k_cut(shape: ModelShape) -> int:
    """The psi_plus truncation used when none is given: 2K, at least 1."""
    return max(2 * shape.K, 1)


def psi_plus(
    moments_plus: MomentSequence, shape: ModelShape, k_cut: int | None = None
) -> LaurentPolynomial:
    """Extraction wave function sum_{k=1}^{k_cut} B_k z^{-k}, built in
    the (M+1)-particle system:

        B_k = C(L^2+k-1, k) * sum_p mhat'_{k+p} * G_p
        G_p = star_{M+1}(eps_p ^ gamma'^{^M}/M!)

    with eps_p, the momentum radius K', and the shifted moments all of
    the (M+1)-system.
    """
    if k_cut is None:
        k_cut = default_k_cut(shape)
    if k_cut < 1:
        raise ValueError(f"k_cut must be >= 1, got {k_cut}")
    plus = ModelShape(shape.L, shape.M + 1)
    Kp = plus.K
    if moments_plus.D < k_cut + 2 * Kp:
        raise MomentRangeError(
            f"psi_plus needs moments through m_{k_cut + 2 * Kp}, have D={moments_plus.D}"
        )
    pair = star_pairing(gram_form(moments_plus, plus))
    G = {p: _star_against(pair, epsilon(p, plus)) for p in range(-Kp, Kp + 1)}
    L2 = shape.L * shape.L
    coeffs = {}
    for k in range(1, k_cut + 1):
        total = rational(0)
        for p in range(-Kp, Kp + 1):
            total = total + moments_plus.mhat(k + p, Kp) * G[p]
        coeffs[-k] = moments_plus.result(math.comb(L2 + k - 1, k) * total)
    return LaurentPolynomial(coeffs)


def extraction_evaluate(q: int, moments_plus: MomentSequence, shape: ModelShape):
    """Adjunction value star_M(eps_q ^ gamma_+^{^(M-1)}/(M-1)!).

    The extraction operators themselves are a gauge choice and are
    never materialized; out-of-range q gives 0 by momentum selection.
    """
    if abs(q) > shape.K:
        return rational(0)
    pair = star_pairing(gram_form(moments_plus, shape))
    return moments_plus.result(_star_against(pair, epsilon(q, shape)))


def hirota_residual(
    moments: MomentSequence,
    moments_plus: MomentSequence,
    shape: ModelShape,
    k_cut: int | None = None,
):
    """[z^0](psi_minus(t; z) * psi_plus(t'; z)) = sum_k A_{k-K} B_k.

    Exact coefficient extraction; sums k from 1 to k_cut (default_k_cut).
    """
    minus = psi_minus(moments, shape)
    total = rational(0)
    for e, B in psi_plus(moments_plus, shape, k_cut).coeffs.items():
        A = minus.coefficient(-e)  # B_k sits at z^{-k}, A_{k-K} at z^{k}
        if not scalar_is_zero(A):
            total = total + A * B
    return total


def transport_spectrum(
    moments: MomentSequence,
    moments_plus: MomentSequence,
    shape: ModelShape,
    k_cut: int | None = None,
) -> LaurentPolynomial:
    """Full product psi_minus * psi_plus as a Laurent polynomial; the
    z^0 coefficient is the hirota_residual, every other coefficient is
    reported as a diagnostic channel."""
    return psi_minus(moments, shape) * psi_plus(moments_plus, shape, k_cut)
