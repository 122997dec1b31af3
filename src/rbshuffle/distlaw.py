"""The distributive map from tensors-of-series to series-of-tensors.

For an inner algebra A, an element of ``sha(hur(A))`` is a combination of
tensors whose factors are series; the map sends it into ``hur(sha(A))``,
a series whose values are tensors.  On a length-1 tensor [f] the output at
index n is the embedded value [f(n)]; longer tensors evaluate head-first:

    [f_0 | t]  ->  beta([f_0]) * lift(beta(t))

with the product taken in the series-of-tensors algebra and ``lift`` the
Rota-Baxter lift of the prepend operator.  This is the induced-homomorphism
evaluation through the pointwise embedding, so a single audited evaluator
drives it.  Output precision is the minimum factor precision, capped at the
handle's working precision.

Each carrier's canonical operators resolve here, where the tensor and series
layers meet: ``canonical_rb`` and ``canonical_derivation`` pick them from the
handle alone, for the expression evaluator and the law suites.
"""

from __future__ import annotations

from . import algebra, freerb, hurwitz
from .algebra import Handle, HandleMismatchError, Hom, HurwitzHandle, ShaHandle
from .freerb import Tensor
from .hurwitz import Series


def canonical_rb(handle: Handle) -> Hom:
    """The Rota-Baxter operator a carrier carries at its weight: the prepend
    on tensors, the lift of the inner one on series, and on polynomials
    integration in the first variable over q at weight 0, else the scaled
    identity."""
    if isinstance(handle, ShaHandle):
        return freerb.free_rb_operator(handle)
    if isinstance(handle, HurwitzHandle):
        return hurwitz.lifted_rb(handle, canonical_rb(handle.inner))
    if handle.ring.is_rational and handle.weight.is_zero:
        return algebra.integration_on(handle, handle.variables[0])
    return algebra.scaled_identity_on(handle)


def canonical_derivation(handle: Handle) -> Hom:
    """The derivation a carrier carries at its weight: the free derivation
    over the inner one on tensors, the shift on series, and on polynomials,
    in the first variable, the formal derivative at weight 0 and the
    difference quotient otherwise."""
    if isinstance(handle, ShaHandle):
        return freerb.free_derivation(handle, canonical_derivation(handle.inner))
    if isinstance(handle, HurwitzHandle):
        return hurwitz.shift_derivation(handle)
    if handle.weight.is_zero:
        return algebra.derivative_on(handle, handle.variables[0])
    return algebra.difference_quotient_on(handle, handle.variables[0])


def beta(u: Tensor) -> Series:
    """Swap the carrier order: tensors of series to a series of tensors."""
    hur_h = u.handle.inner
    if not isinstance(hur_h, HurwitzHandle):
        raise HandleMismatchError(f"expected tensors over a series carrier, got {u.handle}")
    sha_a = ShaHandle(hur_h.inner)
    target = HurwitzHandle(sha_a, hur_h.precision)
    cap = min([hur_h.precision] + [f.precision for t in u.terms for f in t])

    def embed(f: Series) -> Series:
        return Series(target, tuple(freerb.eta(v, sha_a) for v in f.values))

    phi = Hom(hur_h, target, embed, name="embed^seq")
    out = freerb.induced_rb_hom(phi, canonical_rb(target), u)
    return out.truncate(cap) if out.precision > cap else out


def beta_hom(src: ShaHandle) -> Hom:
    if not isinstance(src.inner, HurwitzHandle):
        raise HandleMismatchError(f"expected tensors over a series carrier, got {src}")
    dst = HurwitzHandle(ShaHandle(src.inner.inner), src.inner.precision)
    # beta is looked up per call, so that a wrapper set on it later applies
    return Hom(src, dst, lambda u: beta(u), name="beta")


# --------------------------------------------------------------------------
# Lifted structures


def lift_t_structure(h: Hom, precision: int) -> Hom:
    """Lift an evaluation structure sha(A) -> A to the series carrier.

    The lifted structure on hur(A) sends a tensor of series through beta and
    then applies h pointwise.
    """
    if not isinstance(h.src, ShaHandle) or h.src.inner != h.dst:
        raise HandleMismatchError(f"not an evaluation structure: {h.src} -> {h.dst}")
    hur_a = HurwitzHandle(h.dst, precision)
    return Hom(ShaHandle(hur_a), hur_a,
               lambda u: hurwitz.map_pointwise(h, beta(u)),
               name=f"lift({h.name})")


def lift_costructure(f: Hom, u: Tensor) -> Series:
    """Lift a costructure A -> hur(A) across the tensor carrier at u.

    Computes beta applied to the factorwise image of u; the resulting
    assignment sha(A) -> hur(sha(A)) is the lifted costructure.
    """
    if not isinstance(f.dst, HurwitzHandle) or f.dst.inner != f.src:
        raise HandleMismatchError(f"not a costructure: {f.src} -> {f.dst}")
    return beta(freerb.sha_map(f, u))


def lift_costructure_hom(f: Hom) -> Hom:
    if not isinstance(f.dst, HurwitzHandle) or f.dst.inner != f.src:
        raise HandleMismatchError(f"not a costructure: {f.src} -> {f.dst}")
    dst = HurwitzHandle(ShaHandle(f.src), f.dst.precision)
    return Hom(ShaHandle(f.src), dst,
               lambda u: lift_costructure(f, u), name=f"lift({f.name})")


# --------------------------------------------------------------------------
# Compatibility of a structure/costructure pair


def mixed_compat_sides(h: Hom, f: Hom, u: Tensor) -> tuple[Series, Series]:
    """Both sides of f(h(u)) = pointwise-h(beta(factorwise-f(u))).

    This is the defining square for a carrier holding both an evaluation
    structure h and a costructure f compatibly.
    """
    return f(h(u)), hurwitz.map_pointwise(h, beta(freerb.sha_map(f, u)))
