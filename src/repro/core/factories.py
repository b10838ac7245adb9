"""SHADOW factory functions and their spec-registry entries.

These are the canonical ways to construct a SHADOW instance from plain
keyword parameters; the spec layer's scheme registry points here, so
``SchemeSpec("shadow", ...)`` -- from the CLI, the experiment driver or
a rehydrated JSON job -- always builds through the same code path.

Simulation runs use the fast seeded system RNG inside SHADOW; the
PRINCE CSPRNG is exercised by the security analyses and its own tests
(the choice is statistically irrelevant for performance).
"""

from __future__ import annotations

from repro.core.config import ShadowConfig, secure_raaimt
from repro.core.pairing import CircuitTimings
from repro.core.shadow import Shadow
from repro.mitigations.filtered import FilteredRfm
from repro.spec.registry import SCHEMES


@SCHEMES.register("shadow")
def make_shadow(hcnt: int, seed: int = 1) -> Shadow:
    """SHADOW at the Table II secure RAAIMT for ``hcnt``."""
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind="system", rng_seed=seed))


@SCHEMES.register("shadow-trcd")
def make_shadow_with_trcd(trcd: int, hcnt: int,
                          base_trcd: int = 19,
                          tck_ns: float = 0.75,
                          seed: int = 1) -> Shadow:
    """SHADOW with an overridden tRCD' (Figure 9 sensitivity).

    The circuit model's tRD_RM is adjusted so the charged ACT extra
    lands exactly at ``trcd - base_trcd`` cycles.  ``seed`` pins the
    shuffle RNG exactly as :func:`make_shadow` does, so Figure 9 runs
    are as reproducible as Figure 8's.
    """
    if trcd <= base_trcd:
        raise ValueError("tRCD' must exceed the base tRCD")
    extra_cycles = trcd - base_trcd
    # cycles() rounds up, so aim just inside the target cycle count.
    trd_rm_ns = (extra_cycles - 0.5) * tck_ns
    circuit = CircuitTimings(trd_rm_ns=trd_rm_ns)
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind="system", rng_seed=seed,
                               circuit=circuit))


@SCHEMES.register("shadow-ablate")
def make_shadow_ablate(hcnt: int, rng_kind: str = "system",
                       pairing: bool = True,
                       isolation: bool = True) -> Shadow:
    """SHADOW with individual microarchitecture options toggled off."""
    return Shadow(ShadowConfig(raaimt=secure_raaimt(hcnt),
                               rng_kind=rng_kind, pairing=pairing,
                               isolation=isolation))


@SCHEMES.register("shadow-raw")
def make_shadow_raw(raaimt: int, rng_kind: str = "system",
                    seed: int = 1) -> Shadow:
    """SHADOW at an explicit RAAIMT (bench profiles, ad-hoc runs)."""
    return Shadow(ShadowConfig(raaimt=raaimt, rng_kind=rng_kind,
                               rng_seed=seed))


@SCHEMES.register("shadow-filtered")
def make_shadow_filtered(hcnt: int, hazard_threshold: int,
                         seed: int = 1) -> FilteredRfm:
    """SHADOW behind the Section VIII hazard filter.

    ``hazard_threshold`` has no default on purpose: the scheme is not
    buildable from ``hcnt`` alone, so it stays out of the ``hcnt``
    sweeps (scheme matrix, red-team, CLI ``--scheme``) and only runs
    where a driver chooses the threshold.
    """
    return FilteredRfm(make_shadow(hcnt, seed), hazard_threshold)


__all__ = [
    "make_shadow",
    "make_shadow_ablate",
    "make_shadow_filtered",
    "make_shadow_raw",
    "make_shadow_with_trcd",
]
