"""Tracker x ActionPolicy x Scope: the mitigation composition substrate.

Every tracker-based Row Hammer defense in the paper's evaluation is the
same machine seen three ways:

* a **Tracker** observes the ACT stream in a bounded structure and
  answers queries -- estimate, hottest entry, or a sampled row (the
  protocol and every structure live in ``trackers.py``);
* an **ActionPolicy** turns those answers into one of the Section III
  mitigating actions: synchronous TRR (Graphene), RFM-hosted TRR
  (Mithril, PARFM, MINT, DAPPER), ACT throttling (BlockHammer), or row
  swaps (RRS);
* a **Scope** binds the state to a granularity (per bank / per rank)
  and a reset cadence (REF-window sweep, every RFM, tracker-internal
  epoch, or never).

:class:`ComposedMitigation` is the glue: schemes declare the triple and
inherit the per-scope state management, the hook plumbing, and the
``tracker-reset`` event (occupancy and spill at each scope reset,
routed through the standard mitigation-event channel into
``repro.obs``).  Adding a mitigation becomes one file: a tracking
structure (if it is new; it subclasses :class:`Tracker` and registers
itself), a policy (if the action is new), and a class naming the
composition -- see ``mint.py`` and ``dapper.py``.

Hot-path discipline: the memory controller hoists per-scheme feature
gates by checking ``type(m).hook is not Mitigation.hook`` (see
``controller/mc.py``), and disables its candidate-reuse memo for
throttling schemes.  The base class therefore only overrides
``on_activate`` and ``on_rfm`` -- the hooks every composed scheme uses
-- while ``before_activate`` (:class:`ThrottleMixin`), ``on_ref``
(:class:`RefWindowResetMixin`) and ``translate`` (scheme-defined, e.g.
RRS) are opted into per scheme.  A composed scheme keeps exactly the
gate profile of its hand-written predecessor, which is what pins the
golden command streams byte-identical across the refactor.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.dram.device import BankAddress
from repro.mitigations.base import ActOutcome, Mitigation, RfmOutcome
from repro.mitigations.trackers import Tracker
from repro.spec.registry import POLICIES, TRACKERS


# -- scope ---------------------------------------------------------------------------

#: Reset cadences a scope may declare.  ``"epoch"`` documents trackers
#: that rotate internally on cycle stamps (D-CBF); the composition layer
#: only drives ``"ref-window"`` (via :class:`RefWindowResetMixin`) and
#: ``"rfm"`` (after each RFM's policy work).
RESET_CADENCES = (None, "ref-window", "rfm", "epoch")

_SCOPE_GRAINS = ("bank", "rank", "channel", "global")


@dataclass(frozen=True)
class Scope:
    """Where tracker/policy state lives and when it resets."""

    per: str = "bank"
    reset: Optional[str] = None

    def __post_init__(self) -> None:
        if self.per not in _SCOPE_GRAINS:
            raise ValueError(f"scope granularity must be one of "
                             f"{_SCOPE_GRAINS}, got {self.per!r}")
        if self.reset not in RESET_CADENCES:
            raise ValueError(f"reset cadence must be one of "
                             f"{RESET_CADENCES}, got {self.reset!r}")

    def key(self, addr: BankAddress) -> Hashable:
        if self.per == "bank":
            return addr
        if self.per == "rank":
            return (addr.channel, addr.rank)
        if self.per == "channel":
            return addr.channel
        return 0


@dataclass(frozen=True)
class TrackerSpec:
    """A tracker by registry name plus constructor parameters.

    Parameter values may be callables ``(geometry, timing) -> value`` so
    sizing that depends on the bound system (table entries from the
    worst-case ACTs per tREFW, D-CBF epochs from tREFW) resolves lazily
    at tracker creation, after ``bind``.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "TrackerSpec":
        return cls(name, tuple(sorted(params.items())))


# -- the action policies --------------------------------------------------------------

class ActionPolicy(abc.ABC):
    """One Section III mitigating action, driven by tracker answers.

    Policies are stateless across scopes: per-scope mutable state comes
    from :meth:`make_state` and is threaded back into every hook, so one
    policy instance serves every bank of its owning mitigation.
    """

    kind = "policy"

    def bind(self, owner: "ComposedMitigation") -> None:
        """Resolve timing-derived parameters once the owner is bound."""

    def make_state(self, owner: "ComposedMitigation") -> Any:
        """Fresh per-scope policy state (None when the tracker is all
        the state there is)."""
        return None

    def on_activate(self, owner: "ComposedMitigation", state: "_ScopeState",
                    addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        return None

    def before_activate(self, owner: "ComposedMitigation",
                        state: "_ScopeState", addr: BankAddress,
                        pa_row: int, cycle: int) -> int:
        return cycle

    def on_rfm(self, owner: "ComposedMitigation", state: "_ScopeState",
               addr: BankAddress, cycle: int) -> RfmOutcome:
        return RfmOutcome()


def _blast_victims(owner: "ComposedMitigation", da_row: int,
                   blast_radius: int):
    layout = owner.geometry.layout
    return [row for row, _d in layout.da_neighbors(da_row, blast_radius)]


@POLICIES.register("trr-threshold")
class ThresholdTrr(ActionPolicy):
    """Synchronous TRR when a row's estimate crosses a threshold
    (Graphene): victims refresh immediately on the triggering ACT."""

    kind = "trr-threshold"

    def __init__(self, threshold: int, blast_radius: int = 1):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.blast_radius = max(1, blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        estimate = state.tracker.observe(da_row)
        if estimate < self.threshold:
            return ActOutcome()
        state.tracker.reset_key(da_row)
        victims = _blast_victims(owner, da_row, self.blast_radius)
        owner.trr_count += len(victims)
        return ActOutcome(trr_rows=victims)


@POLICIES.register("rfm-trr-hottest")
class RfmTrrHottest(ActionPolicy):
    """RFM-hosted TRR on the tracker's hottest row (Mithril, DAPPER):
    each RFM refreshes one neighbourhood and settles the entry."""

    kind = "rfm-trr-hottest"

    def __init__(self, blast_radius: int = 1):
        self.blast_radius = max(1, blast_radius)

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(da_row)
        return None

    def on_rfm(self, owner, state, addr, cycle):
        hottest = state.tracker.hottest()
        if hottest is None:
            return RfmOutcome()
        target, _count = hottest
        state.tracker.settle(target)
        victims = _blast_victims(owner, target, self.blast_radius)
        owner.trr_count += len(victims)
        return RfmOutcome(refreshed_rows=victims)


@POLICIES.register("rfm-trr-sampled")
class RfmTrrSampled(ActionPolicy):
    """RFM-hosted TRR on a row sampled from the tracked window (PARFM's
    history, MINT's single entry)."""

    kind = "rfm-trr-sampled"

    def __init__(self, blast_radius: int = 1):
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.blast_radius = blast_radius

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(da_row)
        return None

    def on_rfm(self, owner, state, addr, cycle):
        target = state.tracker.sample(owner.rng)
        if target is None:
            return RfmOutcome()
        victims = _blast_victims(owner, target, self.blast_radius)
        owner.trr_count += len(victims)
        return RfmOutcome(refreshed_rows=victims)


@POLICIES.register("trr-probabilistic")
class ProbabilisticTrr(ActionPolicy):
    """PARA: Bernoulli(p) per ACT, TRR one random-side neighbourhood of
    the activated row.  Needs no tracker at all."""

    kind = "trr-probabilistic"

    def __init__(self, probability: float, blast_radius: int = 1):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.probability = probability
        self.blast_radius = blast_radius

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        # Bernoulli(p) trial using 24 fresh random bits.
        draw = owner.rng.next_bits(24)
        if draw >= int(self.probability * (1 << 24)):
            return ActOutcome()
        side = 1 if owner.rng.next_bits(1) else -1
        layout = owner.geometry.layout
        lo, hi = layout.da_range(layout.subarray_of_da(da_row))
        victims = []
        for d in range(1, self.blast_radius + 1):
            row = da_row + side * d
            if lo <= row < hi:
                victims.append(row)
        owner.trr_count += len(victims)
        return ActOutcome(trr_rows=victims)


@POLICIES.register("throttle")
class Throttle(ActionPolicy):
    """BlockHammer: rate-limit ACTs to rows whose estimate crosses the
    blacklist threshold.  Per-scope state is the last-ACT cycle map."""

    kind = "throttle"

    def __init__(self, threshold: int, delay):
        self.threshold = threshold
        #: ``delay`` may be a callable ``(geometry, timing) -> cycles``.
        self._delay_spec = delay
        self.delay = None if callable(delay) else delay

    def bind(self, owner):
        spec = self._delay_spec
        self.delay = (spec(owner.geometry, owner.timing)
                      if callable(spec) else spec)

    def make_state(self, owner):
        return {}

    def before_activate(self, owner, state, addr, pa_row, cycle):
        estimate = state.tracker.estimate(pa_row, cycle)
        if estimate < self.threshold:
            return cycle
        last = state.policy.get(pa_row)
        if last is None:
            return cycle
        allowed = last + self.delay
        if allowed > cycle:
            owner.throttled_acts += 1
            owner.total_delay_cycles += allowed - cycle
            if owner._event_listeners:
                # Per throttle *evaluation* (the scheduler may probe a
                # candidate more than once before it issues), matching
                # the ``throttled_acts`` counter's semantics.
                owner.emit_event("throttle", addr, cycle, {
                    "pa_row": pa_row, "delay": allowed - cycle})
            return allowed
        return cycle

    def on_activate(self, owner, state, addr, pa_row, da_row, cycle):
        state.tracker.observe(pa_row, cycle)
        state.policy[pa_row] = cycle
        return None


# -- the composition glue -------------------------------------------------------------

class _ScopeState:
    """One scope key's state: its tracker plus the policy's scratch."""

    __slots__ = ("tracker", "policy")

    def __init__(self, tracker: Tracker, policy: Any):
        self.tracker = tracker
        self.policy = policy


class ComposedMitigation(Mitigation):
    """A mitigation declared as tracker x policy x scope.

    Subclasses pass the triple up and keep only their public face
    (name, ``uses_rfm``/``raaimt`` properties, reporting attributes).
    The glue owns per-scope state creation, the ``on_activate`` /
    ``on_rfm`` plumbing, reset cadences, and the ``tracker-reset``
    event.
    """

    def __init__(self, tracker: TrackerSpec, policy: ActionPolicy,
                 scope: Scope = Scope(), name: Optional[str] = None):
        super().__init__()
        self.tracker_spec = tracker
        self.policy = policy
        self.scope = scope
        if (scope.reset == "ref-window"
                and type(self).on_ref is Mitigation.on_ref):
            raise TypeError(
                f"{type(self).__name__}: reset='ref-window' requires "
                f"RefWindowResetMixin (the MC only calls on_ref on "
                f"schemes whose class overrides it)")
        self._states: Dict[Hashable, _ScopeState] = {}
        self.trr_count = 0
        if name is not None:
            self.name = name

    def bind(self, geometry, timing) -> None:
        super().bind(geometry, timing)
        self.policy.bind(self)

    def describe_composition(self) -> str:
        cadence = f"/{self.scope.reset}" if self.scope.reset else ""
        return (f"{self.tracker_spec.name} x {self.policy.kind} x "
                f"{self.scope.per}{cadence}")

    # -- per-scope state -------------------------------------------------------

    def _make_tracker(self) -> Tracker:
        params = {key: (value(self.geometry, self.timing)
                        if callable(value) else value)
                  for key, value in self.tracker_spec.params}
        return TRACKERS.build(self.tracker_spec.name, **params)

    def _state(self, addr: BankAddress) -> _ScopeState:
        key = self.scope.key(addr)
        state = self._states.get(key)
        if state is None:
            state = _ScopeState(self._make_tracker(),
                                self.policy.make_state(self))
            self._states[key] = state
        return state

    def _peek_state(self, addr: BankAddress) -> Optional[_ScopeState]:
        return self._states.get(self.scope.key(addr))

    def _reset_tracker(self, state: _ScopeState, addr: BankAddress,
                       cycle: int) -> None:
        if self._event_listeners:
            self.emit_event("tracker-reset", addr, cycle, {
                "occupancy": state.tracker.occupancy(),
                "spill": state.tracker.spillover(),
            })
        state.tracker.window_reset()

    # -- hooks -----------------------------------------------------------------

    def on_activate(self, addr: BankAddress, pa_row: int, da_row: int,
                    cycle: int) -> Optional[ActOutcome]:
        return self.policy.on_activate(self, self._state(addr), addr,
                                       pa_row, da_row, cycle)

    def on_rfm(self, addr: BankAddress, cycle: int) -> RfmOutcome:
        self._require_bound()
        state = self._state(addr)
        outcome = self.policy.on_rfm(self, state, addr, cycle)
        if self.scope.reset == "rfm":
            self._reset_tracker(state, addr, cycle)
        return outcome


class RefWindowResetMixin:
    """Opt-in ``reset="ref-window"`` cadence.

    Defines ``on_ref`` (so the MC's ``_observes_ref`` gate opens for the
    scheme) and resets each bank's tracker when the refresh sweep wraps
    to row 0 -- clearing per-REF segment would be more precise but
    strictly weaker for the attacker.  Resilient trackers decay instead
    of clearing (their ``window_reset``)."""

    def on_ref(self, addr: BankAddress, lo_row: int, hi_row: int,
               cycle: int) -> None:
        if lo_row == 0:
            state = self._peek_state(addr)
            if state is not None:
                self._reset_tracker(state, addr, cycle)


class ThrottleMixin:
    """Opt-in ACT throttling.

    Defines ``before_activate`` (so the MC's ``_throttles`` gate opens
    and its candidate-reuse memo is disabled) and delegates to the
    policy.  Only genuinely throttling schemes should carry that
    scheduling cost, hence the opt-in."""

    def before_activate(self, addr: BankAddress, pa_row: int,
                        cycle: int) -> int:
        return self.policy.before_activate(self, self._state(addr), addr,
                                           pa_row, cycle)


__all__ = [
    "ActionPolicy",
    "ComposedMitigation",
    "ProbabilisticTrr",
    "RefWindowResetMixin",
    "RfmTrrHottest",
    "RfmTrrSampled",
    "Scope",
    "ThresholdTrr",
    "Throttle",
    "ThrottleMixin",
    "TrackerSpec",
]
