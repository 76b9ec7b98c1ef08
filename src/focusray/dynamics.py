"""Temporal focus behavior: smooth refocus transitions and target persistence.

Per-tick selections are noisy; this module turns them into a continuous
focal-distance signal. A new target starts a linear transition (default
500 ms) from the current focal distance. Losing the selection holds the
target and focal distance for a persistence window (default 300 ms) so
single-tick dropouts don't flicker; past the window the target clears but
the focal distance stays put; focus never snaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


def _require_non_negative(name: str, x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {x!r}")


@dataclass(frozen=True, slots=True)
class DynamicsConfig:
    """Timing knobs: transition duration and post-loss hold, both in ms."""

    refocus_ms: float = 500.0
    persistence_hold_ms: float = 300.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.refocus_ms) and self.refocus_ms > 0.0):
            raise ValidationError(f"refocus_ms must be positive, got {self.refocus_ms!r}")
        _require_non_negative("persistence_hold_ms", self.persistence_hold_ms)


@dataclass(frozen=True, slots=True)
class BlurConfig:
    """Blur growth per meter of defocus and its cap."""

    blur_per_meter: float = 0.5
    max_blur: float = 1.0

    def __post_init__(self) -> None:
        _require_non_negative("blur_per_meter", self.blur_per_meter)
        _require_non_negative("max_blur", self.max_blur)


@dataclass(frozen=True, slots=True)
class Transition:
    """An in-flight linear focal-distance change."""

    from_distance: float
    to_distance: float
    elapsed_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        _require_non_negative("from_distance", self.from_distance)
        _require_non_negative("to_distance", self.to_distance)
        _require_non_negative("elapsed_ms", self.elapsed_ms)
        if not (math.isfinite(self.duration_ms) and self.duration_ms > 0.0):
            raise ValidationError(f"duration_ms must be positive, got {self.duration_ms!r}")


@dataclass(frozen=True, slots=True)
class FocusSelection:
    """A per-tick selection result: which object, at what distance."""

    object_id: int
    distance: float

    def __post_init__(self) -> None:
        _require_non_negative("distance", self.distance)


@dataclass(frozen=True, slots=True)
class FocusState:
    """Focus signal state between ticks. Immutable; step() returns a new one."""

    current_target: int | None = None
    focal_distance: float = 0.0
    transition: Transition | None = None
    persistence_elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        _require_non_negative("focal_distance", self.focal_distance)
        _require_non_negative("persistence_elapsed_ms", self.persistence_elapsed_ms)

    @classmethod
    def initial(cls) -> "FocusState":
        return cls()


def apply_selection(state: FocusState, selection: FocusSelection | None, cfg: DynamicsConfig) -> FocusState:
    """Target bookkeeping half of step(): retarget or refresh, no time passing.

    A selection of a new target begins a transition from the instantaneous
    focal distance (so retargeting mid-flight restarts without a jump). The
    same target at a changed distance retargets too; at an unchanged distance
    it only refreshes the persistence clock. No selection leaves the state
    untouched here; gap handling lives in advance().
    """
    if selection is None:
        return state
    transition = state.transition
    destination = transition.to_distance if transition else state.focal_distance
    if selection.object_id != state.current_target or selection.distance != destination:
        transition = None
        if selection.distance != state.focal_distance:
            transition = Transition(
                from_distance=state.focal_distance,
                to_distance=selection.distance,
                elapsed_ms=0.0,
                duration_ms=cfg.refocus_ms,
            )
    return FocusState(
        current_target=selection.object_id,
        focal_distance=state.focal_distance,
        transition=transition,
        persistence_elapsed_ms=0.0,
    )


def advance(applied: FocusState, selected: bool, dt_ms: float, cfg: DynamicsConfig) -> FocusState:
    """The time half of step(): move `applied`, a state that `apply_selection`
    returned for this tick, forward by dt_ms.

    After a selection (`selected`), any transition moves forward by dt_ms.
    Without one, the focal distance freezes and the persistence clock
    accumulates; once it reaches the hold window the target and any pending
    transition clear, keeping the last focal distance.
    """
    if not (math.isfinite(dt_ms) and dt_ms > 0.0):
        raise ValidationError(f"dt_ms must be positive, got {dt_ms!r}")

    if selected:
        tr = applied.transition
        if tr is None:
            return applied
        elapsed = tr.elapsed_ms + dt_ms
        if elapsed >= tr.duration_ms:
            focal, transition = tr.to_distance, None
        else:
            focal = tr.from_distance + (tr.to_distance - tr.from_distance) * (elapsed / tr.duration_ms)
            transition = Transition(
                from_distance=tr.from_distance,
                to_distance=tr.to_distance,
                elapsed_ms=elapsed,
                duration_ms=tr.duration_ms,
            )
        return FocusState(
            current_target=applied.current_target,
            focal_distance=focal,
            transition=transition,
            persistence_elapsed_ms=applied.persistence_elapsed_ms,
        )

    if applied.current_target is None:
        return applied
    elapsed = applied.persistence_elapsed_ms + dt_ms
    if elapsed >= cfg.persistence_hold_ms:
        return FocusState(
            current_target=None,
            focal_distance=applied.focal_distance,
            transition=None,
            persistence_elapsed_ms=0.0,
        )
    return FocusState(
        current_target=applied.current_target,
        focal_distance=applied.focal_distance,
        transition=applied.transition,
        persistence_elapsed_ms=elapsed,
    )


def step(
    state: FocusState,
    selection: FocusSelection | None,
    dt_ms: float,
    cfg: DynamicsConfig,
) -> FocusState:
    """Advance the focus signal by one tick of dt_ms given this tick's
    selection: `apply_selection`, then `advance`."""
    return advance(apply_selection(state, selection, cfg), selection is not None, dt_ms, cfg)


def blur_amount(depth: float, focal_distance: float, cfg: BlurConfig) -> float:
    """Blur at a given depth: linear in defocus distance, capped at max_blur."""
    _require_non_negative("depth", depth)
    _require_non_negative("focal_distance", focal_distance)
    return min(abs(depth - focal_distance) * cfg.blur_per_meter, cfg.max_blur)
