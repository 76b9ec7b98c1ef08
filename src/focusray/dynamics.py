"""Temporal focus behavior: smooth refocus transitions and target persistence.

Per-tick selections are noisy; this module turns them into a continuous
focal-distance signal. A new target starts a linear transition (default
500 ms) from the current focal distance. Losing the selection holds the
target and focal distance for a persistence window (default 300 ms) so
single-tick dropouts don't flicker; past the window the target clears but
the focal distance stays put; focus never snaps. `step` moves a `FocusState`
by one tick; `scan_focus` runs the same rules over a whole run's selections,
as columns, and says what each tick did.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ValidationError
from .record import Record, record


def _require_non_negative(name: str, x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {x!r}")


@record
class DynamicsConfig(Record):
    """Timing knobs: transition duration and post-loss hold, both in ms."""

    refocus_ms: float = 500.0
    persistence_hold_ms: float = 300.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.refocus_ms) and self.refocus_ms > 0.0):
            raise ValidationError(f"refocus_ms must be positive, got {self.refocus_ms!r}")
        _require_non_negative("persistence_hold_ms", self.persistence_hold_ms)


@record
class BlurConfig(Record):
    """Blur growth per meter of defocus and its cap."""

    blur_per_meter: float = 0.5
    max_blur: float = 1.0

    def __post_init__(self) -> None:
        _require_non_negative("blur_per_meter", self.blur_per_meter)
        _require_non_negative("max_blur", self.max_blur)


@record
class Transition(Record):
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


@record
class FocusSelection(Record):
    """A per-tick selection result: which object, at what distance."""

    object_id: int
    distance: float

    def __post_init__(self) -> None:
        _require_non_negative("distance", self.distance)


@record
class FocusState(Record):
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


# The rules below read and return the focus state as plain values: the target
# (an object id, or None), the focal distance, the transition in flight as
# (from_distance, to_distance, elapsed_ms, duration_ms) or None, and the
# persistence clock. `apply_selection`, `advance`, `step` and `scan_focus`
# all run on them, so each rule has one implementation.


def _select(target, focal, tr, object_id, distance, refocus_ms):
    """The selection rule: what a selection of `object_id` at `distance`
    does (`retarget`, `track` or `refresh`), and the transition after it."""
    if object_id == target and distance == (focal if tr is None else tr[1]):
        return "refresh", tr
    event = "track" if object_id == target else "retarget"
    return event, None if distance == focal else (focal, distance, 0.0, refocus_ms)


def _elapse(target, focal, tr, held_ms, selected, dt_ms, hold_ms):
    """The transition and hold rule: the state dt_ms after a tick with or without a selection."""
    if selected:
        if tr is None:
            return target, focal, tr, held_ms
        a, b, elapsed, duration = tr
        elapsed += dt_ms
        if elapsed >= duration:
            return target, b, None, held_ms
        return target, a + (b - a) * (elapsed / duration), (a, b, elapsed, duration), held_ms
    if target is None:
        return target, focal, tr, held_ms
    held_ms += dt_ms
    if held_ms >= hold_ms:
        return None, focal, None, 0.0
    return target, focal, tr, held_ms


def _unpack(state: FocusState) -> tuple:
    tr = state.transition
    if tr is not None:
        tr = tr.from_distance, tr.to_distance, tr.elapsed_ms, tr.duration_ms
    return state.current_target, state.focal_distance, tr, state.persistence_elapsed_ms


def _pack(target, focal, tr, held_ms) -> FocusState:
    return FocusState(target, focal, tr if tr is None else Transition(*tr), held_ms)


def _check_dt(dt_ms: float) -> None:
    if not (math.isfinite(dt_ms) and dt_ms > 0.0):
        raise ValidationError(f"dt_ms must be positive, got {dt_ms!r}")


def apply_selection(state: FocusState, selection: FocusSelection | None, cfg: DynamicsConfig) -> FocusState:
    """Target bookkeeping half of step(): retarget, track or refresh, no time passing.

    A selection of a new target begins a transition from the instantaneous
    focal distance (so retargeting mid-flight restarts without a jump). The
    same target at a changed distance starts one too (it tracks the target);
    at an unchanged distance it only refreshes the persistence clock. No
    selection leaves the state untouched here; gap handling lives in advance().
    """
    if selection is None:
        return state
    target, focal, tr, _ = _unpack(state)
    _, tr = _select(target, focal, tr, selection.object_id, selection.distance, cfg.refocus_ms)
    return _pack(selection.object_id, focal, tr, 0.0)


def advance(applied: FocusState, selected: bool, dt_ms: float, cfg: DynamicsConfig) -> FocusState:
    """The time half of step(): move `applied`, a state that `apply_selection`
    returned for this tick, forward by dt_ms.

    After a selection (`selected`), any transition moves forward by dt_ms,
    to the end of its own `duration_ms`. Without one, the focal distance
    freezes and the persistence clock accumulates; once it reaches the hold
    window the target and any pending transition clear, keeping the last
    focal distance.
    """
    _check_dt(dt_ms)
    return _pack(*_elapse(*_unpack(applied), selected, dt_ms, cfg.persistence_hold_ms))


def step(
    state: FocusState,
    selection: FocusSelection | None,
    dt_ms: float,
    cfg: DynamicsConfig,
) -> FocusState:
    """Advance the focus signal by one tick of dt_ms given this tick's
    selection: `apply_selection`, then `advance`."""
    _check_dt(dt_ms)
    target, focal, tr, held = _unpack(state)
    if selection is not None:
        _, tr = _select(target, focal, tr, selection.object_id, selection.distance, cfg.refocus_ms)
        target, held = selection.object_id, 0.0
    return _pack(*_elapse(target, focal, tr, held, selection is not None, dt_ms, cfg.persistence_hold_ms))


def scan_focus(
    ids: Sequence[int | None], distances: Sequence[float], dt_ms: float, cfg: DynamicsConfig
) -> tuple[list[float], list[bool], list[str]]:
    """`step` over a run of ticks of dt_ms from `FocusState.initial()`, on
    plain values: `ids` holds each tick's selected object id (None for no
    selection) and `distances` its distance (not read where there is none).

    Per tick it returns the focal distance the tick starts at (which
    `apply_selection` leaves as it is), whether a transition is in flight
    after the selection, and what the tick did:
    - `retarget`: a selection of another target; a transition to its
      distance starts unless focus is already there;
    - `track`: the same target at a distance other than where focus is
      heading; a transition starts as for a retarget;
    - `refresh`: the same target at that distance; the persistence clock restarts;
    - `hold`: no selection, and the target is held through the persistence window;
    - `expiry`: no selection, and the window ends: the target and any
      transition clear, the focal distance stays;
    - `none`: no selection and no target.

    `dt_ms` is checked once, and the distances of the selected ticks as one
    column, with `FocusSelection`'s message for the first refused one.
    Columns of different lengths raise `ValidationError` naming both.
    """
    _check_dt(dt_ms)
    if len(ids) != len(distances):
        raise ValidationError(f"the scan has {len(ids)} ids but {len(distances)} distances")
    # the first selected distance that is not finite and >= 0, if any
    bad = next((d for i, d in zip(ids, distances) if i is not None and not 0.0 <= d < math.inf), 0.0)
    _require_non_negative("distance", float(bad))
    refocus_ms, hold_ms = cfg.refocus_ms, cfg.persistence_hold_ms
    target, focal, tr, held = None, 0.0, None, 0.0
    focals: list[float] = []
    moving: list[bool] = []
    events: list[str] = []
    for object_id, distance in zip(ids, distances):
        before = target
        if object_id is not None:
            event, tr = _select(target, focal, tr, object_id, distance, refocus_ms)
            target, held = object_id, 0.0
        focals.append(focal)
        moving.append(tr is not None)
        target, focal, tr, held = _elapse(target, focal, tr, held, object_id is not None, dt_ms, hold_ms)
        if object_id is None:
            event = "none" if before is None else "hold" if target is not None else "expiry"
        events.append(event)
    return focals, moving, events


def blur_amount(depth: float, focal_distance: float, cfg: BlurConfig) -> float:
    """Blur at a given depth: linear in defocus distance, capped at max_blur."""
    _require_non_negative("depth", depth)
    _require_non_negative("focal_distance", focal_distance)
    return min(abs(depth - focal_distance) * cfg.blur_per_meter, cfg.max_blur)
