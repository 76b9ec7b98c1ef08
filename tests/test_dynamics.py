import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    BlurConfig,
    DynamicsConfig,
    FocusSelection,
    FocusState,
    Transition,
    ValidationError,
    advance,
    apply_selection,
    blur_amount,
    scan_focus,
    step,
)
from builders import profile

CFG = DynamicsConfig()  # 500 ms refocus, 300 ms hold
BLUR = BlurConfig()  # 0.5 per meter, cap 1.0


def sel(oid=7, dist=4.0):
    return FocusSelection(object_id=oid, distance=dist)


def acquire(distance=4.0, oid=7, cfg=CFG):
    """A state already locked on a target with the transition finished."""
    s = FocusState.initial()
    s = step(s, sel(oid, distance), cfg.refocus_ms, cfg)
    assert s.transition is None and s.focal_distance == distance
    return s


class TestConfigs:
    def test_refocus_must_be_positive(self):
        with pytest.raises(ValidationError):
            DynamicsConfig(refocus_ms=0.0)

    def test_hold_may_be_zero_but_not_negative(self):
        DynamicsConfig(persistence_hold_ms=0.0)
        with pytest.raises(ValidationError):
            DynamicsConfig(persistence_hold_ms=-1.0)

    def test_blur_rejects_negatives(self):
        with pytest.raises(ValidationError):
            BlurConfig(blur_per_meter=-0.5)
        with pytest.raises(ValidationError):
            BlurConfig(max_blur=-1.0)

    def test_state_rejects_negative_focal(self):
        with pytest.raises(ValidationError):
            FocusState(focal_distance=-1.0)

    def test_step_rejects_bad_dt(self):
        for dt in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                step(FocusState.initial(), None, dt, CFG)


class TestRefocusRamp:
    def test_linear_midpoint(self):
        s = step(FocusState.initial(), sel(dist=4.0), 250.0, CFG)
        assert s.focal_distance == 2.0
        assert s.transition is not None
        assert s.transition.elapsed_ms == 250.0

    def test_completion_at_duration(self):
        s = step(FocusState.initial(), sel(dist=4.0), 250.0, CFG)
        s = step(s, sel(dist=4.0), 250.0, CFG)
        assert s.focal_distance == 4.0
        assert s.transition is None

    def test_overshoot_tick_clamps_to_target(self):
        s = step(FocusState.initial(), sel(dist=4.0), 499.0, CFG)
        assert s.transition is not None
        s = step(s, sel(dist=4.0), 33.0, CFG)
        assert s.focal_distance == 4.0
        assert s.transition is None

    def test_fixed_point_when_already_on_target(self):
        s = acquire(4.0)
        again = step(s, sel(dist=4.0), 16.0, CFG)
        assert again.focal_distance == 4.0
        assert again.current_target == 7
        assert again.transition is None

    def test_refocus_toward_smaller_distance(self):
        s = acquire(10.0)
        s = step(s, sel(dist=2.0), 250.0, CFG)
        assert s.focal_distance == 6.0

    def test_zero_length_transition_skipped(self):
        s = step(FocusState.initial(), sel(dist=0.0), 16.0, CFG)
        assert s.current_target == 7
        assert s.focal_distance == 0.0
        assert s.transition is None

    def test_completion_exact_across_tick_sizes(self):
        for dt in (4.0, 16.0, 33.0, 50.0, 125.0):
            s = FocusState.initial()
            target = 6.0
            ticks = 0
            prev = s.focal_distance
            while s.transition is not None or ticks == 0:
                s = step(s, sel(dist=target), dt, CFG)
                ticks += 1
                assert s.focal_distance >= prev  # monotone approach
                prev = s.focal_distance
                assert ticks < 1000
            assert s.focal_distance == target
            assert ticks == math.ceil(CFG.refocus_ms / dt)

    def test_same_selection_does_not_restart_transition(self):
        s = step(FocusState.initial(), sel(dist=9.0), 100.0, CFG)
        s = step(s, sel(dist=9.0), 100.0, CFG)
        # two 100 ms ticks into a 500 ms ramp: 40 percent of the way
        assert s.focal_distance == 9.0 * (200.0 / 500.0)
        assert s.transition.elapsed_ms == 200.0


class TestRetargeting:
    def test_new_target_starts_from_instantaneous_focal(self):
        s = step(FocusState.initial(), sel(oid=1, dist=10.0), 250.0, CFG)
        assert s.focal_distance == 5.0
        switched = apply_selection(s, sel(oid=2, dist=1.0), CFG)
        assert switched.current_target == 2
        assert switched.transition.from_distance == 5.0
        assert switched.transition.to_distance == 1.0
        assert switched.transition.elapsed_ms == 0.0

    def test_focal_signal_continuous_across_switch(self):
        s = step(FocusState.initial(), sel(oid=1, dist=10.0), 250.0, CFG)
        before = s.focal_distance
        s = step(s, sel(oid=2, dist=1.0), 50.0, CFG)
        # one 50 ms tick of a 500 ms ramp from 5.0 toward 1.0
        assert s.focal_distance == pytest.approx(before + (1.0 - before) * 0.1, abs=1e-12)

    def test_same_target_new_distance_retargets(self):
        s = acquire(4.0)
        s = step(s, sel(dist=9.0), 100.0, CFG)
        assert s.current_target == 7
        assert s.transition is not None
        assert s.transition.from_distance == 4.0
        assert s.focal_distance == 4.0 + (9.0 - 4.0) * 0.2

    def test_mid_flight_distance_update_rebases(self):
        s = step(FocusState.initial(), sel(dist=10.0), 250.0, CFG)  # focal 5.0
        switched = apply_selection(s, sel(dist=2.0), CFG)
        assert switched.transition.from_distance == 5.0
        assert switched.transition.to_distance == 2.0


class TestPersistence:
    def test_hold_then_clear(self):
        s = acquire(4.0)
        for i in range(1, 6):  # 50..250 ms of gap: target retained
            s = step(s, None, 50.0, CFG)
            assert s.current_target == 7
            assert s.persistence_elapsed_ms == 50.0 * i
            assert s.focal_distance == 4.0
        s = step(s, None, 50.0, CFG)  # 300 ms reached: cleared
        assert s.current_target is None
        assert s.persistence_elapsed_ms == 0.0
        assert s.focal_distance == 4.0  # focus never snaps

    def test_boundary_299_retains_301_clears(self):
        s = acquire(4.0)
        held = step(s, None, 299.0, CFG)
        assert held.current_target == 7
        cleared = step(s, None, 301.0, CFG)
        assert cleared.current_target is None

    def test_exact_hold_duration_clears(self):
        s = acquire(4.0)
        assert step(s, None, 300.0, CFG).current_target is None

    def test_reacquire_resets_clock(self):
        s = acquire(4.0)
        for _ in range(4):
            s = step(s, None, 50.0, CFG)
        assert s.persistence_elapsed_ms == 200.0
        s = step(s, sel(dist=4.0), 50.0, CFG)
        assert s.persistence_elapsed_ms == 0.0
        for _ in range(5):  # another 250 ms of gap survives again
            s = step(s, None, 50.0, CFG)
        assert s.current_target == 7

    def test_gap_freezes_transition(self):
        s = step(FocusState.initial(), sel(dist=10.0), 250.0, CFG)
        frozen = step(s, None, 100.0, CFG)
        assert frozen.focal_distance == s.focal_distance
        assert frozen.transition == s.transition

    def test_clear_drops_pending_transition(self):
        s = step(FocusState.initial(), sel(dist=10.0), 250.0, CFG)
        s = step(s, None, 300.0, CFG)
        assert s.current_target is None
        assert s.transition is None
        assert s.focal_distance == 5.0

    def test_gap_without_target_is_inert(self):
        s = FocusState.initial()
        assert step(s, None, 50.0, CFG) == s


class TestBlur:
    def test_zero_at_focal_plane(self):
        assert blur_amount(4.0, 4.0, BLUR) == 0.0

    def test_linear_growth(self):
        assert blur_amount(3.0, 4.0, BLUR) == 0.5
        assert blur_amount(5.0, 4.0, BLUR) == 0.5
        assert blur_amount(4.5, 4.0, BLUR) == 0.25

    def test_cap(self):
        assert blur_amount(6.0, 4.0, BLUR) == 1.0  # exactly at the cap
        assert blur_amount(50.0, 4.0, BLUR) == 1.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            blur_amount(-1.0, 4.0, BLUR)


events = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
        st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestStateInvariants:
    @given(seq=events)
    @settings(max_examples=150, deadline=None)
    def test_focal_bounded_and_clocks_sane(self, seq):
        s = FocusState.initial()
        for dist, dt in seq:
            selection = None if dist is None else FocusSelection(object_id=1, distance=dist)
            s = step(s, selection, dt, CFG)
            assert 0.0 <= s.focal_distance <= 50.0
            assert math.isfinite(s.focal_distance)
            assert 0.0 <= s.persistence_elapsed_ms < CFG.persistence_hold_ms
            if s.transition is not None:
                assert 0.0 <= s.transition.elapsed_ms < s.transition.duration_ms
                assert s.current_target is not None

    @given(
        start=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        target=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        dt=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_focal_stays_between_endpoints(self, start, target, dt):
        s = FocusState(current_target=None, focal_distance=start, transition=None, persistence_elapsed_ms=0.0)
        lo, hi = min(start, target), max(start, target)
        for _ in range(math.ceil(CFG.refocus_ms / dt) + 1):
            s = step(s, FocusSelection(object_id=3, distance=target), dt, CFG)
            assert lo <= s.focal_distance <= hi
        assert s.focal_distance == target


distances = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
transitions = st.builds(Transition, distances, distances, st.floats(0.0, 1e3, allow_nan=False),
                        st.floats(1e-3, 1e3, allow_nan=False))
states = st.builds(FocusState, st.one_of(st.none(), st.integers(1, 3)), distances,
                   st.one_of(st.none(), transitions), st.floats(0.0, 1e3, allow_nan=False))


class TestStepIsApplyThenAdvance:
    """`step` is `apply_selection` and then `advance`, the two halves the
    replay calls once each per tick: field for field, for any state, any
    selection or none, and any tick length, refused ones included."""

    @given(state=states, data=st.data(),
           dt=st.one_of(st.floats(1e-3, 1e3, allow_nan=False), st.sampled_from([0.0, -1.0, math.inf, math.nan])),
           refocus=st.floats(1e-3, 1e3, allow_nan=False), hold=st.floats(0.0, 1e3, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_step_matches_the_halves(self, state, data, dt, refocus, hold):
        cfg = DynamicsConfig(refocus_ms=refocus, persistence_hold_ms=hold)
        # distances that tie with the state's own, so refreshes and skipped transitions occur
        near = [state.focal_distance] + ([state.transition.to_distance] if state.transition else [])
        selection = data.draw(st.one_of(st.none(), st.builds(
            FocusSelection, st.integers(1, 3), st.one_of(st.sampled_from(near), distances))))
        try:
            want = repr(advance(apply_selection(state, selection, cfg), selection is not None, dt, cfg))
        except ValidationError as e:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(e))}$"):
                step(state, selection, dt, cfg)
        else:
            assert repr(step(state, selection, dt, cfg)) == want


class TestTransitionValidation:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValidationError):
            Transition(from_distance=0.0, to_distance=1.0, elapsed_ms=0.0, duration_ms=0.0)


class TestScanAgainstStep:
    """`scan_focus` against `step`, tick by tick, from `FocusState.initial()`:
    the focal distance each tick starts at, the transition flag after the
    selection, and each event checked against the states before and after
    the tick. The sequences hold the same target at a changed distance,
    distances equal to the focal distance or to the transition's
    destination, gaps that end one tick before, at and after the hold
    window (its length a whole number of ticks, so the persistence clock
    reaches it exactly) and retargets mid-transition. The example count
    comes from the `dynamics-scan` profile; CI runs `dynamics-scan-long`."""

    @given(data=st.data())
    @settings(profile("dynamics-scan"))
    def test_scan_matches_step(self, data):
        dt = data.draw(st.sampled_from([1.0, 12.5, 16.0, 50.0, 100.0]), label="dt_ms")
        hold_ticks = data.draw(st.integers(0, 6), label="hold in ticks")
        refocus = data.draw(st.one_of(st.integers(1, 8).map(lambda k: k * dt), st.floats(1e-3, 1e3)), label="refocus_ms")
        cfg = DynamicsConfig(refocus_ms=refocus, persistence_hold_ms=hold_ticks * dt)
        ids, dists, states = [], [], [FocusState.initial()]
        for _ in range(data.draw(st.integers(1, 25), label="runs")):
            state = states[-1]
            kind = data.draw(st.sampled_from(["gap", "focal", "destination", "moved", "other"]))
            if kind == "gap":
                run = [(None, 0.0)] * data.draw(st.sampled_from([max(hold_ticks - 1, 1), max(hold_ticks, 1), hold_ticks + 1]))
            else:
                heading = state.transition.to_distance if state.transition else state.focal_distance
                oid = data.draw(st.integers(1, 3)) if kind == "other" or state.current_target is None else state.current_target
                dist = {"focal": state.focal_distance, "destination": heading}.get(kind)
                dist = data.draw(distances) if dist is None else dist
                run = [(oid, dist)] * data.draw(st.integers(1, 3))
            for oid, dist in run:
                ids.append(oid)
                dists.append(dist)
                states.append(step(states[-1], None if oid is None else FocusSelection(oid, dist), dt, cfg))

        focal, moving, events = scan_focus(ids, dists, dt, cfg)
        assert len(focal) == len(moving) == len(events) == len(ids)
        for i, (oid, dist) in enumerate(zip(ids, dists)):
            before, after = states[i], states[i + 1]
            applied = apply_selection(before, None if oid is None else FocusSelection(oid, dist), cfg)
            assert focal[i] == before.focal_distance == applied.focal_distance
            assert moving[i] == (applied.transition is not None)
            if oid is None:
                assert events[i] == ("none" if before.current_target is None else
                                     "hold" if after.current_target is not None else "expiry")
                assert after.focal_distance == before.focal_distance
                continue
            heading = before.transition.to_distance if before.transition else before.focal_distance
            assert events[i] == ("retarget" if oid != before.current_target else
                                 "track" if dist != heading else "refresh")
            assert after.current_target == oid and after.persistence_elapsed_ms == 0.0
            if events[i] == "refresh" and before.transition is not None and after.transition is not None:
                assert after.transition.from_distance == before.transition.from_distance  # the same transition goes on
                assert after.transition.elapsed_ms == before.transition.elapsed_ms + dt

    def test_events_of_a_short_run(self):
        cfg = DynamicsConfig(refocus_ms=32.0, persistence_hold_ms=32.0)
        ids = [None, 7, 7, 7, 7, None, None, None, 7, 8]
        dists = [0.0, 4.0, 4.0, 5.0, 5.0, 0.0, 0.0, 0.0, 5.0, 5.0]
        focal, moving, events = scan_focus(ids, dists, 16.0, cfg)
        assert events == ["none", "retarget", "refresh", "track", "refresh", "hold", "expiry", "none", "retarget",
                          "retarget"]
        assert focal == [0.0, 0.0, 2.0, 4.0, 4.5, 5.0, 5.0, 5.0, 5.0, 5.0]
        assert moving == [False, True, True, True, True, False, False, False, False, False]

    def test_checks_dt_once_and_distances_as_a_column(self):
        for dt in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="^dt_ms must be positive"):
                scan_focus([], [], dt, CFG)
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError) as refused:
                FocusSelection(object_id=2, distance=bad)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
                scan_focus([1, None, 2, 3], [4.0, 0.0, bad, -2.0], 16.0, CFG)
        assert scan_focus([None, 1], [math.nan, 3.0], 16.0, CFG)[2] == ["none", "retarget"]  # a gap's distance is not read

    def test_columns_of_different_lengths_are_refused(self):
        for ids, dists in (([1], []), ([], [4.0]), ([1, None], [4.0, 0.0, 5.0])):
            with pytest.raises(ValidationError, match=f"^the scan has {len(ids)} ids but {len(dists)} distances$"):
                scan_focus(ids, dists, 16.0, CFG)
