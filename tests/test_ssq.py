import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    DISORIENTATION_SYMPTOMS,
    NAUSEA_SYMPTOMS,
    OCULOMOTOR_SYMPTOMS,
    Profile,
    SYMPTOM_NAMES,
    SsqResponse,
    ValidationError,
    protocol_report,
    score_questionnaire,
)
from oracles import SSQ_MATRIX, ssq_scores_by_matrix


def resp(**by_symptom: int) -> SsqResponse:
    """Response with named symptom numbers set, e.g. resp(s1=2, s14=3)."""
    ratings = [0] * 16
    for key, value in by_symptom.items():
        ratings[int(key[1:]) - 1] = value
    return SsqResponse(ratings=tuple(ratings))


ZERO = resp()
PROFILE = Profile(name="P01", age=27, gender="female", academic_background="computer science")

ratings_strategy = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in range(16)])


class TestMembership:
    def test_class_sizes(self):
        assert len(NAUSEA_SYMPTOMS) == 7
        assert len(OCULOMOTOR_SYMPTOMS) == 7
        assert len(DISORIENTATION_SYMPTOMS) == 7

    def test_dual_class_symptoms(self):
        pairs = (
            (NAUSEA_SYMPTOMS & OCULOMOTOR_SYMPTOMS)
            | (NAUSEA_SYMPTOMS & DISORIENTATION_SYMPTOMS)
            | (OCULOMOTOR_SYMPTOMS & DISORIENTATION_SYMPTOMS)
        )
        assert pairs == {1, 5, 8, 9, 11}
        assert NAUSEA_SYMPTOMS & OCULOMOTOR_SYMPTOMS & DISORIENTATION_SYMPTOMS == set()

    def test_every_symptom_is_classified(self):
        assert NAUSEA_SYMPTOMS | OCULOMOTOR_SYMPTOMS | DISORIENTATION_SYMPTOMS == set(range(1, 17))

    def test_membership_matches_reference_matrix(self):
        for symptom in range(1, 17):
            n, o, d = SSQ_MATRIX[symptom - 1]
            assert (symptom in NAUSEA_SYMPTOMS) == bool(n)
            assert (symptom in OCULOMOTOR_SYMPTOMS) == bool(o)
            assert (symptom in DISORIENTATION_SYMPTOMS) == bool(d)

    def test_sixteen_symptom_names(self):
        assert len(SYMPTOM_NAMES) == 16
        assert SYMPTOM_NAMES[0] == "General discomfort"
        assert SYMPTOM_NAMES[13] == "Vertigo"


class TestScoring:
    def test_all_zero(self):
        s = score_questionnaire(ZERO)
        assert (s.nausea, s.oculomotor, s.disorientation, s.total) == (0.0, 0.0, 0.0, 0.0)

    def test_all_threes(self):
        s = score_questionnaire(SsqResponse(ratings=(3,) * 16))
        assert s.nausea == pytest.approx(200.34, abs=1e-9)  # 21 * 9.54
        assert s.oculomotor == pytest.approx(159.18, abs=1e-9)  # 21 * 7.58
        assert s.disorientation == pytest.approx(292.32, abs=1e-9)  # 21 * 13.92
        assert s.total == pytest.approx(235.62, abs=1e-9)  # 63 * 3.74

    def test_general_discomfort_counts_twice(self):
        # symptom 1 sits in both nausea and oculomotor
        s = score_questionnaire(resp(s1=2))
        assert s.nausea == pytest.approx(2 * 9.54, abs=1e-12)
        assert s.oculomotor == pytest.approx(2 * 7.58, abs=1e-12)
        assert s.disorientation == 0.0
        assert s.total == pytest.approx(4 * 3.74, abs=1e-12)

    def test_vertigo_is_disorientation_only(self):
        s = score_questionnaire(resp(s14=3))
        assert s.nausea == 0.0
        assert s.oculomotor == 0.0
        assert s.disorientation == pytest.approx(3 * 13.92, abs=1e-12)
        assert s.total == pytest.approx(3 * 3.74, abs=1e-12)

    def test_burping_is_nausea_only(self):
        s = score_questionnaire(resp(s16=1))
        assert s.nausea == pytest.approx(9.54, abs=1e-12)
        assert s.oculomotor == 0.0
        assert s.disorientation == 0.0

    @given(ratings=ratings_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_oracle(self, ratings):
        s = score_questionnaire(SsqResponse(ratings=ratings))
        n, o, d, t = ssq_scores_by_matrix(ratings)
        assert s.nausea == pytest.approx(n, abs=1e-9)
        assert s.oculomotor == pytest.approx(o, abs=1e-9)
        assert s.disorientation == pytest.approx(d, abs=1e-9)
        assert s.total == pytest.approx(t, abs=1e-9)

    @given(ratings=ratings_strategy, bump=st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_every_rating(self, ratings, bump):
        if ratings[bump - 1] == 3:
            return
        higher = list(ratings)
        higher[bump - 1] += 1
        a = score_questionnaire(SsqResponse(ratings=ratings))
        b = score_questionnaire(SsqResponse(ratings=tuple(higher)))
        assert b.nausea >= a.nausea
        assert b.oculomotor >= a.oculomotor
        assert b.disorientation >= a.disorientation
        assert b.total > a.total  # every symptom is in at least one class

    def test_raw_sums_are_linear(self):
        rng = random.Random(11)
        for _ in range(50):
            ratings = tuple(rng.randint(0, 1) for _ in range(16))
            doubled = tuple(2 * r for r in ratings)
            a = score_questionnaire(SsqResponse(ratings=ratings))
            b = score_questionnaire(SsqResponse(ratings=doubled))
            assert b.nausea == pytest.approx(2 * a.nausea, abs=1e-9)
            assert b.total == pytest.approx(2 * a.total, abs=1e-9)


class TestResponseValidation:
    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            SsqResponse(ratings=(0,) * 15)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            SsqResponse(ratings=(4,) + (0,) * 15)
        with pytest.raises(ValidationError):
            SsqResponse(ratings=(-1,) + (0,) * 15)

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            SsqResponse(ratings=(True,) + (0,) * 15)

    def test_error_names_the_symptom(self):
        with pytest.raises(ValidationError, match="symptom 5"):
            SsqResponse(ratings=(0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))


class TestProfile:
    def test_age_must_be_positive_int(self):
        with pytest.raises(ValidationError):
            Profile(name="x", age=0, gender="male", academic_background="arts")
        with pytest.raises(ValidationError):
            Profile(name="x", age=True, gender="male", academic_background="arts")


class TestProtocol:
    def test_deltas_against_baseline(self):
        report = protocol_report(PROFILE, resp(s1=1), resp(s1=2, s14=1), resp())
        assert report.delta_q2.nausea == pytest.approx(9.54, abs=1e-9)
        assert report.delta_q2.oculomotor == pytest.approx(7.58, abs=1e-9)
        assert report.delta_q2.disorientation == pytest.approx(13.92, abs=1e-9)
        assert report.delta_q2.total == pytest.approx((5 - 2) * 3.74, abs=1e-9)
        # q3 back to no symptoms: recovery shows as a negative delta
        assert report.delta_q3.nausea == pytest.approx(-9.54, abs=1e-9)
        assert report.delta_q3.total == pytest.approx(-2 * 3.74, abs=1e-9)

    def test_identical_questionnaires_zero_delta(self):
        r = resp(s5=2, s8=1)
        report = protocol_report(PROFILE, r, r, r)
        for delta in (report.delta_q2, report.delta_q3):
            assert delta.nausea == 0.0
            assert delta.oculomotor == 0.0
            assert delta.disorientation == 0.0
            assert delta.total == 0.0

    def test_report_carries_profile(self):
        report = protocol_report(PROFILE, ZERO, ZERO, ZERO)
        assert report.profile == PROFILE
