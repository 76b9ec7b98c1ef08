"""Simulator sickness questionnaire scoring and the three-questionnaire protocol.

A questionnaire rates 16 symptoms from 0 to 3. Each symptom belongs to one
or two of three classes (nausea, oculomotor, disorientation); a class's raw
score is the sum of its members' ratings, and the reported scores apply the
standard class multipliers. The total multiplies the overlap-counted raw
sum of all three classes; a symptom in two classes contributes twice,
matching the class-sum definition rather than a distinct-symptom sum.

The protocol pairs a participant profile with three questionnaires (before
exposure, after each of two sessions) and reports per-class deltas against
the baseline.
"""

from __future__ import annotations


from .errors import ValidationError
from .record import Record, record

SYMPTOM_NAMES = (
    "General discomfort",
    "Fatigue",
    "Headache",
    "Eye strain",
    "Difficulty focusing",
    "Increased salivation",
    "Sweating",
    "Nausea",
    "Difficulty concentrating",
    "Fullness of head",
    "Blurred vision",
    "Dizzy (eyes open)",
    "Dizzy (eyes closed)",
    "Vertigo",
    "Stomach awareness",
    "Burping",
)

# 1-based symptom numbers per class; 1, 5, 8, 9 and 11 sit in two classes
NAUSEA_SYMPTOMS = frozenset({1, 6, 7, 8, 9, 15, 16})
OCULOMOTOR_SYMPTOMS = frozenset({1, 2, 3, 4, 5, 9, 11})
DISORIENTATION_SYMPTOMS = frozenset({5, 8, 10, 11, 12, 13, 14})

NAUSEA_MULTIPLIER = 9.54
OCULOMOTOR_MULTIPLIER = 7.58
DISORIENTATION_MULTIPLIER = 13.92
TOTAL_MULTIPLIER = 3.74


@record
class Profile(Record):
    """Participant profile collected alongside the questionnaires."""

    name: str
    age: int
    gender: str
    academic_background: str

    def __post_init__(self) -> None:
        if not (isinstance(self.age, int) and not isinstance(self.age, bool) and self.age > 0):
            raise ValidationError(f"age must be a positive integer, got {self.age!r}")


@record
class SsqResponse(Record):
    """Sixteen symptom ratings in canonical symptom order, each 0..3."""

    ratings: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ratings) != 16:
            raise ValidationError(f"expected 16 ratings, got {len(self.ratings)}")
        for i, r in enumerate(self.ratings, start=1):
            if not (isinstance(r, int) and not isinstance(r, bool) and 0 <= r <= 3):
                raise ValidationError(f"symptom {i}: rating must be an integer in 0..3, got {r!r}")


@record
class SsqScore(Record):
    """The three class scores and the weighted total of a questionnaire, or
    their signed differences between two questionnaires."""

    nausea: float
    oculomotor: float
    disorientation: float
    total: float


@record
class ProtocolReport(Record):
    """Scores for all three questionnaires and deltas against the baseline."""

    profile: Profile
    q1: SsqScore
    q2: SsqScore
    q3: SsqScore
    delta_q2: SsqScore
    delta_q3: SsqScore


def _raw_class_score(resp: SsqResponse, members: frozenset[int]) -> int:
    return sum(resp.ratings[i - 1] for i in sorted(members))


def score_questionnaire(resp: SsqResponse) -> SsqScore:
    """Class scores: raw member sums times the class multipliers.

    The total is the overlap-counted raw sum of all three classes times its
    own multiplier.
    """
    classes = ((NAUSEA_SYMPTOMS, NAUSEA_MULTIPLIER), (OCULOMOTOR_SYMPTOMS, OCULOMOTOR_MULTIPLIER),
               (DISORIENTATION_SYMPTOMS, DISORIENTATION_MULTIPLIER))
    raw = [_raw_class_score(resp, members) for members, _ in classes]
    return SsqScore(*(r * multiplier for r, (_, multiplier) in zip(raw, classes)), sum(raw) * TOTAL_MULTIPLIER)


def _delta(after: SsqScore, baseline: SsqScore) -> SsqScore:
    return SsqScore(*(getattr(after, name) - getattr(baseline, name) for name in SsqScore.__match_args__))


def protocol_report(profile: Profile, q1: SsqResponse, q2: SsqResponse, q3: SsqResponse) -> ProtocolReport:
    """Score a participant's three questionnaires (before exposure, after each
    session); deltas are q2 - q1 and q3 - q1."""
    s1, s2, s3 = map(score_questionnaire, (q1, q2, q3))
    return ProtocolReport(profile, s1, s2, s3, delta_q2=_delta(s2, s1), delta_q3=_delta(s3, s1))
