"""Vector and camera math for focus-selection scene queries.

Everything here is a plain immutable value with pure-function operations:
safe to copy between threads, trivially deterministic. All geometry is in
double precision, world units are meters.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GeometryError, ValidationError
from .record import Record, record

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-6
# Largest coordinate or radius, in meters, that a scene or trajectory file
# may give: the squared distances of the ROI and ray tests then stay far
# below the float64 limit (~1.8e308), so none of them overflows.
MAX_COORD_M = 1e100
# Largest frame time, in ms, that a trajectory file may give: the frame-drop
# rule's summed excess then stays far below the float64 limit.
MAX_FRAME_MS = 1e100


@record
class Vec3(Record):
    """3D vector; components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValidationError(f"Vec3 components must be finite, got ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(*cross3((self.x, self.y, self.z), (other.x, other.y, other.z)))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        return Vec3(*unit3((self.x, self.y, self.z)))

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= UNIT_TOL


def cross3(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """Cross product of two (x, y, z) float triples."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def unit3(a: Sequence[float]) -> tuple[float, float, float]:
    """An (x, y, z) float triple divided by its length; GeometryError when near zero."""
    n = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    if n < 1e-12:
        raise GeometryError("cannot normalize a near-zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def view_frame(forward: Sequence[float], up: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Right (forward x up, normalized) and up made orthogonal (right x forward)."""
    right = unit3(cross3(forward, up))
    return right, cross3(right, forward)


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays, or with a 3-vector, summed in `Vec3.dot`'s order."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2]


def norm_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise lengths of an (N, 3) array, bit for bit `Vec3.norm` of each row."""
    return np.sqrt(dot_rows(a, a))


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (N, 3) arrays, each component as `cross3` computes it."""
    return np.array(cross3(a.T, b.T)).T


def view_frame_rows(forward: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`view_frame` of each row of two (N, 3) arrays, bit for bit, and per row
    True where the frame is not to be used: right was shorter than 1e-12
    before it was normalized, which `unit3` refuses, or the rebuilt up is off
    unit length, tested by its square, which flags more than `Vec3.is_unit`."""
    right = cross_rows(forward, up)
    n = norm_rows(right)
    with np.errstate(all="ignore"):
        right /= n[:, None]
        rebuilt = cross_rows(right, forward)
        return right, rebuilt, ~(n >= 1e-12) | ~(np.abs(dot_rows(rebuilt, rebuilt) - 1.0) <= UNIT_TOL)


def _require_unit(v: Vec3, name: str) -> None:
    if not v.is_unit():
        raise ValidationError(f"{name} must be a unit vector (|{name}| = {v.norm()!r})")


@record
class StereoRig(Record):
    """Left/right optical centers plus a shared orthonormal view frame."""

    ol: Vec3
    or_: Vec3
    up: Vec3
    forward: Vec3

    def __post_init__(self) -> None:
        _require_unit(self.forward, "forward")
        _require_unit(self.up, "up")
        if abs(self.forward.dot(self.up)) > ORTHO_TOL:
            raise ValidationError("forward and up must be orthogonal")
        if self.ol == self.or_:
            raise GeometryError("degenerate rig: left and right optical centers coincide")

    def midpoint(self) -> tuple[float, float, float]:
        """The exact component-wise midpoint of the optical centers."""
        return ((self.ol.x + self.or_.x) / 2.0, (self.ol.y + self.or_.y) / 2.0, (self.ol.z + self.or_.z) / 2.0)


@record
class MidCamera(Record):
    """Virtual camera at the midpoint of a stereo rig's optical centers."""

    m: Vec3
    forward: Vec3
    up: Vec3

    def __post_init__(self) -> None:
        _require_unit(self.forward, "forward")
        _require_unit(self.up, "up")


@record
class SceneObject(Record):
    """Candidate of visual attention: bounding sphere plus designer-assigned value."""

    id: int
    center: Vec3
    radius: float
    value: float
    label: str = ""

    def __post_init__(self) -> None:
        if not -(2**63) <= self.id < 2**63:  # selection holds ids as int64
            raise ValidationError(f"object id must fit in 64 bits, got {self.id!r}")
        if not self.radius > 0.0:
            raise ValidationError(f"object {self.id}: radius must be positive, got {self.radius!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"object {self.id}: value must be in [0, 1], got {self.value!r}")


@record
class Roi(Record):
    """Region of interest: a solid cone from `apex` along `axis`, truncated at `z_far`."""

    apex: Vec3
    axis: Vec3
    half_angle: float
    z_far: float

    def __post_init__(self) -> None:
        _require_unit(self.axis, "axis")
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValidationError(f"half_angle must be in (0, pi/2), got {self.half_angle!r}")
        if not self.z_far > 0.0:
            raise ValidationError(f"z_far must be positive, got {self.z_far!r}")


class CameraRows(NamedTuple):
    """T mid cameras as rows: positions `m`, `forward` and `up`, each (T, 3)."""

    m: np.ndarray
    forward: np.ndarray
    up: np.ndarray


class RoiRows(NamedTuple):
    """T ROIs as rows: `apex` and `axis` (T, 3), and the sine and cosine of
    each half-angle, as `math` computes them, and `z_far`, each (T,)."""

    apex: np.ndarray
    axis: np.ndarray
    sin_half: np.ndarray
    cos_half: np.ndarray
    z_far: np.ndarray


def derive_mid_camera(rig: StereoRig) -> MidCamera:
    """Midpoint camera of a stereo rig: exact component-wise midpoint, frame copied."""
    return MidCamera(m=Vec3(*rig.midpoint()), forward=rig.forward, up=rig.up)


def sphere_array(objects: Sequence[SceneObject]) -> np.ndarray:
    """Bounding spheres as an (N, 4) float64 array of center x, y, z and radius, in input order."""
    return np.array(
        [(o.center.x, o.center.y, o.center.z, o.radius) for o in objects], dtype=np.float64
    ).reshape(-1, 4)


def cone_distance(z: np.ndarray, rr: np.ndarray, sin_t, cos_t) -> np.ndarray:
    """Distance to a solid infinite cone of half-angle t from points at axial
    coordinate `z` and squared distance `rr` from its apex, taken in the
    (radial, axial) half-plane, where the cone is convex: to the apex where
    `s <= 0`, else to the lateral boundary ray (at most 0 inside the cone)."""
    zz = z * z
    rho = np.sqrt(np.maximum(rr - zz, 0.0))
    side = rho * cos_t - z * sin_t
    s = rho * sin_t + z * cos_t
    # plain sqrt, not hypot, so the scalar reference in tests/oracles.py
    # reproduces these values bit for bit
    apex_dist = np.sqrt(rho * rho + zz)
    return np.where(s <= 0.0, apex_dist, side)


def cone_mask(roi: Roi | RoiRows, spheres: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of `spheres` (see `sphere_array`), True when it overlaps the
    ROI; also each center minus the apex, (N, 3), and its squared length.
    Given the `RoiRows` of T ROIs instead, the same per (ROI, row) pair:
    (T, N), (T, N, 3) and (T, N) arrays, each element computed as for one ROI.

    Partial overlap counts: the center's `cone_distance` is at most the
    radius. Truncation: the sphere point closest to the apex plane along the
    axis must lie at axial distance <= z_far.
    """
    if isinstance(roi, Roi):
        apex, axis = (roi.apex.x, roi.apex.y, roi.apex.z), (roi.axis.x, roi.axis.y, roi.axis.z)
        sin_t, cos_t, z_far = math.sin(roi.half_angle), math.cos(roi.half_angle), roi.z_far
        rel = spheres[:, :3] - apex
        z = dot_rows(rel, axis)
    else:  # a leading axis of ROIs, broadcast over the rows of `spheres` one coordinate at a time, which
        # runs twice as fast as a (T, 1, 3) operand over (N, 3); z takes `dot_rows`'s products and sums
        apex, axis, sin_t, cos_t, z_far = (a[:, None] for a in roi)
        rel = np.empty((len(apex), len(spheres), 3))
        for k in range(3):
            np.subtract(spheres[:, k], apex[..., k], out=rel[..., k])
        z = rel[..., 0] * axis[..., 0] + rel[..., 1] * axis[..., 1] + rel[..., 2] * axis[..., 2]
    rad = spheres[:, 3]
    rr = dot_rows(rel, rel)
    return (cone_distance(z, rr, sin_t, cos_t) <= rad) & (z - rad <= z_far), rel, rr


def roi_mask(roi: Roi, objects: Sequence[SceneObject]) -> np.ndarray:
    """Per object, True when its bounding sphere overlaps the truncated ROI cone."""
    return cone_mask(roi, sphere_array(objects))[0]


@record(eq=False, init=False)
class PreparedScene(Record, Sequence[SceneObject]):
    """A scene prepared once for ROI queries: a sequence of its objects'
    fields in the order given, ids checked unique, and read-only `spheres`
    (as `sphere_array`), `ids` (int64) and `values`, one row per object
    sorted along the world axis on which the centers spread widest, ties by
    id, for a sort and sweep cull (Ericson, *Real-Time Collision Detection*,
    2004, 7.5). `rows[i]` is the row of the i-th object given, and
    `labels[i]` its label; each `SceneObject` is built on access by its
    checked constructor, from plain Python values.

    `sweep_axis` is that axis (0, 1 or 2); `spheres` is column-major, so its
    column on that axis is contiguous. Every array owns its data.
    """

    spheres: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    labels: tuple[str, ...]
    r_max: float
    sweep_axis: int

    def __init__(self, objects: Iterable[SceneObject]) -> None:
        objects = tuple(objects)
        # one table sorted by id, with each object's position in the order given
        table = sorted([(o.id, o.center.x, o.center.y, o.center.z, o.radius, o.value, i)
                        for i, o in enumerate(objects)])
        ids, *columns, given = zip(*table) if table else [()] * 7
        if len(set(ids)) != len(ids):
            raise ValidationError("scene contains duplicate object ids")
        self._sweep(np.array(ids, np.int64), np.array(columns, np.float64).reshape(5, -1), np.array(given, np.intp),
                    tuple([o.label for o in objects]))

    def _sweep(self, ids: np.ndarray, arrays: np.ndarray, given: np.ndarray, labels: tuple[str, ...]) -> None:
        """The fields from ascending `ids`, their (5, N) centers, radii and values, and positions in `labels`."""
        # halved, so that no spread overflows
        axis = int(np.argmax(np.ptp(arrays[:3] / 2.0, axis=1))) if len(ids) else 0
        order = np.argsort(arrays[axis], kind="stable")  # the ids ascend, so ties stay by id
        rows = np.empty(len(ids), np.intp)
        rows[given.take(order)] = np.arange(len(ids))
        attrs = dict(spheres=arrays[:4].take(order, axis=1).T, ids=ids.take(order), values=arrays[4].take(order),
                     rows=rows, labels=labels, r_max=float(arrays[3].max(initial=0.0)), sweep_axis=axis)
        for name, value in attrs.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> SceneObject:
        i = range(len(self))[operator.index(i)]  # negative indices count from the end; IndexError past either end
        return next(self._objects(slice(i, i + 1)))

    def __iter__(self) -> Iterator[SceneObject]:
        return self._objects(slice(None))

    def _objects(self, given: slice) -> Iterator[SceneObject]:
        rows = self.rows[given]
        columns = self.ids[rows].tolist(), self.spheres[rows].tolist(), self.values[rows].tolist(), self.labels[given]
        for oid, (x, y, z, r), v, label in zip(*columns):
            yield SceneObject(oid, Vec3(x, y, z), r, v, label)

    def roi_rows(self, roi: Roi | RoiRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """For the ROI, or each ROI of `RoiRows` in turn, the rows of `spheres`
        whose spheres overlap its cone, in id order, with `cone_mask`'s centers
        minus the apex and squared lengths of those rows; and the offsets at
        which each ROI's rows start, then their total.

        `cone_mask` runs on the slab of rows that the union of the cones' boxes
        spans along `sweep_axis`. A kept center lies within r_max of its nearest
        cone point, at most r_max * sin(half_angle) deeper than the center,
        itself at most z_far + r_max deep: a box holds the cone cut at z_far +
        2 r_max, grown by r_max and by a margin far above the rounding of
        cone_mask. The far disc's half-width is NaN only when depth is
        infinite, and then so is the pad: a box that is not finite spans every row.
        """
        e, r_max = self.sweep_axis, self.r_max
        if isinstance(roi, Roi):
            near, ax = (roi.apex.x, roi.apex.y, roi.apex.z), (roi.axis.x, roi.axis.y, roi.axis.z)
            depth = roi.z_far + 2.0 * r_max
            half = math.sqrt(ax[e - 1] ** 2 + ax[e - 2] ** 2) * depth * math.tan(roi.half_angle)
            far = near[e] + depth * ax[e]
            pad = r_max + 1e-6 * (depth + max(map(abs, near)))
            first, last = self.spheres[:, e].searchsorted((min(near[e], far - half) - pad,
                                                           max(near[e], far + half) + pad)).tolist()
            keep, rel, rr = cone_mask(roi, self.spheres[first:last])
            kept = keep.nonzero()[0]
            kept = kept[self.ids[first:last][kept].argsort()]  # into id order
            return first + kept, rel.take(kept, axis=0), rr[kept], [0, len(kept)]
        # the same boxes, one per ROI; fmin and fmax pass over a NaN, as min and max do a second operand
        near, ax = roi.apex[:, e], roi.axis
        with np.errstate(all="ignore"):
            depth = roi.z_far + 2.0 * r_max
            half = np.sqrt(ax[:, e - 1] ** 2 + ax[:, e - 2] ** 2) * depth * (roi.sin_half / roi.cos_half)
            far = near + depth * ax[:, e]
            pad = r_max + 1e-6 * (depth + np.abs(roi.apex).max(axis=1))
            lo = (np.fmin(near, far - half) - pad).min(initial=np.inf)
            hi = (np.fmax(near, far + half) + pad).max(initial=-np.inf)
        first, last = self.spheres[:, e].searchsorted((lo, hi)).tolist()
        # the slab's rows in id order, so that the kept (ROI, row) pairs come out by ROI, then by id
        order = self.ids[first:last].argsort()
        keep, rel, rr = cone_mask(roi, self.spheres[first:last].take(order, axis=0))
        kept = keep.ravel().nonzero()[0]
        starts = kept.searchsorted(np.arange(len(near) + 1) * len(order)).tolist()
        return first + order[kept % len(order)], rel.reshape(-1, 3).take(kept, axis=0), rr.ravel().take(kept), starts


def prepare_scene(objects: Iterable[SceneObject]) -> PreparedScene:
    """`objects` as a `PreparedScene`; a `PreparedScene` is returned as it is."""
    return objects if isinstance(objects, PreparedScene) else PreparedScene(objects)
