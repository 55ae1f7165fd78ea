"""Discrete fields on a periodic box with exact spectral calculus.

The periodic lattice stands in for whole space: test data oscillate on scales
well inside the box, and the box is chosen several times larger than any
cylinder radius a norm scan will use, so periodic images never enter a scan
window.  Differentiation is a Fourier multiplier, exact on band-limited data;
each multiplier is built once per grid.  ``Spectrum`` transforms a frame, or a
whole stack of frames, once for all of its derivatives; a stack gives each
frame the same bits as its own transform.  Coefficients made in mode space,
such as those of the free evolution or of a Picard iterate, are held with no
transform at all (``Spectrum.with_coeffs``), so no frame is transformed back
and forth.  This module holds every Fourier transform of the package, each
spelled once: ``forward_transform`` and its pair ``inverse_transform``.

Field values keep the component axes last: grid.shape + (l,) for a frame,
one leading frame axis for a stack.  Every array the spectral layer makes or
takes puts them first instead: component axes, then the frame axis, then the
grid axes, so each component is one contiguous block and every transform
runs over the last grid.dim axes.  ``components_first`` and
``components_last`` are the views between the two layouts; a field built
from a component-major result copies it into field layout once, as it copies
any values.  A sum over components lays its terms out C-ordered and
component-major and reduces over the leading axis, so numpy adds the blocks
left to right from 0.0 however many there are; its sum over a contiguous
axis would be pairwise from 8 terms on.

Every transform and multiplier acts on each frame alone, so a stack may be
worked one block of whole frames at a time (``frame_blocks``, about
``_BLOCK_POINTS`` grid points each) with the bits of the whole stack.  Every
magnitude stack of ``norms``, of values or of derivatives, the Picard
solver's included, is filled that way, holding one block's at a time.

Fields are real, so their spectra are Hermitian: every transform is scipy's
real ``rfftn``/``irfftn`` on one thread (``workers=1``, the default, which
keeps runs deterministic), and mode coefficients are the half spectrum, with
M // 2 + 1 modes on the last grid axis.  ``multiplier`` builds every Fourier
symbol of the package, derivatives, -|k|^2 and |k|^4, on those modes alone.
An odd per-axis order zeroes the Nyquist mode and an even one does not
depend on its sign, so each is the symbol of a real operator.

Fields are immutable after construction; frames of a space-time field share
one grid and codomain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.fft

__all__ = [
    "Grid",
    "GridField",
    "SpaceTimeField",
    "components_first",
    "components_last",
    "multiplier",
    "forward_transform",
    "inverse_transform",
    "Spectrum",
    "gradient",
    "hessian",
    "laplacian",
    "pointwise_norm",
    "frame_blocks",
    "ball_offsets",
    "ball_convolve",
    "save_space_time_field",
    "load_space_time_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [0, L)^n with M points per axis."""

    dim: int
    box_length: float
    points_per_axis: int

    def __post_init__(self):
        for name in ("dim", "points_per_axis"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if not 0.0 < self.box_length < np.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")
        M = self.points_per_axis
        if M < 16 or (M & (M - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 16")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def volume(self) -> float:
        return self.box_length ** self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid arrays of the lattice coordinates, one per axis."""
        axes = [self.axis_coordinates() for _ in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers(self) -> list[np.ndarray]:
        """Angular wavenumbers 2*pi*m/L per axis, FFT ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return [k for _ in range(self.dim)]


class GridField:
    """Sampled map from the grid into R^l at a single time.

    values has shape grid.shape + (l,); arrays are frozen on construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        # trailing axes beyond the grid hold the codomain (and, for per-axis
        # flux fields, one extra axis of length grid.dim before it)
        if values.ndim < grid.dim + 1 or values.shape[: grid.dim] != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("GridField is immutable")

    @property
    def codomain_dim(self) -> int:
        return self.values.shape[-1]

    @classmethod
    def constant(cls, grid: Grid, vec) -> "GridField":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(grid, np.broadcast_to(vec, grid.shape + vec.shape).copy())

    def sup_norm(self) -> float:
        return float(np.sqrt((self.values ** 2).sum(axis=-1)).max())


class SpaceTimeField:
    """Time-indexed sequence of frames: the discrete space-time field.

    times are finite, start at 0 and increase strictly; frames stack into one
    array of shape (num_times,) + grid.shape + (l,).
    """

    __slots__ = ("grid", "times", "values")

    def __init__(self, grid: Grid, times, values: np.ndarray):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two frame times")
        if not np.all(np.isfinite(times)):
            raise ValueError("frame times must be finite")
        if times[0] != 0.0:
            raise ValueError("frame times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("frame times must increase strictly")
        if (values.shape[0] != times.size or values.ndim < grid.dim + 2
                or values.shape[1: 1 + grid.dim] != grid.shape):
            raise ValueError("frame array shape inconsistent with grid/times")
        times = times.copy()
        values = values.copy()
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):
        raise AttributeError("SpaceTimeField is immutable")

    @property
    def codomain_dim(self) -> int:
        return self.values.shape[-1]

    @property
    def num_frames(self) -> int:
        return self.times.size

    def frame(self, i: int) -> GridField:
        return GridField(self.grid, self.values[i])


# ----------------------------------------------------------------------
# spectral calculus
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def multiplier(grid: Grid, order) -> np.ndarray:
    """Read-only Fourier symbol on the modes of a real transform, the first
    M // 2 + 1 on the last grid axis, built once per (grid, order).

    order is a multi-index, one entry per axis, for the symbol of d^order with
    the unmatched Nyquist mode zeroed for odd orders; "laplacian" for the real
    symbol -|k|^2; or "biharmonic" for |k|^4 = (-|k|^2)^2.  Each entry has
    the bits of its full-spectrum symbol's: the last axis keeps -M/2.
    """
    M = grid.points_per_axis
    shape = grid.shape[:-1] + (M // 2 + 1,)
    ks = [k[:m].reshape([m if a == ax else 1 for a in range(grid.dim)])
          for ax, (k, m) in enumerate(zip(grid.wavenumbers(), shape))]
    if order == "biharmonic":
        mult = multiplier(grid, "laplacian") ** 2
    elif order == "laplacian":
        ksq = np.zeros(shape)
        for k in ks:
            ksq = ksq + k ** 2
        mult = -ksq
    else:
        mult = np.ones(shape, dtype=complex)
        for k, o in zip(ks, order):
            if o == 0:
                continue
            if o % 2 == 1:
                k = k.copy()
                k.flat[M // 2] = 0.0  # odd derivative of the unmatched Nyquist mode
            mult = mult * (1j * k) ** o
    mult.setflags(write=False)
    return mult


def _unit(dim: int, *axes: int) -> tuple:
    """Multi-index with one derivative along each listed axis."""
    return tuple(axes.count(a) for a in range(dim))


def components_first(values: np.ndarray, comps: int) -> np.ndarray:
    """View of field-layout values with their ``comps`` trailing component
    axes moved to the front: the component-major layout of this layer."""
    return np.moveaxis(values, range(-comps, 0), range(comps))


def components_last(array: np.ndarray, comps: int) -> np.ndarray:
    """View of a component-major array with its ``comps`` leading component
    axes moved to the back: the layout of field values."""
    return np.moveaxis(array, range(comps), range(-comps, 0))


def forward_transform(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real frames over the last grid.dim axes
    of values."""
    return scipy.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)))


def inverse_transform(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real frames from half-spectrum coefficients over the last grid.dim
    axes of coeffs."""
    return scipy.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(-grid.dim, 0)))


class Spectrum:
    """Half-spectrum Fourier coefficients of a frame, or of a stack of frames,
    from one forward transform, or held as given (``with_coeffs``); every
    derivative of the frames is read off them.

    ``coeffs`` is component-major: the field's component axes, (l,) or, for
    a per-axis field (the one kind with a divergence), (n, l); then the frame
    axis of a SpaceTimeField; then the half-spectrum grid axes.  Every
    derivative comes back in the same layout, with its derivative axes in
    front.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, field: GridField | SpaceTimeField, frames: slice = slice(None)):
        """Spectrum of a field, or of the frames of one slice of a
        SpaceTimeField (``frame_blocks``)."""
        lead = 1 if isinstance(field, SpaceTimeField) else 0
        comps = field.values.ndim - lead - field.grid.dim
        self.grid = field.grid
        self.coeffs = forward_transform(field.grid, components_first(field.values[frames], comps))

    @classmethod
    def with_coeffs(cls, grid: Grid, coeffs: np.ndarray) -> "Spectrum":
        """Spectrum that holds the given component-major half-spectrum
        coefficients as they are, with no transform: for coefficients made
        in mode space, such as a frame's under a Fourier multiplier."""
        spec = cls.__new__(cls)
        spec.grid = grid
        spec.coeffs = coeffs
        return spec

    def derivative(self, order) -> np.ndarray:
        """Physical values of the derivative named by a multiplier order."""
        return inverse_transform(self.grid, self.coeffs * multiplier(self.grid, order))

    def _frames_shape(self) -> tuple:
        """Component and frame axes, then grid.shape, of the physical frames."""
        return self.coeffs.shape[: -self.grid.dim] + self.grid.shape

    def gradient(self) -> np.ndarray:
        """First derivatives, in one leading axis of length n: block a is d_a."""
        n = self.grid.dim
        out = np.empty((n,) + self._frames_shape())
        for a in range(n):
            out[a] = self.derivative(_unit(n, a))
        return out

    def hessian(self) -> np.ndarray:
        """Second derivatives, in two leading axes of length n."""
        n = self.grid.dim
        out = np.empty((n, n) + self._frames_shape())
        for a in range(n):
            for b in range(a, n):
                out[a, b] = out[b, a] = self.derivative(_unit(n, a, b))
        return out

    def divergence(self) -> np.ndarray:
        """Coefficients of sum_a d_a F_a for a per-axis field F, whose
        coefficients lead with the axis a."""
        n = self.grid.dim
        if self.coeffs.ndim < n + 2 or self.coeffs.shape[0] != n:
            raise ValueError("per-axis field must carry one component per spatial axis")
        acc = np.zeros(self.coeffs.shape[1:], dtype=complex)
        for a in range(n):
            acc += self.coeffs[a] * multiplier(self.grid, _unit(n, a))
        return acc


def gradient(f: GridField) -> np.ndarray:
    """Array of shape grid.shape + (n, l): first spatial derivatives."""
    return components_last(Spectrum(f).gradient(), 2)


def hessian(f: GridField) -> np.ndarray:
    """Array of shape grid.shape + (n, n, l): second derivatives."""
    return components_last(Spectrum(f).hessian(), 3)


def laplacian(f: GridField) -> GridField:
    return GridField(f.grid, components_last(Spectrum(f).derivative("laplacian"), 1))


def pointwise_norm(values: np.ndarray, grid: Grid, lead: int = 0) -> np.ndarray:
    """Euclidean/Frobenius magnitude of a component-major array over its
    component axes: every axis before the ``lead`` axes (1 for the frame axis
    of a stack) that precede the grid axes.  The squares are added left to
    right over the components."""
    blocks = values.reshape((-1,) + values.shape[values.ndim - lead - grid.dim:])
    return np.sqrt(np.square(blocks, order="C").sum(axis=0))


# grid points of one block of frames in ``frame_blocks``: a block's
# derivatives, projection jet and forcings stay within a few hundred kB
_BLOCK_POINTS = 2 ** 13


def frame_blocks(grid: Grid, num_frames: int) -> list[slice]:
    """Slices of whole frames, in order, each of about ``_BLOCK_POINTS`` grid
    points and at least one frame, that cover a stack of num_frames.

    Every operation of this layer acts on each frame alone, so a stack
    worked block by block gives each frame the bits of the whole stack."""
    per = max(1, _BLOCK_POINTS // grid.points_per_axis ** grid.dim)
    return [slice(s, min(s + per, num_frames)) for s in range(0, num_frames, per)]


# ----------------------------------------------------------------------
# lattice balls (periodic)
# ----------------------------------------------------------------------

@lru_cache(maxsize=256)
def _offsets_cached(dim: int, M: int, steps: int):
    idx = np.arange(M)
    d = np.minimum(idx, M - idx)
    if dim == 1:
        dist2 = d ** 2
    elif dim == 2:
        dist2 = d[:, None] ** 2 + d[None, :] ** 2
    else:
        dist2 = d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2
    mask = dist2 <= steps ** 2
    offs = np.argwhere(mask)
    offs = np.where(offs > M // 2, offs - M, offs)
    return mask, offs


def _ball_steps(grid: Grid, r: float) -> float:
    """Cache key of the lattice ball of radius r: r in lattice steps, rounded.
    r must lie in [0, L/2]: a larger ball would wrap round the torus."""
    if not 0.0 <= r <= grid.box_length / 2:
        raise ValueError(f"ball radius r={r} must be finite and lie in "
                         f"[0, {grid.box_length / 2:g}], half the box")
    return round(r / grid.spacing * (1 + 1e-12), 9)


def ball_offsets(grid: Grid, r: float) -> np.ndarray:
    """Integer lattice offsets (signed) within periodic distance r of 0."""
    _, offs = _offsets_cached(grid.dim, grid.points_per_axis, _ball_steps(grid, r))
    return offs


@lru_cache(maxsize=256)
def _mask_spectrum(grid: Grid, key: float):
    mask, _ = _offsets_cached(grid.dim, grid.points_per_axis, key)
    return forward_transform(grid, mask.astype(float))


def ball_convolve(grid: Grid, scalar_field: np.ndarray, r: float) -> np.ndarray:
    """Sum of a scalar lattice field over the ball around every center at once.

    The transform runs over the last grid.dim axes, so a stack of fields
    (any leading axes) gives each field the bits of its own call."""
    spec = _mask_spectrum(grid, _ball_steps(grid, r))
    return inverse_transform(grid, forward_transform(grid, scalar_field) * spec)


# ----------------------------------------------------------------------
# field I/O: flat binary frames + JSON sidecar
# ----------------------------------------------------------------------

def save_space_time_field(field: SpaceTimeField, directory) -> list[str]:
    """Dump frames as flat little-endian float64 with a JSON sidecar.

    Returns the written file names (relative to the directory).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "dim": field.grid.dim,
        "box_length": field.grid.box_length,
        "points_per_axis": field.grid.points_per_axis,
        "codomain_dim": field.codomain_dim,
        "times": [float(t) for t in field.times],
    }
    (directory / "field_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    field.values.astype("<f8").tofile(directory / "frames.f64")
    return ["field_meta.json", "frames.f64"]


def load_space_time_field(directory) -> SpaceTimeField:
    directory = Path(directory)
    meta = json.loads((directory / "field_meta.json").read_text())
    grid = Grid(meta["dim"], meta["box_length"], meta["points_per_axis"])
    times = np.asarray(meta["times"])
    raw = np.fromfile(directory / "frames.f64", dtype="<f8")
    shape = (times.size,) + grid.shape + (meta["codomain_dim"],)
    return SpaceTimeField(grid, times, raw.reshape(shape))
