"""Discrete fields on a periodic box with exact spectral calculus.

The periodic lattice stands in for whole space: test data oscillate on scales
well inside the box, and the box is chosen several times larger than any
cylinder radius a norm scan will use, so periodic images never enter a scan
window.  Differentiation is a Fourier multiplier, exact on band-limited data;
each multiplier is built once per grid, and a frame is transformed once for
all of its derivatives.  Fields are immutable after construction; frames of a
space-time field share one grid and codomain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "SpaceTimeField",
    "multiplier",
    "inverse_transform",
    "Spectrum",
    "spectral_derivative",
    "gradient",
    "hessian",
    "laplacian",
    "spectral_divergence",
    "grad_magnitude",
    "hessian_magnitude",
    "pointwise_norm",
    "ball_offsets",
    "ball_mask",
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
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.box_length <= 0:
            raise ValueError("box_length must be positive")
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
    def from_function(cls, grid: Grid, fn, codomain_dim: int | None = None) -> "GridField":
        coords = grid.coordinates()
        vals = np.asarray(fn(*coords), dtype=float)
        if vals.shape[: grid.dim] != grid.shape:
            vals = np.moveaxis(vals, 0, -1)
        if vals.ndim == grid.dim:
            vals = vals[..., None]
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: Grid, vec) -> "GridField":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(grid, np.broadcast_to(vec, grid.shape + vec.shape).copy())

    def __add__(self, other: "GridField") -> "GridField":
        self._check(other)
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check(other)
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if self.grid != other.grid or self.codomain_dim != other.codomain_dim:
            raise ValueError("fields live on different grids or codomains")

    def sup_norm(self) -> float:
        return float(np.sqrt((self.values ** 2).sum(axis=-1)).max())


class SpaceTimeField:
    """Time-indexed sequence of frames: the discrete space-time field.

    times start at 0 and increase strictly; frames stack into one array of
    shape (num_times,) + grid.shape + (l,).
    """

    __slots__ = ("grid", "times", "values")

    def __init__(self, grid: Grid, times, values: np.ndarray):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two frame times")
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

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        if self.grid != other.grid or not np.array_equal(self.times, other.times):
            raise ValueError("space-time fields are not aligned")
        return SpaceTimeField(self.grid, self.times, self.values - other.values)

    def __add__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        if self.grid != other.grid or not np.array_equal(self.times, other.times):
            raise ValueError("space-time fields are not aligned")
        return SpaceTimeField(self.grid, self.times, self.values + other.values)

    def __mul__(self, scalar: float) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.times, self.values * float(scalar))

    __rmul__ = __mul__


# ----------------------------------------------------------------------
# spectral calculus
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def multiplier(grid: Grid, order) -> np.ndarray:
    """Read-only Fourier symbol on the grid, built once per (grid, order).

    order is a multi-index, one entry per axis, for the symbol of d^order with
    the unmatched Nyquist mode zeroed for odd orders; or "laplacian" for the
    real symbol -|k|^2.
    """
    M = grid.points_per_axis
    ks = [k.reshape([M if a == ax else 1 for a in range(grid.dim)])
          for ax, k in enumerate(grid.wavenumbers())]
    if order == "laplacian":
        ksq = np.zeros(grid.shape)
        for k in ks:
            ksq = ksq + k ** 2
        mult = -ksq
    else:
        mult = np.ones(grid.shape, dtype=complex)
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


def inverse_transform(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real part of the inverse transform over the grid axes of coeffs, which
    sit just before its last (codomain) axis."""
    axes = tuple(range(coeffs.ndim - grid.dim - 1, coeffs.ndim - 1))
    return np.fft.ifftn(coeffs, axes=axes).real


class Spectrum:
    """Fourier coefficients of a frame, or of a stack of frames, from one
    forward transform; every derivative of the frames is read off them.

    A GridField's values are grid.shape + trailing axes; a SpaceTimeField's
    carry one leading frame axis.  The trailing axes are the codomain (l,),
    or (n, l) for a per-axis field, the one kind with a divergence.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, field: GridField | SpaceTimeField):
        lead = 1 if isinstance(field, SpaceTimeField) else 0
        self.grid = field.grid
        self.coeffs = np.fft.fftn(field.values, axes=tuple(range(lead, lead + field.grid.dim)))

    def apply(self, symbol: np.ndarray) -> np.ndarray:
        """Physical values of the coefficients times a symbol on the grid."""
        return inverse_transform(self.grid, self.coeffs * symbol[..., None])

    def derivative(self, order) -> np.ndarray:
        """Physical values of the derivative named by a multiplier order."""
        return self.apply(multiplier(self.grid, order))

    def gradient(self) -> np.ndarray:
        """First derivatives, in an axis slot of length n before the codomain."""
        n = self.grid.dim
        out = np.empty(self.coeffs.shape[:-1] + (n, self.coeffs.shape[-1]))
        for a in range(n):
            out[..., a, :] = self.derivative(_unit(n, a))
        return out

    def hessian(self) -> np.ndarray:
        """Second derivatives, in two axis slots of length n before the codomain."""
        n = self.grid.dim
        out = np.empty(self.coeffs.shape[:-1] + (n, n, self.coeffs.shape[-1]))
        for a in range(n):
            for b in range(a, n):
                out[..., a, b, :] = out[..., b, a, :] = self.derivative(_unit(n, a, b))
        return out

    def divergence(self) -> np.ndarray:
        """Coefficients of sum_a d_a F_a for a per-axis field F."""
        n = self.grid.dim
        if self.coeffs.shape[-2] != n:
            raise ValueError("per-axis field must carry one component per spatial axis")
        acc = np.zeros(self.coeffs.shape[:-2] + self.coeffs.shape[-1:], dtype=complex)
        for a in range(n):
            acc += self.coeffs[..., a, :] * multiplier(self.grid, _unit(n, a))[..., None]
        return acc


def spectral_derivative(f: GridField, order) -> GridField:
    """Differentiate via the discrete Fourier multiplier (i 2 pi m / L)^order."""
    order = tuple(int(o) for o in (order if np.iterable(order) else (order,)))
    if len(order) != f.grid.dim:
        raise ValueError("order multi-index length must equal grid dim")
    if sum(order) > 4:
        raise ValueError("spectral derivatives supported to total order 4")
    return GridField(f.grid, Spectrum(f).derivative(order))


def gradient(f: GridField) -> np.ndarray:
    """Array of shape grid.shape + (n, l): first spatial derivatives."""
    return Spectrum(f).gradient()


def hessian(f: GridField) -> np.ndarray:
    """Array of shape grid.shape + (n, n, l): second derivatives."""
    return Spectrum(f).hessian()


def laplacian(f: GridField) -> GridField:
    return GridField(f.grid, Spectrum(f).derivative("laplacian"))


def spectral_divergence(F: GridField) -> GridField:
    """Divergence over the axis slot of a per-axis field (shape grid + (n, l))."""
    return GridField(F.grid, inverse_transform(F.grid, Spectrum(F).divergence()))


def pointwise_norm(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Euclidean/Frobenius magnitude over all trailing (non-grid) axes."""
    extra = values.ndim - grid.dim
    return np.sqrt((values ** 2).sum(axis=tuple(range(grid.dim, grid.dim + extra))))


def grad_magnitude(f: GridField) -> np.ndarray:
    return pointwise_norm(gradient(f), f.grid)


def hessian_magnitude(f: GridField) -> np.ndarray:
    return pointwise_norm(hessian(f), f.grid)


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


def ball_mask(grid: Grid, r: float) -> np.ndarray:
    """Boolean lattice mask of periodic distance <= r from the origin."""
    if r > grid.box_length / 2:
        raise ValueError("ball radius exceeds half the box")
    steps = r / grid.spacing
    mask, _ = _offsets_cached(grid.dim, grid.points_per_axis, round(steps * (1 + 1e-12), 9))
    return mask


def ball_offsets(grid: Grid, r: float) -> np.ndarray:
    """Integer lattice offsets (signed) within periodic distance r of 0."""
    if r > grid.box_length / 2:
        raise ValueError("ball radius exceeds half the box")
    steps = r / grid.spacing
    _, offs = _offsets_cached(grid.dim, grid.points_per_axis, round(steps * (1 + 1e-12), 9))
    return offs


@lru_cache(maxsize=256)
def _mask_spectrum(dim: int, M: int, key: float):
    mask, _ = _offsets_cached(dim, M, key)
    return np.fft.fftn(mask.astype(float))


def ball_convolve(grid: Grid, scalar_field: np.ndarray, r: float) -> np.ndarray:
    """Sum of a scalar lattice field over the ball around every center at once."""
    steps = round(r / grid.spacing * (1 + 1e-12), 9)
    spec = _mask_spectrum(grid.dim, grid.points_per_axis, steps)
    out = np.fft.ifftn(np.fft.fftn(scalar_field) * spec).real
    return out


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
