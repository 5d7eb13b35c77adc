"""Trajectory generation: spectral KS solver, Hopf-bifurcation surrogate,
even/odd splitting, normalisation and the on-disk trajectory format."""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

MAGIC = b"UPDR"
FORMAT_VERSION = 2
# A .updr file is this header (magic, format version, n_t, n_xy, dt, length,
# parameter count), then per parameter a NAME_LEN-sized byte count, the UTF-8
# name and its VALUE, then the n_t * n_xy float32 states, all little-endian.
HEADER = struct.Struct("<4sIQQddI")
NAME_LEN, VALUE = struct.Struct("<H"), struct.Struct("<d")
CRC = struct.Struct("<I")  # ends the file: the zlib.crc32 of every byte before it


class SolverError(RuntimeError):
    """Raised when an integrator blows up; carries the first bad step."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass(frozen=True)
class ParamPoint:
    """Named external-parameter vector; keys kept in sorted order."""

    values: tuple = ()

    @classmethod
    def of(cls, /, **kwargs) -> "ParamPoint":
        for k, v in kwargs.items():
            if not np.isfinite(v):
                raise ValueError(f"non-finite parameter {k}={v}")
        return cls(tuple(sorted((k, float(v)) for k, v in kwargs.items())))

    def as_dict(self) -> dict:
        return dict(self.values)

    def vector(self) -> np.ndarray:
        return np.array([v for _, v in self.values], dtype=np.float64)

    def names(self) -> tuple:
        return tuple(k for k, _ in self.values)

    def __getitem__(self, name: str) -> float:
        return dict(self.values)[name]


@dataclass
class Trajectory:
    """Dense space-time state array and its domain length; the dataset unit."""

    states: np.ndarray  # (n_t, n_xy) float64; n_xy is the grid width
    dt: float
    length: float
    param: ParamPoint = field(default_factory=ParamPoint)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[0] < 2 or self.states.shape[1] < 1:
            raise ValueError(f"states must be (n_t>=2, n_xy>=1), got {self.states.shape}")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("non-finite states")
        if not (0 < self.dt < np.inf and 0 < self.length < np.inf):
            raise ValueError(f"dt {self.dt} and length {self.length} must be finite and positive")

    @property
    def n_t(self) -> int:
        return self.states.shape[0]

    @property
    def n_xy(self) -> int:
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# Kuramoto-Sivashinsky, Fourier pseudo-spectral + ETDRK4


def _etdrk4_coeffs(lin: np.ndarray, dt: float, n_contour: int = 32):
    """phi-function coefficients via contour integration on the unit circle."""
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)
    r = np.exp(1j * np.pi * (np.arange(1, n_contour + 1) - 0.5) / n_contour)
    lr = dt * lin[:, None] + r[None, :]
    q = dt * np.real(np.mean((np.exp(lr / 2) - 1) / lr, axis=1))
    f1 = dt * np.real(np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr ** 2)) / lr ** 3, axis=1))
    f2 = dt * np.real(np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr ** 3, axis=1))
    f3 = dt * np.real(np.mean((-4 - 3 * lr - lr ** 2 + np.exp(lr) * (4 - lr)) / lr ** 3, axis=1))
    return e_full, e_half, q, f1, f2, f3


def _dealiased_square(v_hat: np.ndarray, n_x: int) -> np.ndarray:
    """u^2 in spectral space via 3/2-rule zero padding."""
    m = 3 * n_x // 2
    pad = np.zeros(m, dtype=complex)
    half = n_x // 2
    pad[:half] = v_hat[:half]
    pad[-half:] = v_hat[-half:]
    u_pad = np.fft.ifft(pad).real * (m / n_x)
    sq_hat = np.fft.fft(u_pad * u_pad) * (n_x / m)
    out = np.zeros(n_x, dtype=complex)
    out[:half] = sq_hat[:half]
    out[-half:] = sq_hat[-half:]
    return out


def solve_ks(nu: float, n_x: int = 64, domain_length: float = 22.0,
             dt: float = 0.05, n_t: int = 1000,
             init: Optional[np.ndarray] = None, seed: int = 0,
             init_scale: float = 0.1) -> Trajectory:
    """Integrate u_t + u u_x + u_xx + nu u_xxxx = 0 on a periodic domain.

    ETDRK4 in Fourier space with 3/2-rule dealiasing of the nonlinear term.
    ``init`` defaults to a small random smooth profile drawn from ``seed``.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if n_x < 2 or n_x & (n_x - 1) != 0:
        raise ValueError(f"n_x must be a power of two >= 2, got {n_x}")
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    x = domain_length * np.arange(n_x) / n_x
    if init is None:
        rng = np.random.default_rng(seed)
        init = np.zeros(n_x)
        for m in range(1, 4):
            init += init_scale * rng.standard_normal() * np.cos(2 * np.pi * m * x / domain_length)
            init += init_scale * rng.standard_normal() * np.sin(2 * np.pi * m * x / domain_length)
    u = np.asarray(init, dtype=np.float64)
    if u.shape != (n_x,):
        raise ValueError(f"init shape {u.shape} != ({n_x},)")

    k = 2 * np.pi * np.fft.fftfreq(n_x, d=domain_length / n_x)
    lin = k ** 2 - nu * k ** 4
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coeffs(lin, dt)
    ik_half = -0.5j * k

    def nonlin(v_hat):
        return ik_half * _dealiased_square(v_hat, n_x)

    v = np.fft.fft(u)
    states = np.empty((n_t, n_x), dtype=np.float64)
    states[0] = u
    for step in range(1, n_t):
        n_v = nonlin(v)
        a = e_half * v + q * n_v
        n_a = nonlin(a)
        b = e_half * v + q * n_a
        n_b = nonlin(b)
        c = e_half * a + q * (2 * n_b - n_v)
        n_c = nonlin(c)
        v = e_full * v + n_v * f1 + 2 * (n_a + n_b) * f2 + n_c * f3
        u = np.fft.ifft(v).real
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise SolverError(f"KS solution blow-up at nu={nu:g}", step)
        states[step] = u

    return Trajectory(states=states, dt=dt, length=domain_length,
                      param=ParamPoint.of(ks_nu=nu))


# ---------------------------------------------------------------------------
# Hopf-bifurcation surrogate (Stuart-Landau oscillator lifted to a field)
HOPF_LENGTH = 2 * np.pi  # the surrogate's fixed periodic domain


def stuart_landau(mu: float, omega: float, dt: float, n_t: int,
                  init_amplitude: float) -> np.ndarray:
    """RK4 integration of dA/dt = (mu + i omega) A - |A|^2 A."""
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    coef_lin = complex(mu, omega)

    def f(a):
        return coef_lin * a - (a.real ** 2 + a.imag ** 2) * a

    a = complex(init_amplitude, 0.0)
    out = np.empty(n_t, dtype=complex)
    out[0] = a
    for step in range(1, n_t):
        k1 = f(a)
        k2 = f(a + 0.5 * dt * k1)
        k3 = f(a + 0.5 * dt * k2)
        k4 = f(a + dt * k3)
        a = a + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(a.real) or abs(a) > 1e6:
            raise SolverError(f"Stuart-Landau divergence at mu={mu:g}", step)
        out[step] = a
    return out


def hopf_mode_shapes(n_x: int):
    """Fixed spatial lift: first-harmonic sin/cos plus a Gaussian base bump."""
    x = HOPF_LENGTH * np.arange(n_x) / n_x
    g1 = np.sin(x)
    g2 = np.cos(x)
    s = np.exp(-0.5 * ((x - np.pi) / (np.pi / 4)) ** 2)
    return g1, g2, s


def solve_hopf_surrogate(mu: float, omega: float = 1.0, n_x: int = 64,
                         dt: float = 0.05, n_t: int = 1000,
                         init_amplitude: float = 0.1) -> Trajectory:
    """Desk-scale bifurcation benchmark: mu < 0 decays to the base state,
    mu > 0 settles on a limit cycle of amplitude sqrt(mu)."""
    if init_amplitude <= 0:
        raise ValueError("init_amplitude must be positive")
    amps = stuart_landau(mu, omega, dt, n_t, init_amplitude)
    g1, g2, s = hopf_mode_shapes(n_x)
    states = np.outer(amps.real, g1) + np.outer(amps.imag, g2) + s[None, :]
    return Trajectory(states=states, dt=dt, length=HOPF_LENGTH,
                      param=ParamPoint.of(mu=mu, omega=omega))


# The sorted parameter names each case's solver takes, the last those its
# trajectories carry (KS's ``nu`` is ``ks_nu``); Hopf's ``omega`` defaults to datagen's.
SOLVER_PARAMS = {"ks": (("nu",), ("ks_nu",)), "hopf": (("mu",), ("mu", "omega"))}


# ---------------------------------------------------------------------------
# dataset utilities


def split_even_odd(traj: Trajectory):
    """Even-index snapshots to train, odd to test; both at doubled dt."""
    train = Trajectory(states=traj.states[0::2].copy(), dt=2 * traj.dt,
                       length=traj.length, param=traj.param)
    test = Trajectory(states=traj.states[1::2].copy(), dt=2 * traj.dt,
                      length=traj.length, param=traj.param)
    return train, test


VARIANCE_FLOOR = 1e-8


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray

    def forward(self, states: np.ndarray) -> np.ndarray:
        return (states - self.mean) / self.std

    @classmethod
    def fit(cls, dataset: list) -> "NormStats":
        """Zero-mean unit-variance map fit on ``dataset``; each variance is
        floored at VARIANCE_FLOOR, so a constant feature maps to zero."""
        stacked = np.concatenate([t.states for t in dataset], axis=0)
        return cls(mean=stacked.mean(axis=0),
                   std=np.sqrt(np.maximum(stacked.var(axis=0), VARIANCE_FLOOR)))

    def inverse(self, states: np.ndarray) -> np.ndarray:
        return states * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        """Reads ``mean`` and ``std`` only: an older manifest's ``floored`` is ignored."""
        return cls(mean=np.array(d["mean"], dtype=np.float64),
                   std=np.array(d["std"], dtype=np.float64))


# ---------------------------------------------------------------------------
# on-disk format


def write_trajectory(path, traj: Trajectory):
    """Bit-exact binary trajectory file plus a .meta.json that nothing reads."""
    path = Path(path)
    params = traj.param.values
    parts = [HEADER.pack(MAGIC, FORMAT_VERSION, traj.n_t, traj.n_xy, traj.dt, traj.length,
                         len(params))]
    for name, value in params:
        encoded = name.encode("utf-8")
        parts += [NAME_LEN.pack(len(encoded)), encoded, VALUE.pack(value)]
    body = b"".join(parts + [traj.states.astype("<f4").tobytes()])
    path.write_bytes(body + CRC.pack(zlib.crc32(body)))
    meta = {
        "format_version": FORMAT_VERSION,
        "n_t": traj.n_t,
        "n_xy": traj.n_xy,
        "dt": traj.dt,
        "params": {k: v for k, v in params},
        "grid": {"length": traj.length, "n_points": traj.n_xy},
    }
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def write_json(path, obj):
    """The layout of every JSON file the package writes: two-space indent,
    sorted keys, a final newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def json_object(path):
    """Yield the JSON object stored in ``path``. Text that is not a JSON
    object, or a key the body looks up and the object lacks, raises
    ValueError naming the file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    try:
        yield data
    except KeyError as exc:
        raise ValueError(f"{path} lacks the key {exc}") from exc


def read_trajectory(path) -> Trajectory:
    """Load a file written by :func:`write_trajectory`. A file shorter than
    its header's counts need (checked before anything is allocated), with
    bad magic, another format version, bytes after the checksum, fewer than
    two steps, zero width, a non-UTF-8 or repeated parameter name, a
    non-finite value, a step or length that is not positive, or a checksum
    that does not match raises ValueError naming the path."""
    path = Path(path)
    raw, offset = path.read_bytes(), 0

    def take(n: int) -> bytes:
        nonlocal offset
        if len(raw) - offset < n:
            raise ValueError(f"truncated trajectory file {path}: "
                             f"needs {n} more bytes, has {len(raw) - offset}")
        offset += n
        return raw[offset - n:offset]

    magic, version, n_t, n_xy, dt, length, n_params = HEADER.unpack(take(HEADER.size))
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r} in {path}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version} in {path}")
    params = {}
    for _ in range(n_params):
        name = take(*NAME_LEN.unpack(take(NAME_LEN.size)))
        try:
            name = name.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"parameter name {name!r} is not UTF-8 in {path}") from None
        if name in params:
            raise ValueError(f"parameter {name!r} is named twice in {path}")
        params[name], = VALUE.unpack(take(VALUE.size))
    payload = np.frombuffer(take(4 * n_t * n_xy), dtype="<f4")
    crc, = CRC.unpack(take(CRC.size))
    if offset != len(raw):
        raise ValueError(f"trailing bytes after the checksum in {path}")
    try:
        with np.errstate(invalid="ignore"):  # a signalling NaN warns; Trajectory refuses it
            states = payload.reshape(n_t, n_xy).astype(np.float64)
        traj = Trajectory(states=states, dt=dt, length=length, param=ParamPoint.of(**params))
    except ValueError as exc:  # too few steps, a non-finite value, a bad dt or length
        raise ValueError(f"{exc} in {path}") from None
    if zlib.crc32(raw[:-CRC.size]) != crc:
        raise ValueError(f"checksum mismatch in {path}")
    return traj
