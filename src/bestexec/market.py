"""Market dynamics: exogenous noise, the AR(1) information process, and the
additive permanent price impact law.

Price and information evolve as

    P_t = P_{t-1} + theta * B_t + gamma * X_t + eps_t
    X_t = rho * X_{t-1} + eta_t

with eps_t ~ N(0, sigma_eps_sq) and eta_t ~ N(0, sigma_eta_sq) independent.
Setting gamma = 0 recovers the information-free impact law.

All value types are immutable and every function may be called from
concurrent threads: noise generation keeps one generator per thread and
re-keys it for every path. Noise generation is counter-based
(Philox keyed through SHA-256), so a seed reproduces the identical path
bit-for-bit on any platform, and substreams derived from (seed, index) are
independent.

Keying a path costs two SHA-256 hashes and one state assignment, and a
study keys one path per simulation. So the hashes of a batch each continue
a copy of one shared prefix (b"noise" for the path keys, b"episode" and the
seed for the substream seeds), and _noise_rows fetches the thread's
generator once and assigns the same state dict for every path, with only
its key words overwritten.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketParams",
    "ExecutionMandate",
    "NoisePath",
    "check_seed",
    "substream_seed",
    "generate_noise_path",
    "info_step",
    "price_step",
    "stationary_info_component_std",
]


def _shown(value) -> str:
    """str(value) for a message; an int too long for str (beyond
    sys.get_int_max_str_digits() digits) is shown by that limit instead."""
    try:
        return str(value)
    except ValueError:
        return (f"{'a negative' if value < 0 else 'an'} int of more than "
                f"{sys.get_int_max_str_digits()} digits")


def _check_finite(name: str, value) -> None:
    """Reject a value that is not a real number (a str or a bool, say), is
    NaN or infinite, or lies beyond the float range, as an int such as
    10**400 does; the message names the field `name`. Exact floats and ints
    skip the ABC check."""
    if (type(value) is not float and type(value) is not int
            and (isinstance(value, bool) or not isinstance(value, numbers.Real))):
        raise ValueError(f"{name}: must be a real number (got {value!r})")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # math.isfinite converts to a float first
        raise ValueError(f"{name}: must be finite (got a number beyond the float range)") from None
    if not finite:
        raise ValueError(f"{name}: must be finite (got {value})")


def _store_floats(record, names) -> None:
    """Store the record's checked fields as floats, so that an int runs
    through the model in float arithmetic, overflowing to inf as a float
    does, not in Python int arithmetic, which raises OverflowError."""
    for name in names:
        object.__setattr__(record, name, float(getattr(record, name)))


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an integer (or is a bool); the message
    names the field `name`. Exact ints skip the ABC check."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name}: must be an integer (got {value!r})")


def _check_variance(name: str, value) -> None:
    """Reject a variance that is not a finite real number >= 0."""
    _check_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name}: must be >= 0 (got {value})")


def _check_count(name: str, value) -> int:
    """Return `value` as an int after checking that it is an integer (not a
    bool) >= 1, as a horizon or a number of simulations must be; the
    message names the field `name`."""
    _check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name}: must be >= 1 (got {_shown(value)})")
    return int(value)


@dataclass(frozen=True)
class MarketParams:
    """True model constants.

    theta         price impact per share traded (currency / share^2)
    gamma         price impact per unit of information (currency / info unit)
    rho           AR(1) coefficient of the information process, |rho| < 1
    sigma_eps_sq  variance of the price shock per period (currency^2)
    sigma_eta_sq  variance of the information shock per period
    """

    theta: float
    gamma: float
    rho: float
    sigma_eps_sq: float
    sigma_eta_sq: float

    def __post_init__(self):
        for name in ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq"):
            _check_finite(name, getattr(self, name))
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho: |rho| must be < 1 (got {self.rho})")
        _check_variance("sigma_eps_sq", self.sigma_eps_sq)
        _check_variance("sigma_eta_sq", self.sigma_eta_sq)
        _store_floats(self, ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq"))


@dataclass(frozen=True)
class ExecutionMandate:
    """The task: acquire s0 shares over `horizon` periods starting at price p0."""

    s0: float
    p0: float
    horizon: int

    def __post_init__(self):
        _check_finite("s0", self.s0)
        _check_finite("p0", self.p0)
        # an integer is finite however large, and a bool fails the count check
        if not isinstance(self.horizon, numbers.Integral):
            _check_finite("horizon", self.horizon)
        _check_count("horizon", self.horizon)
        if self.s0 <= 0.0:
            raise ValueError(f"s0: must be > 0 (got {self.s0})")
        if self.p0 <= 0.0:
            raise ValueError(f"p0: must be > 0 (got {self.p0})")
        _store_floats(self, ("s0", "p0"))


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realization of the exogenous shocks, periods 1..T.

    eps[t-1] / eta[t-1] hold the period-t shocks (shocks are 1-based to match
    blotter period numbering; period 0 is the pre-trade state). The path
    keeps its own read-only float64 copies of the one-dimensional eps and
    eta it is given, so the caller's arrays stay writable; regenerating
    from the same seed reproduces them bit-for-bit.
    """

    eps: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name in ("eps", "eta"):
            shocks = np.array(getattr(self, name), dtype=float)
            if shocks.ndim != 1:
                raise ValueError(f"{name}: must be one-dimensional (got shape {shocks.shape})")
            shocks.flags.writeable = False
            object.__setattr__(self, name, shocks)
        if len(self.eps) != len(self.eta):
            raise ValueError("eps and eta must have equal length")

    @property
    def horizon(self) -> int:
        return len(self.eps)


def check_seed(seed: int, name: str = "seed") -> int:
    """Return `seed` as an int after checking that it is an integer (not a
    bool) that fits the 8-byte unsigned encoding substream_seed and
    generate_noise_path key on; the message names the field `name`."""
    _check_integer(name, seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name}: must be in [0, 2**64) (got {_shown(seed)})")
    return int(seed)


def substream_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit substream seed from (seed, index): the
    first 8 bytes of SHA-256(b"episode", seed, index), all little-endian.

    SHA-256 keyed derivation keeps substreams decorrelated for any index and
    stable across platforms and processes. seed and index must each be an
    integer in [0, 2**64) (not a bool).
    """
    h = hashlib.sha256(b"episode")
    h.update(check_seed(seed).to_bytes(8, "little", signed=False))
    h.update(check_seed(index, "index").to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest()[:8], "little")


def _substream_seeds(seed: int, indices):
    """substream_seed(seed, index) for each of the indices, in order, at
    about half the cost: every hash continues a copy of one SHA-256 prefix
    over (b"episode", seed). substream_seed stays the reference."""
    prefix = hashlib.sha256(b"episode")
    prefix.update(int(seed).to_bytes(8, "little", signed=False))
    for index in indices:
        h = prefix.copy()
        h.update(int(index).to_bytes(8, "little", signed=False))
        yield int.from_bytes(h.digest()[:8], "little")


def generate_noise_path(seed: int, horizon: int,
                        sigma_eps_sq: float, sigma_eta_sq: float) -> NoisePath:
    """Draw T i.i.d. Gaussian shock pairs, deterministically from the seed
    (checked by check_seed): the one-seed case of _noise_rows."""
    eps, eta = _noise_rows(1, [check_seed(seed)], horizon, sigma_eps_sq, sigma_eta_sq)
    return NoisePath(eps=eps[0], eta=eta[0])


def _noise_rows(n: int, seeds, horizon: int, sigma_eps_sq: float,
                sigma_eta_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Noise paths for n seeds as (n, T) arrays eps and eta, row i the path
    of the i-th seed: a Philox counter-based bit generator keyed with
    SHA-256("noise", seed) drives numpy's standard-normal transform, eps
    drawn first, then eta. Zero variances yield exactly zero sequences.
    Each thread keeps one generator (_thread_generator). A call fetches it
    once and re-keys it for every seed by assigning one state dict whose key
    words it overwrites: the new key with the counter and buffer cleared,
    which equals a freshly constructed Philox(key=...). The state setter
    copies the words, so threads may draw at once. Each seed's key hashes
    from a copy of one SHA-256 prefix holding b"noise". The seeds must be
    ints in [0, 2**64), such as a study's lazily hashed substream seeds: no
    seed is checked, and the (n, 2T) buffer is allocated before one is
    read. horizon must be an integer >= 1 (not a bool), and both variances
    finite and >= 0."""
    horizon = _check_count("horizon", horizon)
    _check_variance("sigma_eps_sq", sigma_eps_sq)
    _check_variance("sigma_eta_sq", sigma_eta_sq)
    z = np.empty((n, 2 * horizon))
    rng = _thread_generator()
    bit_generator = rng.bit_generator
    words = {"counter": (0, 0, 0, 0), "key": (0, 0)}
    state = {"bit_generator": "Philox", "state": words,
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    prefix = hashlib.sha256(b"noise")
    for row, seed in zip(z, seeds):
        h = prefix.copy()
        h.update(seed.to_bytes(8, "little", signed=False))
        words["key"] = _KEY_WORDS.unpack_from(h.digest())
        bit_generator.state = state
        rng.standard_normal(out=row)
    return (z[:, :horizon] * math.sqrt(sigma_eps_sq),
            z[:, horizon:] * math.sqrt(sigma_eta_sq))


# a Philox key: the first 16 bytes of a digest as two little-endian words
_KEY_WORDS = struct.Struct("<2Q")
_thread_state = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's noise generator. Its key is set by assigning the state:
    constructing Philox(key=...) for every path would also build an
    OS-entropy SeedSequence that a keyed Philox never uses."""
    rng = getattr(_thread_state, "rng", None)
    if rng is None:
        rng = _thread_state.rng = np.random.Generator(np.random.Philox(key=0))
    return rng


def info_step(x_prev: float, rho: float, eta_t: float) -> float:
    """One step of the information process: X_t = rho * X_{t-1} + eta_t."""
    return rho * x_prev + eta_t


def price_step(p_prev: float, order: float, x_t: float,
               theta: float, gamma: float, eps_t: float) -> float:
    """One step of the impact law: P_t = P_{t-1} + theta*B_t + gamma*X_t + eps_t."""
    return p_prev + theta * order + gamma * x_t + eps_t


def stationary_info_component_std(gamma: float, rho: float, sigma_eta_sq: float) -> float:
    """Stationary standard deviation of the price's information component,
    gamma * sigma_eta / sqrt(1 - rho^2). Requires |rho| < 1."""
    if not abs(rho) < 1.0:
        raise ValueError(f"rho: |rho| must be < 1 for a stationary process (got {rho})")
    return gamma * math.sqrt(sigma_eta_sq) / math.sqrt(1.0 - rho * rho)
