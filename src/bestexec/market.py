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
"""

from __future__ import annotations

import hashlib
import math
import numbers
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
    "generate_noise_arrays",
    "noise_digest",
    "info_step",
    "price_step",
    "stationary_info_component_std",
]


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """Reject fields that are not real numbers (a str or a bool, say) or are
    NaN or infinite, naming the first offending one."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name}: must be a real number (got {value!r})")
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be finite (got {value})")


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
        _require_finite(self, ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq"))
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho: |rho| must be < 1 (got {self.rho})")
        if self.sigma_eps_sq < 0.0:
            raise ValueError(f"sigma_eps_sq: must be >= 0 (got {self.sigma_eps_sq})")
        if self.sigma_eta_sq < 0.0:
            raise ValueError(f"sigma_eta_sq: must be >= 0 (got {self.sigma_eta_sq})")


@dataclass(frozen=True)
class ExecutionMandate:
    """The task: acquire s0 shares over `horizon` periods starting at price p0."""

    s0: float
    p0: float
    horizon: int

    def __post_init__(self):
        _require_finite(self, ("s0", "p0"))
        if not isinstance(self.horizon, bool):  # a bool horizon fails the integer check
            _require_finite(self, ("horizon",))
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral):
            raise ValueError(f"horizon: must be an integer (got {self.horizon!r})")
        if self.s0 <= 0.0:
            raise ValueError(f"s0: must be > 0 (got {self.s0})")
        if self.p0 <= 0.0:
            raise ValueError(f"p0: must be > 0 (got {self.p0})")
        if self.horizon < 1:
            raise ValueError(f"horizon: must be >= 1 (got {self.horizon})")


@dataclass(frozen=True)
class NoisePath:
    """One realization of the exogenous shocks, periods 1..T.

    eps[t-1] / eta[t-1] hold the period-t shocks (shocks are 1-based to match
    blotter period numbering; period 0 is the pre-trade state). Arrays are
    read-only; regenerating from the same seed reproduces them bit-for-bit.
    """

    eps: np.ndarray
    eta: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.eps) != len(self.eta):
            raise ValueError("eps and eta must have equal length")
        self.eps.flags.writeable = False
        self.eta.flags.writeable = False

    @property
    def horizon(self) -> int:
        return len(self.eps)

    def digest(self) -> str:
        """SHA-256 of the raw shock bytes; equal digests mean identical paths."""
        return noise_digest(self.eps, self.eta)


def noise_digest(eps: np.ndarray, eta: np.ndarray) -> str:
    """SHA-256 over the bytes of eps, then eta: NoisePath.digest of that path."""
    h = hashlib.sha256()
    h.update(eps.tobytes())
    h.update(eta.tobytes())
    return h.hexdigest()


def check_seed(seed: int, name: str = "seed") -> int:
    """Return `seed` as an int after checking that it fits the 8-byte unsigned
    encoding substream_seed and generate_noise_path key on; the message names
    the field `name`."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name}: must be in [0, 2**64) (got {seed})")
    return int(seed)


def substream_seed(seed: int, index: int, tag: str = "episode") -> int:
    """Derive an independent 64-bit substream seed from (seed, index, tag).

    SHA-256 keyed derivation keeps substreams decorrelated for any index and
    stable across platforms and processes.
    """
    h = hashlib.sha256()
    h.update(tag.encode("ascii"))
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(int(index).to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest()[:8], "little")


def generate_noise_path(seed: int, horizon: int,
                        sigma_eps_sq: float, sigma_eta_sq: float) -> NoisePath:
    """Draw T i.i.d. Gaussian shock pairs, deterministically from the seed:
    the one-seed case of generate_noise_arrays."""
    eps, eta = generate_noise_arrays([seed], horizon, sigma_eps_sq, sigma_eta_sq)
    return NoisePath(eps=eps[0], eta=eta[0], seed=int(seed))


def generate_noise_arrays(seeds, horizon: int, sigma_eps_sq: float,
                          sigma_eta_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Noise paths for a sequence of seeds as (len(seeds), T) arrays eps and
    eta; row i is the path of seeds[i].

    Algorithm: a Philox counter-based bit generator keyed with
    SHA-256("noise", seed) drives numpy's standard-normal transform; eps is
    drawn first, then eta. Zero variances yield exactly zero sequences.
    Each thread keeps one generator (_keyed_generator) and re-keys it for
    every seed, so threads may draw at once.
    """
    if horizon < 1:
        raise ValueError(f"horizon: must be >= 1 (got {horizon})")
    if sigma_eps_sq < 0.0 or sigma_eta_sq < 0.0:
        raise ValueError("variances must be >= 0")
    seeds = list(seeds)
    z = np.empty((len(seeds), 2 * horizon))
    for row, seed in zip(z, seeds):
        seed_bytes = int(seed).to_bytes(8, "little", signed=False)
        _keyed_generator(hashlib.sha256(b"noise" + seed_bytes).digest()[:16]
                         ).standard_normal(out=row)
    return (z[:, :horizon] * math.sqrt(sigma_eps_sq),
            z[:, horizon:] * math.sqrt(sigma_eta_sq))


_thread_state = threading.local()
_ZERO_WORDS = np.zeros(4, np.uint64)
_ZERO_WORDS.flags.writeable = False


def _keyed_generator(key: bytes) -> np.random.Generator:
    """This thread's noise generator, re-keyed with the 16-byte key.

    Assigning the state (the new key, counter and buffer cleared) equals
    constructing a fresh Philox(key=...), at a fraction of the cost: the
    constructor also builds an OS-entropy SeedSequence that a keyed Philox
    never uses. The state setter copies the words it is given."""
    rng = getattr(_thread_state, "rng", None)
    if rng is None:
        rng = _thread_state.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.frombuffer(key, "<u8")},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
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
