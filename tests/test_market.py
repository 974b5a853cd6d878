import dataclasses
import hashlib
import math
import re
import sys
import threading

import numpy as np
import pytest
from oracles import BASELINE

from bestexec import (ExecutionMandate, MarketParams, NoisePath, check_seed,
                      generate_noise_path, info_step, price_step, run_convergence,
                      run_monte_carlo, stationary_info_component_std, substream_seed)
from bestexec.market import _noise_rows


def test_zero_variance_yields_zero_shocks():
    path = generate_noise_path(7, 20, 0.0, 0.0)
    assert np.all(path.eps == 0.0)
    assert np.all(path.eta == 0.0)


def test_generation_is_bit_identical():
    a = generate_noise_path(7, 50, 0.125 ** 2, 0.001)
    b = generate_noise_path(7, 50, 0.125 ** 2, 0.001)
    assert np.array_equal(a.eps, b.eps)
    assert np.array_equal(a.eta, b.eta)
    assert (a.eps.tobytes(), a.eta.tobytes()) == (b.eps.tobytes(), b.eta.tobytes())


def test_substreams_are_distinct():
    assert substream_seed(0, 0) != substream_seed(0, 1)
    assert substream_seed(0, 0) != substream_seed(1, 0)
    a = generate_noise_path(substream_seed(0, 0), 20, 0.01, 0.01)
    b = generate_noise_path(substream_seed(0, 1), 20, 0.01, 0.01)
    assert not np.array_equal(a.eps, b.eps)


def test_noise_path_arrays_are_read_only():
    path = generate_noise_path(3, 10, 0.01, 0.01)
    with pytest.raises(ValueError):
        path.eps[0] = 1.0


def test_sample_moments_large_sample():
    path = generate_noise_path(11, 10 ** 6, 0.125 ** 2, 0.001)
    assert abs(path.eps.std() - 0.125) / 0.125 < 0.01
    assert abs(path.eps.var() - 0.125 ** 2) / 0.125 ** 2 < 0.01
    assert abs(path.eps.mean()) < 4 * 0.125 / 1e3
    assert abs(path.eta.var() - 0.001) / 0.001 < 0.01
    assert abs(path.eta.mean()) < 4 * math.sqrt(0.001) / 1e3


def test_info_step_values():
    # first information value with zero start
    assert info_step(0.0, 0.5, 0.06213838) == pytest.approx(0.06213838, abs=1e-12)
    # memoryless when rho = 0
    assert info_step(123.4, 0.0, 0.7) == 0.7
    # second step back-solved from consecutive information values
    assert info_step(0.06213838, 0.5, 0.00581181) == pytest.approx(0.03688100, abs=1e-8)


def test_price_step_values():
    assert price_step(50.0, 5000.0, 0.0, 5e-5, 5.0, 0.0) == pytest.approx(50.25, rel=1e-12)
    assert price_step(77.7, 0.0, 0.0, 5e-5, 5.0, 0.0) == 77.7
    # shock back-solved from the first row of the uniform-split example blotter
    assert price_step(50.0, 5000.0, 0.0, 5e-5, 0.0, -0.07006) == pytest.approx(50.17994, abs=1e-9)


def test_price_impact_is_additive_in_order_size():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p, b1, b2, x = rng.uniform(-100, 100, 4)
        theta, gamma, eps = rng.uniform(-1, 1, 3)
        joint = price_step(p, b1 + b2, x, theta, gamma, eps)
        split = price_step(price_step(p, b1, 0.0, theta, gamma, 0.0),
                           b2, x, theta, gamma, eps)
        assert joint == pytest.approx(split, rel=1e-9, abs=1e-9)


def test_ar1_stationary_variance():
    rho, s2h = 0.7, 0.001
    path = generate_noise_path(13, 10 ** 5, 0.0, s2h)
    x = 0.0
    xs = np.empty(path.horizon)
    for i in range(path.horizon):
        x = info_step(x, rho, path.eta[i])
        xs[i] = x
    target = s2h / (1 - rho ** 2)
    assert abs(xs.var() - target) / target < 0.05


def test_stationary_info_component_std():
    assert stationary_info_component_std(0.0, 0.9, 0.01) == 0.0
    assert stationary_info_component_std(3.0, 0.0, 0.04) == pytest.approx(3.0 * 0.2, rel=1e-12)
    with pytest.raises(ValueError):
        stationary_info_component_std(5.0, 1.0, 0.001)


def test_param_validation():
    with pytest.raises(ValueError, match="rho"):
        MarketParams(5e-5, 5.0, 1.0, 0.01, 0.001)
    with pytest.raises(ValueError, match="sigma_eps_sq"):
        MarketParams(5e-5, 5.0, 0.5, -0.01, 0.001)
    with pytest.raises(ValueError, match="sigma_eta_sq"):
        MarketParams(5e-5, 5.0, 0.5, 0.01, -0.001)
    with pytest.raises(ValueError, match="s0"):
        ExecutionMandate(0.0, 50.0, 20)
    with pytest.raises(ValueError, match="p0"):
        ExecutionMandate(1e5, -1.0, 20)
    with pytest.raises(ValueError, match="horizon"):
        ExecutionMandate(1e5, 50.0, 0)
    with pytest.raises(ValueError):
        NoisePath(eps=np.zeros(3), eta=np.zeros(4))


def test_noise_path_keeps_its_own_read_only_float_copies():
    # the caller's arrays stay writable, a list is taken as an array, and a
    # shock array that is not one-dimensional is refused by name
    eps, eta = np.zeros(3), np.array([1, 2, 3])
    path = NoisePath(eps, eta)
    eps[0] = 1.0
    assert path.eps.tolist() == [0.0, 0.0, 0.0]
    assert path.eta.dtype == np.float64 and path.eta.tolist() == [1.0, 2.0, 3.0]
    for shocks in (path.eps, path.eta):
        with pytest.raises(ValueError, match="read-only"):
            shocks[0] = 2.0
    assert NoisePath([0.1], [0.2]).horizon == 1
    with pytest.raises(ValueError, match=r"^eps: must be one-dimensional \(got shape \(2, 3\)\)$"):
        NoisePath(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match=r"^eta: must be one-dimensional \(got shape \(\)\)$"):
        NoisePath(np.zeros(1), 0.5)
    with pytest.raises(ValueError, match="^eps and eta must have equal length$"):
        NoisePath([0.1, 0.2], [0.3])


def test_generate_noise_path_validation():
    with pytest.raises(ValueError):
        generate_noise_path(0, 0, 0.01, 0.01)
    with pytest.raises(ValueError):
        generate_noise_path(0, 10, -0.01, 0.01)


PARAM_FIELDS = ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq")


# an int beyond the float range holds no float field's value
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_market_params_reject_non_finite_fields(field, value):
    values = dict(zip(PARAM_FIELDS, (5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)))
    values[field] = value
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        MarketParams(**values)


@pytest.mark.parametrize("field, value", [
    *(pytest.param(field, value, id=f"{field}-{value}") for field in ("s0", "p0", "horizon")
      for value in (math.nan, math.inf, -math.inf)),
    # no price or size beyond the float range; an int horizon is a count however large
    *(pytest.param(field, 10 ** 400, id=f"{field}-10**400") for field in ("s0", "p0"))])
def test_mandate_rejects_non_finite_fields(field, value):
    values = {"s0": 1e5, "p0": 50.0, "horizon": 20}
    values[field] = value
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        ExecutionMandate(**values)


def test_check_seed_range():
    assert check_seed(0) == 0
    assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="^base_seed: "):
            check_seed(bad, "base_seed")
    # an integral numpy seed passes; a float or a bool does not become seed 1
    assert check_seed(np.uint64(7)) == 7 and type(check_seed(np.uint64(7))) is int
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="^base_seed: must be an integer"):
            check_seed(bad, "base_seed")


# the parameters and mandate of a two-period study
_STUDY = (BASELINE, ExecutionMandate(100.0, 50.0, 2))

# each public entry that keys on a seed, as (name the error gives, call)
_SEEDED_ENTRIES = {
    "generate_noise_path": ("seed", lambda seed: generate_noise_path(seed, 4, 1.0, 1.0)),
    "substream_seed": ("seed", lambda seed: substream_seed(seed, 0)),
    "substream_seed index": ("index", lambda seed: substream_seed(0, seed)),
    "run_monte_carlo": ("base_seed", lambda seed: run_monte_carlo(1, ("naive",), *_STUDY, seed)),
    "run_convergence": ("base_seed", lambda seed: run_convergence(1, *_STUDY, seed)),
}


@pytest.mark.parametrize("bad, wording", [
    (1.5, "must be an integer"), (True, "must be an integer"), ("3", "must be an integer"),
    (-1, r"must be in \[0, 2\*\*64\)"), (2 ** 64, r"must be in \[0, 2\*\*64\)")])
@pytest.mark.parametrize("entry", list(_SEEDED_ENTRIES))
def test_seeded_entries_check_their_seeds(entry, bad, wording):
    name, call = _SEEDED_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name}: {wording}"):
        call(bad)


def test_numpy_integer_seed_keys_as_its_int():
    path = generate_noise_path(np.uint64(7), 4, 1.0, 1.0)
    assert path.eps.tobytes() == generate_noise_path(7, 4, 1.0, 1.0).eps.tobytes()
    assert substream_seed(np.int64(3), np.uint32(2)) == substream_seed(3, 2)
    # a study's noise rows key on the int too
    costs = [run_monte_carlo(2, ("informed",), *_STUDY, seed).stats["informed"]
             .per_sim_actual_cost.tobytes() for seed in (np.int64(7), 7)]
    assert costs[0] == costs[1]


def _fresh_philox_path(seed, horizon, sigma_eps_sq, sigma_eta_sq):
    """The documented stream, one freshly keyed Philox generator per seed."""
    key = hashlib.sha256(b"noise" + seed.to_bytes(8, "little")).digest()
    rng = np.random.Generator(np.random.Philox(key=int.from_bytes(key[:16], "little")))
    return (rng.standard_normal(horizon) * math.sqrt(sigma_eps_sq),
            rng.standard_normal(horizon) * math.sqrt(sigma_eta_sq))


@pytest.mark.parametrize("horizon", [1, 2, 20, 101])
def test_noise_arrays_rows_equal_freshly_keyed_generators(horizon):
    seeds = [substream_seed(5, i) for i in range(12)] + [0, 2 ** 64 - 1, 7, 7]
    eps, eta = _noise_rows(len(seeds), seeds, horizon, 0.125 ** 2, 0.001)
    assert eps.shape == eta.shape == (len(seeds), horizon)
    for i, seed in enumerate(seeds):
        ref_eps, ref_eta = _fresh_philox_path(seed, horizon, 0.125 ** 2, 0.001)
        assert eps[i].tobytes() == ref_eps.tobytes()
        assert eta[i].tobytes() == ref_eta.tobytes()
        path = generate_noise_path(seed, horizon, 0.125 ** 2, 0.001)
        assert (eps[i].tobytes(), eta[i].tobytes()) == (path.eps.tobytes(), path.eta.tobytes())


@pytest.mark.parametrize("horizon", [2.5, True, False, 20.0])
def test_mandate_rejects_non_integer_horizon(horizon):
    with pytest.raises(ValueError, match=r"^horizon: must be an integer \(got "):
        ExecutionMandate(1e5, 50.0, horizon)


def test_mandate_accepts_numpy_integer_horizon():
    assert ExecutionMandate(1e5, 50.0, np.int64(20)).horizon == 20


def test_ints_are_stored_as_floats_and_the_horizon_as_an_int():
    params, mandate = MarketParams(3, -2, 0, 1, 0), ExecutionMandate(10 ** 300, 50, 20)
    assert {type(v) for v in dataclasses.astuple(params)} == {float}
    assert [(v, type(v)) for v in dataclasses.astuple(mandate)] == [
        (1e300, float), (50.0, float), (20, int)]


MANDATE_FIELDS = ("s0", "p0", "horizon")


@pytest.mark.parametrize("value", ["5e-5", None, True, False, [1.0]])
@pytest.mark.parametrize("field", PARAM_FIELDS + MANDATE_FIELDS)
def test_value_types_reject_non_real_fields(field, value):
    if field in PARAM_FIELDS:
        cls = MarketParams
        values = dict(zip(PARAM_FIELDS, (5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)))
    else:
        cls = ExecutionMandate
        values = {"s0": 1e5, "p0": 50.0, "horizon": 20}
    values[field] = value
    # a bool horizon is named by the integer check; every other case by the real check
    kind = "an integer" if field == "horizon" and isinstance(value, bool) else "a real number"
    message = rf"^{field}: must be {kind} \(got {re.escape(repr(value))}\)$"
    with pytest.raises(ValueError, match=message):
        cls(**values)


def test_threads_drawing_at_once_get_the_serial_rows():
    # the threads (more than this machine's cores) walk the batches in
    # different orders, so a generator shared between them, re-keyed by one
    # while another draws, would mix their streams
    batches = [[substream_seed(b, i) for i in range(4)] for b in range(100)]
    serial = [_noise_rows(4, seeds, 6, 0.125 ** 2, 0.001) for seeds in batches]
    walks = [list(range(len(batches))), list(reversed(range(len(batches)))),
             list(range(1, len(batches), 2)) + list(range(0, len(batches), 2)),
             list(range(50, len(batches))) + list(range(50))]
    barrier = threading.Barrier(len(walks), timeout=60)
    drawn = {}

    def draw(k):
        barrier.wait()
        drawn[k] = {b: _noise_rows(4, batches[b], 6, 0.125 ** 2, 0.001)
                    for b in walks[k]}

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(len(walks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(drawn) == list(range(len(walks)))
    for k, rows in drawn.items():
        for b, (eps, eta) in rows.items():
            assert eps.tobytes() == serial[b][0].tobytes(), (k, b)
            assert eta.tobytes() == serial[b][1].tobytes(), (k, b)


@pytest.mark.parametrize("call", [
    lambda horizon, s2e, s2h: _noise_rows(1, [1], horizon, s2e, s2h),
    lambda horizon, s2e, s2h: generate_noise_path(1, horizon, s2e, s2h),
], ids=["arrays", "path"])
@pytest.mark.parametrize("horizon, s2e, s2h, message", [
    (True, 0.01, 0.001, r"horizon: must be an integer \(got True\)"),
    (2.5, 0.01, 0.001, r"horizon: must be an integer \(got 2\.5\)"),
    (0, 0.01, 0.001, r"horizon: must be >= 1 \(got 0\)"),
    (20, math.nan, 0.001, r"sigma_eps_sq: must be finite \(got nan\)"),
    (20, 0.01, math.inf, r"sigma_eta_sq: must be finite \(got inf\)"),
    (20, -0.01, 0.001, r"sigma_eps_sq: must be >= 0 \(got -0\.01\)"),
    (20, 0.01, -0.001, r"sigma_eta_sq: must be >= 0 \(got -0\.001\)"),
    (20, "0.01", 0.001, r"sigma_eps_sq: must be a real number \(got '0\.01'\)"),
])
def test_noise_generation_rejects_bad_inputs_naming_the_field(call, horizon, s2e, s2h,
                                                              message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(horizon, s2e, s2h)


# the first draws of generate_noise_path(0, 4, 1.0, 1.0), eps then eta, as
# the bit patterns of their doubles
PINNED_DRAWS = (
    4602014812156903381, 4605196788401165089, 13830289288846602055, 13828146398331846854,
    4609225652009993308, 4605959024758021813, 4602010760073360759, 4613119435256342801,
)


def test_the_noise_stream_is_pinned():
    # NumPy's RNG policy (NEP 19) lets a feature release change the stream of
    # Generator.standard_normal; every output file depends on it
    path = generate_noise_path(0, 4, 1.0, 1.0)
    draws = tuple(np.concatenate([path.eps, path.eta]).view(np.uint64).tolist())
    assert draws == PINNED_DRAWS, (
        f"numpy {np.__version__} draws another noise stream from the same Philox "
        "key than the one pinned here (NEP 19 allows a numpy feature release to "
        "change Generator.standard_normal): every seeded output changes")
