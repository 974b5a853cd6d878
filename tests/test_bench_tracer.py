"""bench/tracer.py wraps names of the package from outside, by module and
attribute, and reads attributes of their results. A name it binds must not
go, or `bench/run.py --trace 1` breaks; these tests load the tracer by path,
and write nothing beside it."""

import importlib

import numpy as np
from oracles import ROOT, load_script

from bestexec.estimation import estimate_all
from bestexec.strategies import decide_order

tracer = load_script(ROOT / "bench" / "tracer.py")


def test_every_tracer_target_resolves_to_a_callable():
    assert tracer.TARGETS
    for module_name, attr, span, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        assert span in tracer.SPANS, span


def test_the_results_carry_what_the_tracer_reads():
    decision = decide_order("ar", 1e5, 0.0, 1, 20)
    assert decision.rationale_tag in tracer.TAG_CODES
    assert tracer._decision_attr(("ar", 1e5, 0.0, 1, 20), {}, decision) != tracer.UNKNOWN_TAG
    estimates = estimate_all(np.array([0.3, 0.2, 0.4]), np.array([5e3, 6e3, 7e3]),
                             np.array([0.0, 0.01, -0.02, 0.03]))
    for name in ("n_obs", "impact_valid", "rho_valid"):
        assert hasattr(estimates, name), name
    assert tracer._estimate_attr((), {}, estimates) >> 2 == estimates.n_obs == 3
