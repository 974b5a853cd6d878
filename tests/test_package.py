import ast
import dataclasses
import importlib
import types
from pathlib import Path

import numpy as np
import pytest
from oracles import BASELINE, ROOT

import bestexec
import bestexec.cli
from bestexec import estimation, market, simulation, strategies, valuation

# the library modules; cli is a front end and exports nothing to the package
LIBRARY = (market, estimation, strategies, valuation, simulation)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda module: module.__name__)
def test_the_package_exports_every_name_of_a_library_modules_all(module):
    missing = [name for name in module.__all__ if not hasattr(bestexec, name)]
    assert missing == []
    assert all(getattr(bestexec, name) is getattr(module, name) for name in module.__all__)


def test_every_public_package_name_is_in_a_library_modules_all():
    listed = set().union(*(module.__all__ for module in LIBRARY))
    public = {name for name, value in vars(bestexec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - listed) == []


# names a module imports only so that bench/tracer.py can wrap them in that
# module's namespace, where the tracer looks them up; the module itself never
# reads them
TRACER_ONLY = {"cli.summarize_convergence", "simulation.generate_noise_path"}
PACKAGE = Path(bestexec.__file__).parent
# __init__.py only re-exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the package and every directory of scripts or tests; each check walks one
DIRECTORIES = [PACKAGE, ROOT / "tests", ROOT / "tools", ROOT / "demos"]


def _trees(directory):
    """(path, syntax tree) of each Python file in directory, in name order."""
    paths = sorted(directory.glob("*.py"))
    assert paths  # the walk found the directory's modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


@pytest.mark.parametrize("directory", DIRECTORIES, ids=lambda directory: directory.name)
def test_every_name_a_module_imports_is_used_there(directory):
    unused = set()
    for path, tree in _trees(directory):
        if path == PACKAGE / "__init__.py":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in imported - used)
    exempt = TRACER_ONLY if directory == PACKAGE else set()
    assert sorted(unused - exempt) == []
    assert exempt <= unused  # an exemption that no longer applies goes


def _defined_names(tree):
    """The names a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name))


def _read_names(tree):
    """The names a module reads: its Name loads and its attribute reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("directory", DIRECTORIES, ids=lambda directory: directory.name)
def test_every_module_level_private_name_is_read_in_its_directory(directory):
    # a helper whose last caller was deleted is dead code, and goes with it
    private, read = [], set()
    for path, tree in _trees(directory):
        private += [f"{path.stem}.{name}" for name in _defined_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        read.update(_read_names(tree))
    assert private or directory != PACKAGE  # the walk found the package's helpers
    assert sorted(name for name in private if name.partition(".")[2] not in read) == []


def _tracer_targets() -> set[str]:
    """The attributes that bench/tracer.py's TARGETS binds, from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TARGETS"):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("bench/tracer.py assigns no TARGETS")


def test_every_exported_name_is_read_outside_the_tests():
    # an export that only tests call is an entry point nothing runs: the
    # package's modules, the demos and the tracer's targets are its readers
    read = _tracer_targets()
    for path in MODULES + sorted((ROOT / "demos").glob("*.py")):
        read.update(_read_names(ast.parse(path.read_text(encoding="utf-8"))))
    exported = [f"{module.__name__}.{name}" for module in LIBRARY for name in module.__all__]
    assert sorted(name for name in exported if name.rpartition(".")[2] not in read) == []


def _package_records() -> list[type]:
    """Every dataclass that a module of the package defines; __main__ runs
    the CLI when imported, and defines none."""
    modules = [importlib.import_module(f"bestexec.{path.stem}") for path in MODULES
               if path.stem != "__main__"]
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__]


_MANDATE = market.ExecutionMandate(1e5, 50.0, 5)


def _estimates():
    info = np.array([0.0, 0.03, -0.01, 0.02, 0.05, -0.04])
    return estimation.estimate_all(np.array([0.3, 0.1, 0.4, 0.2, 0.05]),
                                   np.array([5e3, 4e3, 6e3, 5.5e3, 4.5e3]), info)


def _shared_path():
    eps, eta = simulation._noise_arrays(3, BASELINE, 5, 0)
    return simulation._shared_path(BASELINE, eps, eta)


# a factory per record, each call building a new instance equal in value to
# the last; a record the package adds needs one here
RECORD_SAMPLES = {
    "cli.RunSpec": lambda: bestexec.cli.RunSpec(horizon=5),
    "market.MarketParams": lambda: market.MarketParams(5e-5, 5.0, 0.5, 0.125 ** 2, 0.001),
    "market.ExecutionMandate": lambda: market.ExecutionMandate(1e5, 50.0, 5),
    "market.NoisePath": lambda: market.generate_noise_path(0, 5, 0.125 ** 2, 0.001),
    "estimation.ParameterEstimates": _estimates,
    "estimation.InformationFit": lambda: estimation.fit_information(
        np.ascontiguousarray(_shared_path().info.T)),
    "strategies.CoefficientSchedule": lambda: strategies.solve_coefficients(BASELINE, 5),
    "strategies.OrderDecision": lambda: strategies.decide_order("naive", 1e5, 0.0, 1, 5),
    "simulation.RunResult": lambda: simulation.run_episode(
        "ar", BASELINE, _MANDATE, market.generate_noise_path(0, 5, 0.125 ** 2, 0.001)),
    "simulation._SharedPath": _shared_path,
    "simulation.StrategyStats": lambda: simulation.run_monte_carlo(
        3, ("informed",), BASELINE, _MANDATE, 0).stats["informed"],
    "simulation.MonteCarloSummary": lambda: simulation.run_monte_carlo(
        3, ("naive", "ar"), BASELINE, _MANDATE, 0),
    "simulation.ConvergenceSummary": lambda: simulation.run_convergence(3, BASELINE, _MANDATE, 0),
}


def _record_name(cls: type) -> str:
    return f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}"


def test_every_record_of_the_package_has_a_sample():
    assert sorted(map(_record_name, _package_records())) == sorted(RECORD_SAMPLES)


@pytest.mark.parametrize("name", sorted(RECORD_SAMPLES))
def test_every_record_is_frozen(name):
    record = RECORD_SAMPLES[name]()
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(RECORD_SAMPLES))
def test_a_record_compares_by_value_only_where_its_value_can_be_hashed(name):
    # a generated __eq__ over arrays, lists or dicts raises or answers by
    # identity anyway, and a generated __hash__ over them raises: such a
    # record declares eq=False and compares and hashes by identity
    a, b = RECORD_SAMPLES[name](), RECORD_SAMPLES[name]()
    assert a is not b
    by_value = type(a).__dataclass_params__.eq
    assert (a == b) is by_value
    assert (a == a) is True and (a != b) is not by_value
    assert (a == object()) is False
    assert isinstance(hash(a), int)
    assert (hash(a) == hash(b)) or not by_value
    value = tuple(getattr(a, field.name) for field in dataclasses.fields(a))
    assert by_value == _hashable(value)
