import ast
import types
from pathlib import Path

import pytest

import bestexec
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
TRACER_ONLY = {"cli": {"summarize_convergence"}, "simulation": {"generate_noise_path"}}
# __init__.py only re-exports
MODULES = sorted(p for p in Path(bestexec.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_name_a_module_imports_is_used_there(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = TRACER_ONLY.get(path.stem, set())
    assert sorted(imported - used - exempt) == []
    assert exempt <= imported - used  # an exemption that no longer applies goes


def _defined_names(tree):
    """The names a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name))


def test_every_module_level_private_name_is_read_in_the_package():
    # a helper whose last caller was deleted is dead code, and goes with it
    private, read = [], set()
    for path in sorted(Path(bestexec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private += [f"{path.stem}.{name}" for name in _defined_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert private  # the walk found the package's helpers
    assert sorted(name for name in private if name.partition(".")[2] not in read) == []
