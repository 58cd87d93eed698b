"""Import boundaries, the static import graph and the public API.

Package ``__init__`` modules resolve their exports on first access
(``repro._lazy``), so a command loads only the modules it runs.  The
boundary tests run in fresh interpreters, because this test process has
long since imported everything; the API tests check that laziness never
changes what a public name resolves to.  The import-graph tests read the
source: the package depends on the standard library and numpy alone,
and every module has a caller outside the tests unless it is listed as
an oracle.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from types import ModuleType

import pytest

import repro

PKG = os.path.dirname(os.path.abspath(repro.__file__))
SRC = os.path.dirname(PKG)
ROOT = os.path.dirname(SRC)

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.fabric",
    "repro.faults",
    "repro.geometry",
    "repro.mesh",
    "repro.network",
    "repro.obs",
    "repro.partition",
    "repro.routing",
    "repro.service",
    "repro.viz",
]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded_after(code: str, modules) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    report = f"print(json.dumps([m for m in {sorted(modules)!r} if m in sys.modules]))"
    proc = _python("-c", f"{code}\nimport json, sys\n{report}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportBoundaries:
    def test_label_mesh_loads_no_fabric_service_or_http(self):
        forbidden = [
            "repro.fabric.engine",
            "repro.fabric.async_engine",
            "repro.service",
            "repro.network",
            "repro.obs.exposition",
            "http.server",
            "concurrent.futures.process",
        ]
        code = (
            "import numpy as np\n"
            "import repro\n"
            "mesh = repro.Mesh2D(20, 20)\n"
            "faults = repro.uniform_random(mesh.shape, 10, np.random.default_rng(3))\n"
            "assert repro.label_mesh(mesh, faults).labels.faulty.sum() == 10\n"
        )
        assert _loaded_after(code, forbidden) == []

    def test_label_command_loads_no_fabric_service_or_http(self):
        # -X importtime names every module the real command line loads.
        proc = _python(
            "-X", "importtime", "-m", "repro", "label", "--size", "20", "--faults", "10"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.core.pipeline" in loaded
        for name in ["repro.fabric.engine", "repro.service", "http.server"]:
            assert name not in loaded

    def test_deadlock_check_after_view_import(self):
        code = (
            "from repro.routing import FaultModelView\n"
            "import repro.routing as routing\n"
            "from repro import FaultSet, Mesh2D, label_mesh\n"
            "mesh = Mesh2D(4, 4)\n"
            "result = label_mesh(mesh, FaultSet.from_coords(mesh.shape, []))\n"
            "view = FaultModelView.from_blocks(result)\n"
            "assert routing.is_deadlock_free(routing.XYRouter(view))\n"
        )
        assert _loaded_after(code, ["repro.routing.cdg"]) == ["repro.routing.cdg"]

    def test_help_and_version_load_no_numpy(self):
        for flag in ["--help", "--version"]:
            assert _loaded_after(
                "import contextlib, io\n"
                "from repro.cli import main\n"
                "out = contextlib.redirect_stdout(io.StringIO())\n"
                "with contextlib.suppress(SystemExit), out:\n"
                f"    main([{flag!r}])\n",
                ["numpy"],
            ) == []

    def test_theorems_after_bare_package_import(self):
        assert _loaded_after(
            "import repro.core\nassert callable(repro.core.theorems.check_all)\n",
            ["repro.core.theorems"],
        ) == ["repro.core.theorems"]


def _import_all(package: ModuleType) -> list:
    """Import every module below ``package`` (except ``__main__``,
    which would run the command line) and return them."""
    prefix = package.__name__ + "."
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, prefix)
        if not info.name.endswith(".__main__")
    ]


def _defined(package: ModuleType, name: str, modules: list):
    """The object ``package.name`` must be: the submodule of that name
    when it does not itself define ``name``, else the object the
    submodule defining ``name`` holds under it."""
    own = sys.modules.get(f"{package.__name__}.{name}")
    if own is not None and name not in vars(own):
        return own
    holders = [
        vars(m)[name]
        for m in modules
        if name in vars(m) and not isinstance(vars(m)[name], ModuleType)
    ]
    assert holders, f"{package.__name__}.{name} is defined by no submodule"
    for value in holders:
        home = sys.modules.get(getattr(value, "__module__", None) or "")
        if home is not None and vars(home).get(name) is value:
            return value
    return holders[0]


@pytest.mark.parametrize("name", PACKAGES)
class TestPublicApi:
    """Checked after every submodule is imported, the state in which a
    submodule that shares an export's name would shadow it."""

    def test_all_names_resolve_to_their_definitions(self, name):
        package = importlib.import_module(name)
        modules = _import_all(package)
        for export in package.__all__:
            assert getattr(package, export) is _defined(package, export, modules), export

    def test_dir_lists_all(self, name):
        package = importlib.import_module(name)
        _import_all(package)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_all(self, name):
        package = importlib.import_module(name)
        _import_all(package)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), export


def _py_files(top: str) -> list:
    return sorted(
        os.path.join(d, f) for d, _, files in os.walk(top) for f in files if f.endswith(".py")
    )


def _module_name(path: str) -> str:
    parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: str) -> list:
    """``(module, names)`` per import in ``path``; ``names`` is empty
    for ``import module``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            out.append((node.module, tuple(alias.name for alias in node.names)))
    return out


def test_src_imports_only_stdlib_numpy_and_repro():
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    foreign = sorted(
        f"{_module_name(path)} imports {module}"
        for path in _py_files(PKG)
        for module, _ in _imports(path)
        if module.split(".")[0] not in allowed
    )
    assert foreign == []


#: Modules that no other module, benchmark or example imports, kept on
#: purpose.  Anything else without such a caller is dead code.
UNIMPORTED_ON_PURPOSE = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.geometry.paths": "the monotone-path oracle for Theorem 1",
    "repro.routing.cdg": (
        "the deadlock oracle that will count the virtual channels the "
        "polygon detour needs (ROADMAP item 1(c))"
    ),
    "repro.service.chaos": (
        "the fault-injection harness (proxy faults, WAL crash seams) of the "
        "chaos and durability suites"
    ),
}


def _imported_by(path: str) -> set:
    """The ``repro`` modules an import in ``path`` reaches.

    ``from repro.pkg import Name`` reaches ``repro.pkg`` and the module
    that defines ``Name``, which is how lazy package exports count.  A
    package ``__init__`` importing its own submodules re-exports them,
    and a module importing itself has no caller; neither counts.
    """
    own = _module_name(path) if path.startswith(PKG + os.sep) else None
    package = own if own is not None and path.endswith("__init__.py") else None
    reached = set()
    for module, names in _imports(path):
        if module.split(".")[0] != "repro":
            continue
        if package is not None and module.startswith(package + "."):
            continue
        reached.add(module)
        holder = importlib.import_module(module)
        for name in names:
            try:
                value = getattr(holder, name)
            except AttributeError:
                value = importlib.import_module(f"{module}.{name}")
            reached.add(
                value.__name__ if isinstance(value, ModuleType)
                else getattr(value, "__module__", None) or module
            )
    reached.discard(own)
    return reached


def test_every_module_has_a_caller():
    callers = [PKG] + [os.path.join(ROOT, d) for d in ("benchmarks", "perfbench", "examples")]
    reached = set().union(*(_imported_by(p) for top in callers for p in _py_files(top)))
    modules = {
        _module_name(path) for path in _py_files(PKG) if not path.endswith("__init__.py")
    }
    assert sorted(modules - reached - set(UNIMPORTED_ON_PURPOSE)) == []
    # An oracle that gained a caller no longer needs its exemption.
    assert sorted(reached & set(UNIMPORTED_ON_PURPOSE)) == []
