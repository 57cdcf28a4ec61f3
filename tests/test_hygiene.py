"""Source hygiene of src/fracdg, read with ast: exports, imports, the one
door to the memory operator; and the table of config fields the CLI acts on."""

import ast
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from fracdg import cli
from fracdg.config import _RANGES, RunConfig
from fracdg.mesh import geometric_mesh, graded_mesh

SRC = Path(__file__).resolve().parents[1] / "src" / "fracdg"

# imported but unused on purpose: the benchmark's trace wraps every binding
# of kernel.memory_block, and stepper keeps one (see the comment there)
UNUSED_IMPORT_SEAMS = {("stepper", "memory_block")}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def imported_names(tree):
    """Names bound by the module's import statements, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def package_exports():
    """Every name fracdg/__init__.py imports, in order."""
    return [
        alias.name
        for node in parse("__init__").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_package_exports_are_in_their_modules_all():
    missing = []
    for node in parse("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = module_all(parse(node.module))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert missing == []


def test_every_library_modules_all_is_exported():
    # cli's one name, main, is the console script, not a library export
    exported = set(package_exports())
    missing = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("__init__", "__main__", "cli")
        for name in sorted(module_all(parse(path.stem)) - exported)
    ]
    assert missing == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue  # its imports are the package's exports
        tree = parse(module)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= module_all(tree)
        unused += [
            f"{module}.{name}"
            for name in sorted(imported_names(tree) - used)
            if (module, name) not in UNUSED_IMPORT_SEAMS
        ]
    assert unused == []


def test_only_the_fem_backend_imports_scipy():
    # scipy serves one call, the FEM eigensolve, and is imported there, so
    # that a run without FEM never pays for its import
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path.stem)
        # each node's innermost enclosing function: ast.walk visits outer first
        scope = {
            id(node): function.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.append(f"{path.stem}.{scope.get(id(node), '<module>')}: {ast.unparse(node)}")
    assert importers == ["spatial.fem_backend: from scipy.linalg import eigh"]


SCIPY_PROBE = """
import sys
from pathlib import Path

from fracdg import cli, spatial

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

config = Path(sys.argv[1]) / "solve.cfg"
config.write_text(cli._SELFTEST_CONFIGS["solve"])
status = cli.main(["solve", "--config", str(config), "--out", str(Path(sys.argv[1]) / "out")])
print(status, scipy_modules())
spatial.fem_backend(4, 2)
print("scipy.linalg" in scipy_modules())
"""


def test_a_spectral_run_loads_no_scipy_and_the_fem_backend_loads_scipy_linalg(tmp_path):
    # in a fresh interpreter: the CLI and a spectral solve with both
    # diagnostics (its Gauss-Jacobi rules, exponent 0 included) import no
    # scipy module; the FEM backend's set-up then loads scipy.linalg
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["0 []", "True"]


def test_only_kernel_builds_a_memory_operator():
    # every other module goes through kernel.memory_operator, which shares
    # each live operator by its key
    builders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "kernel":
            continue
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "MemoryOperator":
                    builders.append(f"{path.stem}:{node.lineno}")
    assert builders == []


def test_only_the_mapping_and_the_far_tables_gather_reference_rules():
    # every mapped Gauss-Legendre rule goes through kernel._gauss_legendre;
    # the far blocks' weighted basis tables and the Gauss-Jacobi reference
    # rules of exponent 0 read the reference rules unmapped; no other
    # function gathers them
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(parse(path.stem)):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        if name == "_legendre_rules":
                            callers.add(f"{path.stem}.{function.name}")
    assert callers == {"kernel._gauss_legendre", "kernel._jacobi_ref", "kernel._weighted_reference_basis"}


def test_every_export_is_named_by_program_code():
    # a package export no program module reads, as a Name or an Attribute,
    # is API that only the tests use; its own def or class is no reader
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert [name for name in package_exports() if name not in named] == []


def test_every_config_field_is_read_by_the_cli():
    # a config key whose field no part of any run reads does nothing; the
    # mesh rows are their builders' parameter lists, and a study row holds
    # its runner's parameters plus the scalars its list keys fall back to
    names = [f.name for f in fields(RunConfig)]
    rows = cli._READS
    assert [name for name in names if not any(name in row for row in rows.values())] == []
    assert [key for row in rows.values() for key in row if key not in names] == []
    for part, builder in (("graded", graded_mesh), ("geometric", geometric_mesh)):
        assert rows[part] == tuple(inspect.signature(builder).parameters), part
    for command, (runner, *_) in cli._STUDIES.items():
        row = rows[command]
        fallbacks = {key for key, list_key, *_ in _RANGES if key in row and list_key in row}
        parameters = inspect.signature(runner).parameters
        assert [key for key in row if key not in fallbacks and key not in parameters] == [], command
