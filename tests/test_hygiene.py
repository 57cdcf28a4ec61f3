"""Source hygiene of src/fracdg, read with ast: exports, imports, the one
door to the memory operator and the config fields the CLI acts on."""

import ast
from dataclasses import fields
from pathlib import Path

from fracdg.config import RunConfig

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
    # a config key whose field the CLI never reads does nothing to the run
    read = {
        node.attr
        for node in ast.walk(parse("cli"))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []
