"""The package keeps what the program runs.

Every public function or class that an `snls` module defines, everything
`snls` exports among them, is named in the program: in another `snls`
module's code or in the benchmark's.  So is every public method or
property defined in a class body of the package, as an attribute
(`obj.name`).  Names are read from the syntax tree (`ast.Name` and
`ast.Attribute` nodes), so a mention in a docstring or comment does not
count, and the benchmark is read, not imported.  A member counts as named
when any attribute of that name appears, whatever object it is read from.
A name that only tests call belongs in `tests/reference.py`, unless it is
on an allowlist below with its reason.

Dunder methods and dataclass fields are outside the member rule: the
interpreter calls the former, and `config.json_value` writes a record's
fields by reflection, without naming them.

The benchmark's entry points resolve: every `snls.<module>.<name>`
attribute chain and every `from snls.<module> import <name>` in `bench/`
names something the package has, so a change that moves a function the
benchmark calls fails here, not in a benchmark run.  `bench/` is read as
syntax trees, not imported or run.

`config` owns a run's input and the engine reads it, never the other way
round: `config` imports no module that solves, drives or reports a run.

`grid_field` alone turns the stack cap `CHUNK_STACK_BYTES` into rows
(`stack_slices`): no other module names it in code, so one binding of the
cap moves every stacked march, a march's blocks of recorded steps among
them.  Nor does any other module bind a module-level name ending in
`_BYTES`: a second cap on how much an array holds would be a second rule.

`solver` names `.forward` and `.inverse` once each in code: both schemes
are a pointwise map, then the free group's step U(dt), which the engine
applies at one site.  A second transform in `solver` would be a second
linear step, or a spectral carry beside the state.

The free group stands below the noise: `propagator` imports no `noise`
name, so its group and quadratures take the time-axis rules and
`mode_sum` from `grid_field`, as the noise model does.  And no `snls`
module imports a `_`-prefixed name of another (by `from ... import` or as
an attribute of an imported module; dunders such as `__version__` are
exempt): a helper that two modules need is a public name of the module
that owns its rule, so a second copy or a back door into another module's
internals shows up here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import snls

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snls"

# Called only by tests, kept in the package for what they are.
KEPT = {
    "write_field": "the writer of the `file` field kind's format, which `read_field` reads",
    "duhamel_convolution": "the deterministic convolution of the paper's mild equation",
    "path_coincidence_check": "acceptance criterion 6: paths at two cutoff levels agree up to tau",
    "calculus_dichotomy_check": "the two-branch root dichotomy behind the bootstrap",
    "diffusion_only_exact": "the one-path exact diffusion-only oracle",
    "euler_maruyama_diffusion": "the one-path Euler-Maruyama oracle",
}
# Class members called only by tests, as "Class.member": none.
KEPT_MEMBERS: dict = {}
# The modules that consume a run's input, which `config` must not import.
CONSUMERS = {"solver", "montecarlo", "verify", "cli", "propagator", "dynamics"}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _program_trees():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return _trees(modules), _trees(sorted((ROOT / "bench").glob("*.py")))


def _attribute_names(trees) -> set:
    return {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _used_identifiers(trees) -> set:
    names = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | _attribute_names(trees)


def _defined_public(trees) -> set:
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_name_is_used_by_the_program_or_kept():
    package, bench = _program_trees()
    exported = {k for k, v in vars(snls).items() if not k.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))}
    public = _defined_public(package)
    assert exported <= public
    assert set(KEPT) <= public  # no stale allowlist entry
    used = _used_identifiers(package + bench)
    assert sorted(public - used - set(KEPT)) == []


def test_every_public_member_is_used_by_the_program_or_kept():
    package, bench = _program_trees()
    members = {
        f"{cls.name}.{node.name}": node.name
        for tree in package
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert set(KEPT_MEMBERS) <= set(members)  # no stale allowlist entry
    used = _attribute_names(package + bench)
    assert sorted(m for m, name in members.items() if name not in used and m not in KEPT_MEMBERS) == []


def _package_imports(path) -> set:
    """The `snls` modules that the module at `path` imports, by their name
    in the package, whether imported relatively or absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (("snls." if node.level else "") + (node.module or "")).rstrip(".")
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return {name.removeprefix("snls.").split(".")[0] for name in names if name.startswith("snls.")}


def test_config_imports_no_consumer_of_the_input():
    assert sorted(_package_imports(PACKAGE / "config.py") & CONSUMERS) == []
    assert importlib.util.find_spec("snls.specs") is None


def test_only_grid_field_names_the_stack_cap():
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        trees = _trees([path])
        imported = {alias.name for node in ast.walk(trees[0]) if isinstance(node, ast.ImportFrom) for alias in node.names}
        if "CHUNK_STACK_BYTES" in _used_identifiers(trees) | imported:
            named.append(path.stem)
    assert named == ["grid_field"]


def _module_bindings(path) -> set:
    """The names that the top-level statements of the module at `path`
    bind by assignment."""
    names = set()
    for node in _trees([path])[0].body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_only_grid_field_binds_a_byte_cap():
    bound = [path.stem for path in sorted(PACKAGE.glob("*.py")) if any(n.endswith("_BYTES") for n in _module_bindings(path))]
    assert bound == ["grid_field"]


def test_solver_transforms_at_one_site():
    tree = _trees([PACKAGE / "solver.py"])[0]
    named = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("forward", "inverse")]
    assert sorted(named) == ["forward", "inverse"]


def test_propagator_imports_no_noise_name():
    assert "noise" not in _package_imports(PACKAGE / "propagator.py")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path) -> list:
    """The `_`-prefixed names, dunders aside, that the module at `path`
    takes from an `snls` module: imported by name, or read as an attribute
    of an `snls` module it imported."""
    tree = _trees([path])[0]
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "snls"):
            base = node.module or "snls"
            found += [f"{base}.{alias.name}" for alias in node.names if _private(alias.name)]
            if not node.module:  # `from . import noise`: the names are modules
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found += [f"{node.value.id}.{node.attr}"] if _private(node.attr) else []
    return found


def test_no_module_imports_another_modules_private_name():
    found = {path.stem: _private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def _bench_entry_points() -> set:
    """(module, name) for every `snls.<module>.<name>` chain and every
    `from snls.<module> import <name>` in `bench/`."""
    found = set()
    for tree in _program_trees()[1]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").startswith("snls."):
                found |= {(node.module.removeprefix("snls."), alias.name) for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "snls"
            ):
                found.add((node.value.attr, node.attr))
    return found


def test_benchmark_entry_points_resolve():
    entry_points = _bench_entry_points()
    assert len(entry_points) >= 10  # the reader still finds the benchmark's calls
    missing = [f"snls.{m}.{name}" for m, name in sorted(entry_points) if not hasattr(importlib.import_module(f"snls.{m}"), name)]
    assert missing == []
