"""The package keeps what the program runs.

Every public function or class that an `snls` module defines, everything
`snls` exports among them, is named in the program: in another `snls`
module's code or in the benchmark's.  Names are read from the syntax tree
(`ast.Name` and `ast.Attribute` nodes), so a mention in a docstring or
comment does not count, and the benchmark is read, not imported.  A name
that only tests call belongs in `tests/reference.py`, unless it is on the
allowlist below with its reason.
"""

import ast
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


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _program_trees():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return _trees(modules), _trees(sorted((ROOT / "bench").glob("*.py")))


def _used_identifiers(trees) -> set:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


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
