"""Package layout: every public top-level name has a caller in the package."""

import ast
from pathlib import Path

import phantomdf

# Closed-form references that no package code calls: the tests compare
# estimators against them (exact_maxlaw, the exact max law on a quantile
# grid; dkw_epsilon, the DKW band half-width for sampler and block-maxima
# checks).
TEST_REFERENCES = ("exact_maxlaw", "dkw_epsilon")


def test_every_public_name_has_a_package_caller():
    src = Path(phantomdf.__file__).parent
    modules = [ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    defined = {node.name for tree in modules for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in modules for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(defined - referenced) == sorted(TEST_REFERENCES)
