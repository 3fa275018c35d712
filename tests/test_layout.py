"""Package layout: every public top-level name, and every public method of a
public class, has a caller in the package."""

import ast
from pathlib import Path

import phantomdf

# Closed-form references that no package code calls: the tests compare
# estimators against them (exact_maxlaw, the exact max law on a quantile
# grid; dkw_epsilon, the DKW band half-width for sampler and block-maxima
# checks; DistFn.jump_at, the atom mass P(X = x) for the left-limit CDF
# checks of the samplers).
TEST_REFERENCES = ("exact_maxlaw", "dkw_epsilon", "DistFn.jump_at")


def test_every_public_name_has_a_package_caller():
    src = Path(phantomdf.__file__).parent
    modules = [ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    public = [node for tree in modules for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    defined = {node.name: node.name for node in public}
    defined.update({f"{cls.name}.{fn.name}": fn.name
                    for cls in public if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in modules for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = [name for name, bare in defined.items() if bare not in referenced]
    assert sorted(uncalled) == sorted(TEST_REFERENCES)
