"""Package layout: every public top-level name, and every public method of a
public class, has a caller in the package, every defaulted parameter of
those, and every defaulted field of a public dataclass, is set by some
package call, and every field of a public dataclass is read by package
code."""

import ast
from pathlib import Path

import phantomdf

# Closed-form references that no package code calls: the tests compare
# estimators against them (exact_maxlaw, the exact max law on a quantile
# grid; dkw_epsilon, the DKW band half-width for sampler and block-maxima
# checks; DistFn.jump_at, the atom mass P(X = x) for the left-limit CDF
# checks of the samplers; jump_sequence, a jump law on given atoms and tails
# for the atom and quantile searches, which a config string cannot build
# because it passes only scalars).
TEST_REFERENCES = ("exact_maxlaw", "dkw_epsilon", "DistFn.jump_at", "jump_sequence")

# Defaulted parameters that no package call sets, each with its reason.
UNSET_DEFAULTS = {
    # the console entry point reads sys.argv; tests pass an argument list
    "main(argv)",
    # a closed-form test reference, see TEST_REFERENCES
    "dkw_epsilon(confidence)",
    # the criteria run through a lookup in _CRITERIA, so no call names them
    *(f"criterion_{i}(workers)" for i in range(1, 11)),
    # test knobs: a probability grid finer than the pipelines use, the pair
    # fractions of the factorization check, the zero-cycle window lengths,
    # and a short jump sequence for the atom checks
    "maxlaw_from_maxima(probs)",
    "check_BT(pair_fractions)",
    "decompose_regenerative(diag_windows)",
    "jump_sequence(count)",
}

# Defaulted dataclass fields that no package call sets, each with its reason.
UNSET_FIELDS = {
    # tests set short burn-ins; the package takes the default burn-in
    "LindleySpec.burn_in",
    "MetropolisSpec.burn_in",
    # run_criterion sets the wall time by assignment once the criterion ran
    "CriterionResult.seconds",
}

# Dataclass fields that no package code reads, each with its reason; none
# today: a computed value either reaches an artifact or is not computed.
UNREAD_FIELDS: set[str] = set()


def _modules():
    src = Path(phantomdf.__file__).parent
    return [ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]


def _calls(modules):
    return [node for tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.Call)]


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _sets(call, name, position):
    """Does the call pass ``name``, by keyword or at ``position``?"""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _public_functions(modules):
    """(name a call uses, qualified name, def node, leading bound parameters)
    for every public function, public method and public constructor."""
    for tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node.name, node, 0
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    bound = 0 if any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list) else 1
                    if fn.name == "__init__":
                        yield node.name, node.name, fn, bound
                    elif not fn.name.startswith("_"):
                        yield fn.name, f"{node.name}.{fn.name}", fn, bound


def test_every_public_name_has_a_package_caller():
    modules = _modules()
    public = [node for tree in modules for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    defined = {node.name: node.name for node in public}
    defined.update({f"{cls.name}.{fn.name}": fn.name
                    for cls in public if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
    nodes = [node for tree in modules for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = {node.id for node in nodes if isinstance(node, ast.Name)} | attributes
    # a method is reached only through an attribute (x.row), so a local
    # variable of the same name (for row in ...) does not count as its caller
    uncalled = [name for name, bare in defined.items()
                if bare not in (attributes if "." in name else names)]
    assert sorted(uncalled) == sorted(TEST_REFERENCES)


def test_every_defaulted_parameter_is_set_by_a_package_call():
    modules = _modules()
    calls = _calls(modules)
    unset = []
    for bare, qualified, fn, bound in _public_functions(modules):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        defaulted = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        mine = [c for c in calls if _callee(c) == bare]
        unset += [f"{qualified.split('.')[-1]}({name})" for name, position in defaulted
                  if not any(_sets(c, name, position) for c in mine)]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def _public_dataclasses(modules):
    """(class name, its annotated fields in order) for every public dataclass."""
    for tree in modules:
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                            for d in cls.decorator_list)):
                yield cls.name, [f for f in cls.body if isinstance(f, ast.AnnAssign)
                                 and isinstance(f.target, ast.Name)]


def test_every_defaulted_dataclass_field_is_set_by_a_package_call():
    modules = _modules()
    calls = _calls(modules)
    unset = []
    for name, fields in _public_dataclasses(modules):
        mine = [c for c in calls if _callee(c) == name]
        unset += [f"{name}.{f.target.id}" for position, f in enumerate(fields)
                  if f.value is not None
                  and not any(_sets(c, f.target.id, position) for c in mine)]
    assert sorted(unset) == sorted(UNSET_FIELDS)


def _read_names(modules):
    """Attribute names that package code loads, and the string constants of
    every function that calls getattr (the writers read fields by name)."""
    read = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and getattr(c.func, "id", None) == "getattr"
                    for c in ast.walk(node)):
                read |= {c.value for c in ast.walk(node)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return read


def test_every_dataclass_field_is_read_by_package_code():
    # a field read only by tests is a diagnostic that reaches no artifact
    modules = _modules()
    read = _read_names(modules)
    unread = [f"{name}.{f.target.id}" for name, fields in _public_dataclasses(modules)
              for f in fields if f.target.id not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS)
