"""Package layout: every public top-level name, and every public method of a
public class, has a caller in the package, every defaulted parameter of
those, and every defaulted field of a public dataclass, is set by some
package call, and every field of a public dataclass is read by package
code, through a receiver of its own class where another public dataclass
has a field of the same name."""

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
    # tests set short Lindley burn-ins, some to put the burn-in boundary on
    # a slab edge; the package takes the default burn-in
    "LindleySpec.burn_in",
    # run_criterion sets the wall time by assignment once the criterion ran
    "CriterionResult.seconds",
}

# Dataclass fields that no package code reads, or whose reads the type
# reader below cannot tie to their class, each with its reason; none today:
# a computed value either reaches an artifact or is not computed.
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


# generic containers whose subscript names the type of their elements
_CONTAINERS = {"tuple", "list", "Sequence", "Iterable", "Iterator", "set", "frozenset"}
_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
_NONE = frozenset()


class _Types:
    """A small flow-insensitive reader of the classes that package names hold.

    A type is a frozenset of class names and ("seq", element type) pairs for
    homogeneous containers; the empty set is a type it cannot tell.  Names
    take their types from constructor calls, calls of annotated functions,
    annotated parameters (and self), annotated dataclass fields, module-level
    union aliases (ProcessSpec), and the elements of containers they iterate
    or subscript.
    """

    def __init__(self, modules):
        self.fields, self.returns, self.aliases = {}, {}, {}
        for tree in modules:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.fields[node.name] = {
                        f.target.id: f.annotation for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
                elif isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = node.returns
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
                    self.aliases[node.targets[0].id] = node.value

    def annotation(self, node) -> frozenset:
        if isinstance(node, ast.BinOp):  # A | B
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.annotation(self.aliases[node.id])
            return frozenset({node.id}) if node.id in self.fields else _NONE
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in _CONTAINERS:
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if len(args) == 1 or getattr(args[-1], "value", None) is Ellipsis:
                return frozenset({("seq", self.annotation(args[0]))})
        return _NONE

    @staticmethod
    def element(t: frozenset) -> frozenset:
        """The type of an element of a container of type ``t``."""
        return frozenset().union(*(a[1] for a in t if isinstance(a, tuple)))

    def of(self, node, env: dict) -> frozenset:
        """The type of expression ``node`` under the name types ``env``."""
        if isinstance(node, ast.Name):
            return env.get(node.id, _NONE)
        if isinstance(node, ast.Attribute):
            return frozenset().union(*(
                self.annotation(self.fields[c][node.attr]) for c in self.of(node.value, env)
                if isinstance(c, str) and node.attr in self.fields[c]))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            f = node.func.id
            return frozenset({f}) if f in self.fields else self.annotation(self.returns.get(f))
        if isinstance(node, ast.Subscript):
            return self.element(self.of(node.value, env))
        return _NONE

    def scope(self, node, outer: dict, owner: str | None = None) -> dict:
        """Name types in ``node``, a module, function, lambda or
        comprehension: those of the enclosing scope, the parameters, and
        every name it assigns or iterates over, to a fixed point."""
        env = dict(outer)
        if isinstance(node, _COMPREHENSIONS):
            bindings = [(g.target, g.iter, True) for g in node.generators]
        else:
            args = getattr(node, "args", None)
            params = [] if args is None else args.posonlyargs + args.args + args.kwonlyargs
            for i, a in enumerate(params):
                env[a.arg] = (frozenset({owner}) if i == 0 and owner and a.arg == "self"
                              else self.annotation(a.annotation))
            own = list(_own_nodes(node))
            bindings = [(t, n.value, False) for n in own if isinstance(n, ast.Assign)
                        for t in n.targets]
            bindings += [(n.target, n.iter, True) for n in own if isinstance(n, ast.For)]
        bindings = [b for b in bindings if isinstance(b[0], ast.Name)]
        while True:
            before = dict(env)
            for target, value, iterated in bindings:
                t = self.of(value, env)
                env[target.id] = env.get(target.id, _NONE) | (
                    self.element(t) if iterated else t)
            if env == before:
                return env


def _own_nodes(node):
    """The nodes under ``node`` outside the nested functions, lambdas and
    comprehensions, which are scopes of their own."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, *_COMPREHENSIONS)):
            todo.extend(ast.iter_child_nodes(child))


def _field_reads(modules) -> list[tuple[frozenset, str]]:
    """(receiver type, name) for every attribute that package code loads,
    and for every string constant of a function that calls getattr on a
    receiver (the writers read fields by name).  A field loaded, through a
    receiver of its own class, inside the keyword argument of the same name
    in a constructor call of that class (``right_end=dist.right_end + offset``)
    only copies the field onto a new instance, so it does not count as a
    read."""
    types = _Types(modules)
    reads = []

    def copied(node, child):
        """(class, field) when ``child`` is a keyword argument of call
        ``node`` that sets that field of that class's constructor."""
        cls = _callee(node) if isinstance(node, ast.Call) else None
        if isinstance(child, ast.keyword) and child.arg in types.fields.get(cls, ()):
            return {(cls, child.arg)}
        return _NONE

    def walk(node, env, strings, skip=_NONE):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    walk_scope(child, env, strings, skip, owner=node.name)
                else:
                    walk(child, env, strings, skip)
            return
        if isinstance(node, (ast.FunctionDef, ast.Lambda, *_COMPREHENSIONS)):
            walk_scope(node, env, strings, skip)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = types.of(node.value, env)
            if not any((c, node.attr) in skip for c in receiver):
                reads.append((receiver, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            receiver = types.of(node.args[0], env)
            reads.extend((receiver, s) for s in strings)
        for child in ast.iter_child_nodes(node):
            walk(child, env, strings, skip | copied(node, child))

    def walk_scope(node, env, strings, skip=_NONE, owner=None):
        env = types.scope(node, env, owner)
        if isinstance(node, ast.FunctionDef):
            strings = [c.value for c in ast.walk(node)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        for child in ast.iter_child_nodes(node):
            walk(child, env, strings, skip)

    for tree in modules:
        walk_scope(tree, {}, ())
    return reads


def test_every_dataclass_field_is_read_by_package_code():
    # a field read only by tests is a diagnostic that reaches no artifact.
    # A read of a name that one public dataclass alone has counts as its
    # read; a name that several share is read only through a receiver that
    # the type reader ties to the owning class.
    modules = _modules()
    dataclasses = dict(_public_dataclasses(modules))
    owners: dict[str, set[str]] = {}
    for name, fields in dataclasses.items():
        for f in fields:
            owners.setdefault(f.target.id, set()).add(name)
    reads = _field_reads(modules)
    names_read = {attr for _, attr in reads}

    def is_read(cls, attr):
        if len(owners[attr]) == 1:
            return attr in names_read
        return any(a == attr and cls in receiver for receiver, a in reads)

    unread = [f"{name}.{f.target.id}" for name, fields in dataclasses.items()
              for f in fields if not is_read(name, f.target.id)]
    assert sorted(unread) == sorted(UNREAD_FIELDS)
