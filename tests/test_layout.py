"""Package layout: every public top-level name, and every public method of a
public class, has a caller in the package and runs in some command, every
defaulted parameter of those, and every defaulted field of a public record
(a dataclass or a NamedTuple), is set by some package call, no defaulted
parameter takes one and the same constant at every package call, and every
field of a public record is read by package code, through a receiver of its
own class where another public record has a field of the same name."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import phantomdf
from phantomdf.cli import main

# Closed-form references that no package code calls: the tests compare
# estimators against them (exact_maxlaw, the exact max law on a quantile
# grid; dkw_epsilon, the DKW band half-width for sampler and block-maxima
# checks; jump_sequence, a jump law on given atoms and tails for the
# closed-form tail and quantile checks, which a config string cannot build
# because it passes only scalars; seed_sequence, the numpy SeedSequence
# whose streams rng_for and rngs_for derive without building it).
TEST_REFERENCES = ("exact_maxlaw", "dkw_epsilon", "jump_sequence", "seed_sequence")

# Public functions and methods that no command and no criterion that
# _RUNS holds enters, each with its reason.
UNREACHED = {
    *TEST_REFERENCES,
    # they simulate for seconds to minutes; test_acceptance.py runs them
    "criterion_7", "criterion_10",
    # it builds only the message of an error: a report field JSON cannot hold
    "fmt_float",
}

# Defaulted parameters that no package call sets, each with its reason.
UNSET_DEFAULTS = {
    # the console entry point reads sys.argv; tests pass an argument list
    "main(argv)",
    # a closed-form test reference, see TEST_REFERENCES
    "dkw_epsilon(confidence)",
    # the criteria run through a lookup in _CRITERIA, so no call names them
    *(f"criterion_{i}(workers)" for i in range(1, 11)),
}

# Defaulted parameters that some package call sets and that take one and the
# same constant (a literal or a module constant) at every package call, the
# default included where a call leaves it: knobs the package never turns,
# each with its reason.
CONSTANT_DEFAULTS = {
    # the config grammar sets a catalog law's scale through make_distribution,
    # which calls the law by name, so no call site shows it
    "pareto(scale)",
    "symmetric_pareto(scale)",
}

# Defaulted record fields that no package call sets, each with its reason.
UNSET_FIELDS = {
    # run_criterion sets the wall time by assignment once the criterion ran
    "CriterionResult.seconds",
}

# Record fields that no package code reads, or whose reads the type
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


_OMITTED = object()


def _passed(call, name, position):
    """The expression a call passes for ``name``, by keyword or at
    ``position``; _OMITTED when it passes none, and None when a * or **
    argument may hold it."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
        if k.arg is None:
            return None
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if position is not None and len(call.args) > position:
        return call.args[position]
    return _OMITTED


def _module_constants(modules) -> set[str]:
    """The names that a module binds at its top level."""
    return {n.id for tree in modules for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for n in ast.walk(target) if isinstance(n, ast.Name)}


def _constant(expr, constants):
    """A key for ``expr`` if it is a literal or a module constant, else None."""
    inner = expr.operand if isinstance(expr, ast.UnaryOp) else expr
    if isinstance(inner, ast.Constant) or (isinstance(inner, ast.Name)
                                           and inner.id in constants):
        return ast.dump(expr)
    return None


def _defaulted(fn, bound):
    """(name, position a call passes it at or None, default expression) for
    each defaulted parameter of ``fn``, whose first ``bound`` parameters the
    call does not pass."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, (p, d) in enumerate(zip(positional[first:], a.defaults), start=first):
        yield p.arg, i - bound, d
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield p.arg, None, d


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
        mine = [c for c in calls if _callee(c) == bare]
        unset += [f"{qualified.split('.')[-1]}({name})"
                  for name, position, _ in _defaulted(fn, bound)
                  if not any(_sets(c, name, position) for c in mine)]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def test_no_defaulted_parameter_is_one_constant_at_every_package_call():
    """A parameter that every package call sets to the same literal or module
    constant is a knob the package never turns: the value belongs in the
    body, unless CONSTANT_DEFAULTS gives a reason to keep it."""
    modules = _modules()
    calls = _calls(modules)
    constants = _module_constants(modules)
    flagged = []
    for bare, qualified, fn, bound in _public_functions(modules):
        mine = [c for c in calls if _callee(c) == bare]
        for name, position, default in _defaulted(fn, bound):
            passed = [_passed(c, name, position) for c in mine]
            if all(p is _OMITTED for p in passed):
                continue  # set by no call: UNSET_DEFAULTS lists it
            values = {None if p is None else
                      _constant(default if p is _OMITTED else p, constants)
                      for p in passed}
            if len(values) == 1 and None not in values:
                flagged.append(f"{qualified.split('.')[-1]}({name})")
    assert sorted(flagged) == sorted(CONSTANT_DEFAULTS)


def _is_record(cls) -> bool:
    """Is the class a dataclass or a NamedTuple?"""
    return (any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in cls.decorator_list)
            or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases))


def _public_records(modules):
    """(class name, its annotated fields in order) for every public
    dataclass and every public NamedTuple."""
    for tree in modules:
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and _is_record(cls)):
                yield cls.name, [f for f in cls.body if isinstance(f, ast.AnnAssign)
                                 and isinstance(f.target, ast.Name)]


def test_every_class_with_fields_is_a_record_the_guards_read():
    """A public class that declares annotated fields is a dataclass or a
    NamedTuple, so the field guards below cover it; both kinds are there."""
    modules = _modules()
    records = {name for name, _ in _public_records(modules)}
    with_fields = {cls.name for tree in modules for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                   and any(isinstance(f, ast.AnnAssign) for f in cls.body)}
    assert with_fields <= records
    assert {"LindleySpec", "RegenStats"} <= records  # a dataclass, a NamedTuple


def test_every_defaulted_dataclass_field_is_set_by_a_package_call():
    modules = _modules()
    calls = _calls(modules)
    unset = []
    for name, fields in _public_records(modules):
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
    annotated parameters (and self), annotated record fields, module-level
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
    for every field of a record whose ``_asdict`` it loads, and for every
    string constant of a function that calls getattr on a
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
            if node.attr == "_asdict":  # a NamedTuple's dict of every field
                reads.extend((receiver, f) for c in receiver if isinstance(c, str)
                             for f in types.fields[c])
            elif not any((c, node.attr) in skip for c in receiver):
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
    # A read of a name that one public record alone has counts as its
    # read; a name that several share is read only through a receiver that
    # the type reader ties to the owning class.
    modules = _modules()
    records = dict(_public_records(modules))
    owners: dict[str, set[str]] = {}
    for name, fields in records.items():
        for f in fields:
            owners.setdefault(f.target.id, set()).add(name)
    reads = _field_reads(modules)
    names_read = {attr for _, attr in reads}

    def is_read(cls, attr):
        if len(owners[attr]) == 1:
            return attr in names_read
        return any(a == attr and cls in receiver for receiver, a in reads)

    unread = [f"{name}.{f.target.id}" for name, fields in records.items()
              for f in fields if not is_read(name, f.target.id)]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


# One small run of every subcommand, of every process kind and of every
# catalog law, with the criteria that take under a second
_LAWS = ("exp(1)", "exponential(2)", "pareto(2,1)", "uniform(0,1)", "beta(2,3)",
         "geometric(0.3)", "superheavy()", "symmetric_pareto(2,1)", "mixture_component(2)")
_KINDS = ("kind = lindley\nstep = pareto(2,1)-2",
          "kind = metropolis\ntarget = symmetric_pareto(2,1)\nproposal = uniform(-1,1)",
          "kind = mixture", "kind = moving_max\nwindow = 2\nbase = uniform(0,1)")
_RUNS = (
    *(("simulate", f"kind = iid\nmarginal = {law}\nlength = 50") for law in _LAWS),
    *(("simulate", f"{kind}\nlength = 50") for kind in _KINDS),
    ("phantom-fit", "block_sizes = 10,100"),
    ("verify", "phantom = {out}/phantom.txt\nblock_sizes = 10,100"),
    ("phantom-fit", f"{_KINDS[0]}\nblock_sizes = 10,100"),
    ("bt-check", "block_sizes = 10,100"),
    ("bt-check", "kind = mixture\nblock_sizes = 10,100"),
    ("regen", "length = 100000\nverify_blocks = 10,100"),
    ("rates", "mixing = polynomial(4)\ndelta_xi = 0.1:true"),
    ("extremal-index", "block_sizes = 10,100"),
    ("extremal-index", "block_sizes = 10,100\nmethod = monte-carlo"),
    ("acceptance", "criteria = 1,2,3,4,5,6,8,9"),
)


def _public_code() -> dict:
    """The code object of every public function and of every public method
    of a public class in the package, by name."""
    public = {}
    for info in pkgutil.iter_modules(phantomdf.__path__):
        module = importlib.import_module(f"phantomdf.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                public[obj.__code__] = name
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        public[fn.__code__] = f"{name}.{attr}"
    return public


def test_every_public_function_runs_in_some_command(tmp_path):
    """Code that only the tests reach is an option no user has: every run of
    _RUNS, and --print-defaults, goes through main at one worker in this
    process, and every public function and method is entered, but for
    those that UNREACHED names."""
    out = tmp_path / "out"
    argvs = [["--print-defaults"]]
    for i, (command, section) in enumerate(_RUNS):
        cfg = tmp_path / f"{i}.ini"
        cfg.write_text(f"[common]\nseed = 3\nreplicas = 200\n[{command}]\n"
                       + section.format(out=out) + "\n")
        argvs.append([command, "--config", str(cfg), "--workers", "1", "--out", str(out)])
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(before)
    assert set(codes) <= {0, 1}  # every run ran: a verdict, not a usage error
    missed = [name for code, name in _public_code().items() if code not in entered]
    assert sorted(missed) == sorted(UNREACHED)
