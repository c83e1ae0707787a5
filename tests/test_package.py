import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "p3fusion"


def test_no_assert_statements_in_the_package():
    # invariant checks raise package errors: asserts vanish under python -O
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert list(SRC.rglob("*.py"))
    assert found == []


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set", "list") and not node.args
            and not node.keywords)


def test_import_pulls_in_no_dataclasses_or_inspect():
    # records are NamedTuples: dataclasses would import inspect, ast, dis and
    # tokenize, about 1 MB of resident memory in every process
    code = ("import sys, p3fusion, p3fusion.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


# Module-level lru_caches, kept for the reason given.
MEMOS_KEPT = {
    "fusion._builtin_rows": "the built-in rows at a prime, read by every name lookup, "
                            "every spec match and every realizing-group name: "
                            "rebuilding them costs about 4 ms at p = 5 and 2 ms at p = 7",
    "group.ambient_group": "S at a prime: each subgroup is one interned object "
                           "of its one lattice",
}


def _is_lru_cache(decorator) -> bool:
    """@lru_cache, @lru_cache(...), @functools.lru_cache(...) or @cache."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", getattr(decorator, "attr", None))
    return name in ("lru_cache", "cache")


def test_no_module_level_memo_in_the_package():
    # an empty container assigned at module level, or an lru_cache on a
    # module-level function, is a module-global memo; cached state belongs to
    # the object that uses it, unless kept here with a reason
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.FunctionDef) and any(map(_is_lru_cache,
                                                               node.decorator_list)):
                found.append(f"{path.stem}.{node.name}")
    assert sorted(set(MEMOS_KEPT) - set(found)) == []  # no stale entry
    assert sorted(set(found) - set(MEMOS_KEPT)) == []


def test_every_exported_name_is_defined():
    # a deleted function cannot linger in an __all__
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        name = "p3fusion" if path.stem == "__init__" else f"p3fusion.{path.stem}"
        module = importlib.import_module(name)
        missing.extend(f"{name}.{export}" for export in getattr(module, "__all__", ())
                       if not hasattr(module, export))
    assert missing == []


# Functions that nothing in src/ or perfbench/ names outside their own body,
# kept for the reader outside the tests that the reason names.
CALLERS_KEPT = {
    "biset.restrict_left": "ROADMAP item 3: stability by restriction runs it in the product",
    "biset.FormalBiset.from_json": "a user of `minimal --format json`, who reads the "
                                   "biset it writes back into a FormalBiset",
    "fusion.aut_F_V": "ROADMAP item 3: the certified generating set checks against it",
    "group.ExtraspecialGroup.subgroup": "a user of the documented validated lookup, "
                                        "which raises for a set that is not a subgroup",
    "realize.perm_from_morphism": "ROADMAP item 5: finding the realized group's blocks "
                                  "reads whole permutations of J from it",
}


def _package_and_bench_trees() -> dict:
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _reads(trees) -> dict:
    """{name: [(path, line, the name the attribute is read on, or None)]} for
    each Name and Attribute in the trees."""
    reads = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append((path, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else ""
                reads.setdefault(node.attr, []).append((path, node.lineno, owner))
    return reads


def _functions_without_callers() -> list:
    """module.qualified name of each function in the package whose name no
    Name or Attribute in src/ or perfbench/ reads outside the function's own
    body.  A module-level function is read only as a bare name or as an
    attribute of its module or of the package, so a method of the same name
    (`GroupMorphism.compose` for a module's `compose`) does not count for
    it.  An attribute read on a class of the package counts only for that
    class's method (`FusionSystemSpec.from_json` is no caller of another
    class's `from_json`).  Dunders are called by the language, so they are
    exempt."""
    trees = _package_and_bench_trees()
    classes = {node.name for path, tree in trees.items() if path.is_relative_to(SRC)
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    reads = _reads(trees)
    found = []

    def visit(path, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(path, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                name, own = node.name, range(node.lineno, node.end_lineno + 1)
                callers = [(where, line) for where, line, owner in reads.get(name, ())
                           if (prefix == f"{owner}." if owner in classes
                               else prefix or owner in (None, path.stem, "p3fusion"))]
                if not (name.startswith("__") and name.endswith("__")) and all(
                        where == path and line in own for where, line in callers):
                    found.append(f"{path.stem}.{prefix}{name}")
                visit(path, node.body, f"{prefix}{name}.")

    for path, tree in trees.items():
        if path.is_relative_to(SRC):
            visit(path, tree.body, "")
    return found


def test_every_function_has_a_caller():
    # code that only tests call does not belong in the package: delete it,
    # move it to the tests, run it in the product, or keep it here with a reason
    uncalled = _functions_without_callers()
    assert sorted(set(CALLERS_KEPT) - set(uncalled)) == []  # no stale entry
    assert sorted(set(uncalled) - set(CALLERS_KEPT)) == []


def _classes_without_callers() -> list:
    """module.qualified name of each class in the package whose name no Name
    or Attribute in src/ or perfbench/ reads outside the class's own body.
    An import is no read, so a re-export from __init__.py does not count."""
    trees = _package_and_bench_trees()
    reads = _reads(trees)
    found = []

    def visit(path, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                own = range(node.lineno, node.end_lineno + 1)
                if all(where == path and line in own
                       for where, line, _owner in reads.get(node.name, ())):
                    found.append(f"{path.stem}.{prefix}{node.name}")
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                visit(path, node.body, f"{prefix}{node.name}.")

    for path, tree in trees.items():
        if path.is_relative_to(SRC):
            visit(path, tree.body, "")
    return found


def test_every_class_has_a_caller():
    # a class that only tests name, an exception only they raise included,
    # belongs with them
    assert sorted(_classes_without_callers()) == []


# Defaults that no caller in src/ or perfbench/ both omits and sets, kept for
# the reason given.
DEFAULTS_KEPT = {
    "cli.main(argv)": "tests inject their arguments; the console script omits them",
    "solver.minimal_biset(certify)": "callers name both values: `minimal` and "
                                     "`verify --stability` certify, the rest do not",
}


class _Signature(NamedTuple):
    where: str  # module.qualified name, as in DEFAULTS_KEPT
    positional: list  # the parameters a caller may pass by position
    keyword_only: list
    required: set
    defaults: list
    open_ended: bool  # takes *args or **kwargs


def _signatures(module, body, owner, found):
    """Add {called name: [_Signature]} for body's functions and records.  A
    method is called without self, a constructor by its class's name, and a
    NamedTuple by its fields."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            if any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                found.setdefault(node.name, []).append(_Signature(
                    f"{module}.{node.name}", [f.target.id for f in fields], [],
                    {f.target.id for f in fields if f.value is None},
                    [f.target.id for f in fields if f.value is not None], False))
            _signatures(module, node.body, node.name, found)
        elif isinstance(node, ast.FunctionDef):
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args]
            defaults = params[len(params) - len(a.defaults):] if a.defaults else []
            if owner and not any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list):
                params = params[1:]
            defaults += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name, where = node.name, ".".join(filter(None, (module, owner, node.name)))
            if name in ("__init__", "__new__"):  # called by its class's name
                name, where = owner, f"{module}.{owner}"
            found.setdefault(name, []).append(_Signature(
                where, params, [k.arg for k in a.kwonlyargs],
                set(params + [k.arg for k in a.kwonlyargs]) - set(defaults), defaults,
                bool(a.vararg or a.kwarg)))
            _signatures(module, node.body, None, found)
    return found


def _calls():
    """(name, positional count, keyword names) of each call in src/ and
    perfbench/, matched by name; tr.call(label, system, fn, *args, **kwargs)
    is a call of fn.  A call that unpacks arguments binds unknown ones."""
    for tree in _package_and_bench_trees().values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = node.args
            if name == "call" and len(args) > 2 and isinstance(args[2], ast.Name):
                name, args = args[2].id, args[3:]
            if not any(isinstance(x, ast.Starred) for x in args) and \
                    all(k.arg for k in node.keywords):
                yield name, len(args), {k.arg for k in node.keywords}


def _fits(sig, n, keywords) -> bool:
    if sig.open_ended:
        return True
    given = set(sig.positional[:n]) | keywords
    return (n <= len(sig.positional) and keywords <= set(sig.positional + sig.keyword_only)
            and sig.required <= given)


def _unvaried_defaults() -> dict:
    """{module.name(parameter): why} for each default in the package that no
    call both omits and sets.  A call counts for a definition when its name
    and arguments fit that one alone."""
    sigs = {}
    for path in sorted(SRC.rglob("*.py")):
        _signatures(path.stem, ast.parse(path.read_text()).body, None, sigs)
    omitted, given = set(), set()
    for name, n, keywords in _calls():
        fits = [sig for sig in sigs.get(name, ()) if _fits(sig, n, keywords)]
        if len(fits) == 1:
            sig, = fits
            for param in sig.defaults:
                set_here = param in keywords or param in sig.positional[:n]
                (given if set_here else omitted).add(f"{sig.where}({param})")
    out = {}
    for group in sigs.values():
        for sig in group:
            for param in sig.defaults:
                label = f"{sig.where}({param})"
                if label not in given or label not in omitted:
                    out[label] = ("never called" if label not in given | omitted
                                  else "never set" if label not in given else "never omitted")
    return out


def test_every_default_is_both_omitted_and_set_by_callers():
    # a value that only one setting in use ever reaches is a constant: each
    # default needs a caller that omits it and one that sets it
    unvaried = _unvaried_defaults()
    assert sorted(set(DEFAULTS_KEPT) - set(unvaried)) == []  # no stale entry
    assert {k: v for k, v in unvaried.items() if k not in DEFAULTS_KEPT} == {}
