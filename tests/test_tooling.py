import ast
import importlib
from collections import Counter
from pathlib import Path

import qtransfer
from qtransfer.cli import SUITES

SRC = Path(qtransfer.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so invariants must raise explicitly
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_budget_parameters_in_package():
    # each enumeration refuses on its own size against a module constant;
    # no caller tunes a limit per call
    found = [f"{path.relative_to(SRC)}:{node.lineno} {node.arg}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.arg)
             and (node.arg == "bound" or node.arg.endswith(("_limit", "_budget")))]
    assert not found, found


def test_no_private_names_imported_across_modules():
    # a helper another module needs is public; underscore names stay inside
    # the module that defines them
    found = [f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "qtransfer")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_oracles_import_no_private_names():
    # an oracle that reuses a private helper of the code it checks is not
    # an independent path
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(Path(__file__).parent.glob("*_oracle.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "qtransfer"
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def _names_defined(tree: ast.Module) -> set[str]:
    # defs, stored attributes and names, and strings (a __slots__ entry)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            defined.add(node.value)
    return defined


def test_no_private_attributes_used_across_modules():
    # x._name reads state that another module owns; that module should
    # offer it through a public name
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined = _names_defined(tree)
        found += [f"{path.relative_to(SRC)}:{node.lineno} {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.startswith("__") and node.attr not in defined]
    assert not found, found


def _string_annotation_names(tree: ast.Module) -> set[str]:
    # names inside a string annotation are not ast.Name nodes of the module
    annotations = [value for node in ast.walk(tree)
                   for value in (getattr(node, "annotation", None),
                                 getattr(node, "returns", None))
                   if value is not None]
    return {name.id
            for annotation in annotations for node in ast.walk(annotation)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in ast.walk(ast.parse(node.value, mode="eval"))
            if isinstance(name, ast.Name)}


def test_module_level_imports_are_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _string_annotation_names(tree)
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert not unused, unused


def test_every_all_entry_resolves():
    # a stale __all__ entry breaks `from module import *`
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__main__.py":  # importing it runs the CLI
            continue
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        missing += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert not missing, missing


# the package modules without an __all__: the command line and its entry point
NO_ALL_MODULES = {"cli.py", "__main__.py"}


def test_every_public_definition_is_in_all():
    # the converse of test_every_all_entry_resolves: a public def or class
    # missing from its module's __all__ is left out of `from module import *`
    missing, without_all = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        listed = [{elt.value for elt in node.value.elts} for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        if not listed:
            without_all.add(str(path.relative_to(SRC)))
            continue
        missing += [f"{path.relative_to(SRC)}:{node.lineno} {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in listed[0]]
    assert not missing, missing
    assert without_all == NO_ALL_MODULES, without_all


def test_type_check_messages_come_from_partitions():
    # "is not a partition of n" and "is not a composition of n" are raised by
    # as_partition_of and as_composition_of only, in any exception type;
    # other modules call them
    phrases = ("is not a partition of", "is not a composition of")

    def messages(path):
        return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and any(p in c.value for p in phrases)
                        for arg in node.exc.args for c in ast.walk(arg))]

    owner = SRC / "algebra" / "partitions.py"
    assert len(messages(owner)) == 2
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) if path != owner
             for line in messages(path)]
    assert not found, found


INTEGER_ONLY_QSCALAR_METHODS = {"_make", "__add__", "__neg__", "__mul__", "inverse",
                                "__pow__", "__eq__"}


def test_scalar_polynomial_helpers_are_integer_only():
    # the fraction-free core: a value's content is a pair of ints, so no
    # module-level helper of algebra/scalars.py, and none of QScalar's
    # arithmetic methods, may name Fraction
    tree = ast.parse((SRC / "algebra" / "scalars.py").read_text())
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    qscalar, = (node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "QScalar")
    methods = [node for node in qscalar.body if isinstance(node, ast.FunctionDef)
               and node.name in INTEGER_ONLY_QSCALAR_METHODS]
    assert helpers and {node.name for node in methods} == INTEGER_ONLY_QSCALAR_METHODS
    helpers += methods
    found = [f"{node.name}:{node.lineno}" for node in helpers if _names_fraction(node)]
    assert not found, found


def _names_fraction(node: ast.AST) -> bool:
    return "Fraction" in ({name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
                          | _string_annotation_names(node))


INTEGER_ONLY_FINITEGL_HELPERS = {"_birkhoff", "_submodule_counts", "_flag_count",
                                 "_trivial_ind", "_dl_characters"}


def test_finite_gl_characters_are_integer_only():
    # Ind_{P_c}(1) is a count of stable flags and every R_rho value an
    # integer, so none of the helpers that build them may name Fraction
    tree = ast.parse((SRC / "finitegl" / "classfun.py").read_text())
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in INTEGER_ONLY_FINITEGL_HELPERS]
    assert {node.name for node in helpers} == INTEGER_ONLY_FINITEGL_HELPERS
    found = [f"{node.name}:{node.lineno}" for node in helpers if _names_fraction(node)]
    assert not found, found


def test_every_suite_has_an_acceptance_test():
    # unit tests that repeat a suite's case set are deleted in its favour, so
    # an acceptance test must run every suite
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    missing = [name for name in SUITES if f"--suite {name}" not in text]
    assert not missing, missing


def test_acceptance_tests_import_only_the_cli():
    # one definition per acceptance criterion: the acceptance tests run the
    # suites of qtransfer.cli and import no other package code
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {m for m in modules if m.split(".")[0] == "qtransfer"} == {"qtransfer.cli"}


# Public names with no caller inside the package, each kept on purpose:
# the benchmark or an oracle calls it.  Everything else that only the tests
# call lives in the tests.
UNCALLED_PUBLIC_NAMES = {
    "cycle_type": "perfbench/bench_cases.py",
    "one_adic_ep": "perfbench/bench_cases.py",
    "orbital_sum": "perfbench/bench_cases.py",
    "rref_subspaces": "the flag-scan oracle's; perfbench looks it up in fqmat by name",
    "in_rowspace": "the flag-scan oracle's; perfbench looks it up in fqmat by name",
    "mat_mul": "perfbench counts its calls by name",
}


def _public_definitions(tree: ast.Module):
    # (qualified name, last name part) of each public module-level function
    # or class and each public method
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _references(tree: ast.Module) -> set[str]:
    # names and attributes read, except inside a def of the same name;
    # imports and __all__ strings are no reference
    found = set()

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return found


# The methods a bare-name search cannot pin to a caller: an arithmetic or
# truth operator (a def or an assignment) runs from an operator, and a public
# method whose name another package class defines shares its references.
# Each names its package caller or the reason it stays.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__bool__"}
NAMED_CALLERS = {
    **dict.fromkeys(["QScalar.__radd__", "QScalar.__rsub__", "QScalar.__rtruediv__",
                     "SymPoly.__rmul__"], "perfbench's tracer wraps it by name"),
    **dict.fromkeys(["QScalar.__bool__", "SymPoly.__bool__"], "truth protocol: a zero is falsy"),
    **dict.fromkeys(["SymPoly.__add__", "SymPoly.__sub__"],
                    "the Laplace expansion of transfer.image_schur"),
    "QScalar.__add__": "SymPoly.__add__ and SymPoly.__mul__",
    "QScalar.__neg__": "SymPoly.__neg__ and QScalar.__sub__",
    "QScalar.__sub__": "transfer.rank_of_rows",
    "QScalar.__mul__": "SymPoly.scale and transfer.substitution_image",
    "QScalar.__rmul__": "math.prod from the int 1 in sympoly.multiplicative_sum",
    "QScalar.__truediv__": "epfun.to_e_basis",
    "QScalar.__pow__": "transfer.substitution_image",
    "SymPoly.__neg__": "SymPoly.__sub__",
    "SymPoly.__mul__": "transfer.surjectivity_witness",
    "ParahoricCombo.__add__": "perfbench/bench_cases.py",
    "SymPoly.scale": "transfer.image_p",
    "ParahoricCombo.scale": "cli's ep-shadow case",
    "SymPoly.sorted_terms": "SymPoly.__str__ and cli's JSON output",
    "ParahoricCombo.sorted_terms": "epfun.shadow and ParahoricCombo.to_json",
    "DParahoricType.n": "epfun.f_J",
    "TransferParams.n": "transfer.transfer_sym",
    "GLGroup.classes": "finitegl.linear_combination",
    "ParabolicSubgroup.classes": "the induction identity of finitegl.classfun",
}


def _methods(tree: ast.Module):
    # (class name, method name, whether a def) of each def or assignment in
    # a class body
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item.name, True
                elif isinstance(item, ast.Assign):
                    yield from ((node.name, target.id, False) for target in item.targets
                                if isinstance(target, ast.Name))


def test_every_public_name_has_a_package_caller():
    # a function only the tests call is an oracle and belongs in the tests
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    referenced = set().union(*map(_references, trees))
    uncalled = {qual for tree in trees for qual, name in _public_definitions(tree)
                if name not in referenced}
    found = sorted(uncalled - UNCALLED_PUBLIC_NAMES.keys())
    assert not found, found
    # an exception that gained a caller leaves the list
    stale = sorted(UNCALLED_PUBLIC_NAMES.keys() - uncalled)
    assert not stale, stale
    methods = [method for tree in trees for method in _methods(tree)]
    owners = Counter(name for _, name, is_def in methods
                     if is_def and not name.startswith("_"))
    named = {f"{cls}.{name}" for cls, name, is_def in methods
             if name in OPERATORS or (is_def and owners[name] > 1)}
    missing = sorted(named - NAMED_CALLERS.keys())
    assert not missing, missing
    # an entry whose method is gone, or no longer shares its name, leaves
    stale = sorted(NAMED_CALLERS.keys() - named)
    assert not stale, stale
