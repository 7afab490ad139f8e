"""Every public callable of the ``gasp`` namespace, called with wrong-typed
arguments, and every public name of the library, referenced by the library."""

import ast
import dataclasses
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import gasp
from gasp import harness
from gasp.degree_table import SchemeParams
from gasp.errors import GaspError

SESSION = harness.run_sdmm(SchemeParams(2, 1, 1), scheme="big")
CODE, PLAN = SESSION.code, SESSION.plan

# Valid arguments of the functions, by parameter name.  (2, 1, 1) has
# N = 5 servers, so n = 3 is both a server index and a worker pool.
ARGS = {
    "params": CODE.params,
    "code": CODE,
    "plan": PLAN,
    "shapes": SESSION.shapes,
    "a": SESSION.matrix_a,
    "b": SESSION.matrix_b,
    "bundle": SESSION.shares,
    "responses": SESSION.responses,
    "assignment": CODE.assignment,
    "scheme": "big",
    "scheme_label": "big",
    "rate": Fraction(1, 3),
    "n": 3,
    "k": 2,
    "t": 1,
    "g": 1,
    "p": 7,
    "attempts": 1,
    "rejections": {"gv": 1},
}

# One valid instance of every public dataclass, whose fields are its valid arguments.
EXAMPLES = {type(x): x for x in (
    SESSION,
    CODE,
    PLAN,
    PLAN.field,
    CODE.params,
    CODE.assignment,
    SESSION.shapes,
    SESSION.shares,
    SESSION.product,
    SESSION.cost_report,
    gasp.MaskSet(SESSION.product, SESSION.product),
    gasp.mds_audit(CODE, PLAN),
    gasp.rate_report(CODE.params),
    gasp.optimize_gasp(3, 1),
)}

WRONG = (None, (1, 2), 1.5, True, [1], "x")

PUBLIC = sorted(
    name for name in dir(gasp) if not name.startswith("_") and callable(getattr(gasp, name))
)


@pytest.mark.parametrize("name", PUBLIC)
def test_wrong_types_raise_only_gasp_errors(name):
    # Each parameter in turn takes each wrong value, the others staying
    # valid; the call must succeed or raise a GaspError, never a bare one.
    fn = getattr(gasp, name)
    try:
        parameters = inspect.signature(fn).parameters
    except ValueError:
        # GaspError and the subclasses with no __init__ of their own take *args.
        for wrong in WRONG:
            fn(wrong)
        return
    if dataclasses.is_dataclass(fn):
        example = EXAMPLES[fn]
        valid = {f.name: getattr(example, f.name) for f in dataclasses.fields(fn) if f.init}
    else:
        valid = {q: ARGS[q] for q, par in parameters.items() if par.default is par.empty}
    fn(**valid)
    for q in parameters:
        for wrong in WRONG:
            try:
                fn(**{**valid, q: wrong})
            except GaspError:
                pass


def test_every_public_name_has_a_library_caller():
    # Every public module-level function or class of src/gasp is named (as
    # a Name or an Attribute) somewhere in the library outside __init__.py,
    # and every public method or property of a public class is read there
    # as an attribute (x.name): a local variable of the same name is no
    # reader.  API with no library caller belongs in the tests, as the
    # oracles do.
    defined, names, attributes = [], set(), set()
    for path in sorted(Path(gasp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_"
                ]
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    unread = [
        label for label, name, member in defined
        if name not in attributes and (member or name not in names)
    ]
    assert unread == []
