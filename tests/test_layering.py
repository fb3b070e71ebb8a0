"""Only tree.py knows about trees: codecs and numtheory use the NatRep
contract alone and never ask which representation they run on, and the CLI
reaches tree shortcuts through TREE's overrides."""

import ast
from pathlib import Path

import pytest

import giantnat

PACKAGE = Path(giantnat.__file__).parent
TREE_INTERNALS = {"isinstance", "TreeNatRep", "VNode", "WNode", "vmul"}


def _names(module: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


@pytest.mark.parametrize("module", ["codecs.py", "numtheory.py"])
def test_module_never_branches_on_representation(module):
    assert not _names(module) & TREE_INTERNALS


def test_codecs_import_nothing_from_tree():
    tree = ast.parse((PACKAGE / "codecs.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "tree" not in imported and "giantnat.tree" not in imported


def test_cli_imports_no_fast_function():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for name in imported if name.endswith("_fast")}


def test_tree_shortcuts_live_only_in_tree_overrides():
    tree = ast.parse((PACKAGE / "tree.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {name for name in defined if name.endswith("_fast") or name == "vmul"}


def _rep_classes():
    # (module, class name, names it defines) for every NatRep subclass
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "NatRep" for b in node.bases):
                defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                defined |= {t.id for n in node.body if isinstance(n, ast.Assign)
                            for t in n.targets if isinstance(t, ast.Name)}
                yield path.name, node.name, defined


def test_bit_text_lives_only_in_core():
    # core's int_runs/runs_int alone read and write a value's binary text;
    # every representation converts through its runs instead
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                base2 = node.func.id == "int" and (
                    any(isinstance(a, ast.Constant) and a.value == 2 for a in node.args[1:])
                    or any(k.arg == "base" for k in node.keywords))
                assert node.func.id != "bin" and not base2, f"{path.name}:{node.lineno}"
    for module, name, defined in _rep_classes():
        assert not defined & {"from_int", "to_int"}, f"{module}: {name}"


def _natrep_methods():
    natrep = next(node for node in ast.parse((PACKAGE / "core.py").read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "NatRep")
    return {fn.name: fn for fn in natrep.body if isinstance(fn, ast.FunctionDef)}


def _has_loop(fn) -> bool:
    return any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(fn))


def test_exp2_and_leftshift_have_one_definition():
    # NatRep derives both from identity a4 on run_times; a representation
    # speeds them up through run_times, never with a second definition
    classes = list(_rep_classes())
    assert {name for _, name, _ in classes} >= {"BigNatRep", "BijNatRep", "TreeNatRep"}
    for module, name, defined in classes:
        assert not defined & {"exp2", "leftshift"}, f"{module}: {name}"
    methods = _natrep_methods()
    for name in ("exp2", "leftshift"):
        assert not _has_loop(methods[name]), name


def test_mul_and_sub_have_one_definition():
    # NatRep.mul folds over runs through run_count/run_trim/run_times and
    # NatRep.sub wraps _sub_if_fits: a representation speeds them up through
    # those, never with a second product or difference
    for module, name, defined in _rep_classes():
        assert not defined & {"mul", "sub"}, f"{module}: {name}"


def _loop_calls(fn) -> set[str]:
    # names called inside fn's loops, as attributes or as local aliases
    return {call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))}


def test_generic_add_sub_take_no_succ_pred_per_digit():
    # one carry pass: a carry or borrow reaches the longer operand's rest
    # after the digit loop, never as a succ or pred per digit.  The digit
    # loop is _carry_pass's alone: add and _sub_if_fits strip no digit pairs
    # of their own
    methods = _natrep_methods()
    for name in ("add", "sub", "_sub_if_fits", "_carry_pass"):
        assert not _loop_calls(methods[name]) & {"succ", "pred"}, name
    assert _loop_calls(methods["_carry_pass"]) >= {"o_inv", "i_inv"}
    for name in ("add", "_sub_if_fits"):
        assert "_carry_pass" in {n.attr for n in ast.walk(methods[name]) if isinstance(n, ast.Attribute)}
        assert not _loop_calls(methods[name]) & {"o_inv", "i_inv", "is_o"}, name


def test_long_division_takes_one_step_per_quotient_bit():
    # the step both compares and subtracts: no cmp then sub in the loop
    called = _loop_calls(_natrep_methods()["div_and_rem"])
    assert called & {"_sub_if_fits", "sub_if_fits"}
    assert not called & {"cmp", "sub"}


def test_generic_bitwise_has_no_run_merge():
    # NatRep.bitwise is the int definition; the one merge over runs of bits
    # is the tree override's, never a second copy in core
    assert not _has_loop(_natrep_methods()["bitwise"])


def _called_names(fn) -> set[str]:
    return {call.func.id for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def _tree_functions() -> dict:
    # tree.py's module functions and TreeNatRep's methods, by name
    body = ast.parse((PACKAGE / "tree.py").read_text()).body
    rep = next(node for node in body if isinstance(node, ast.ClassDef) and node.name == "TreeNatRep")
    return {fn.name: fn for fn in (*body, *rep.body) if isinstance(fn, ast.FunctionDef)}


def test_carry_walk_merges_its_runs_itself():
    # the carry walks, over a stretch list and fused into the run walk,
    # read one table and hold their last run open: no _put per digit and
    # no table counter per stretch
    functions = _tree_functions()
    for name in ("_carry_runs", "_walk"):
        called = _called_names(functions[name])
        assert called and not called & {"_put", "_counter"}, name


def test_add_and_subtraction_walk_their_operands_once():
    # add, the subtraction step and bitwise run their automaton inside the
    # one run walk: no stretch list, no second pass over it, no order first
    functions = _tree_functions()
    for name in ("add", "_sub_if_fits", "bitwise"):
        fn = functions[name]
        assert "_walk" in _called_names(fn), name
        named = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not named & {"_stretches", "_carry_runs", "_order", "_PAIRS"}, name


def test_bitwise_ops_never_build_the_set_view():
    # l_and, l_or, ... call rep methods (bitwise) and each other, and raise
    # DomainError; only l_op transports a set merge through the set views
    for fn in ast.parse((PACKAGE / "codecs.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("l_") and fn.name != "l_op":
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                f = call.func
                on_rep = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "rep"
                named = isinstance(f, ast.Name) and (
                    f.id == "DomainError" or f.id.startswith("l_") and f.id != "l_op")
                assert on_rep or named, f"{fn.name}:{call.lineno}"


def test_counter_value_is_written_only_by_the_table():
    # a node carries a value only when the table's constructor _counter gave
    # it one; the node constructors only clear the slot, so no other code
    # path can cache a wrong value
    writes = []  # (enclosing function, whether the write stores None)

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                cleared = isinstance(child, ast.Assign) and isinstance(child.value, ast.Constant) \
                    and child.value.value is None
                writes.extend((fn, cleared) for target in targets for t in ast.walk(target)
                              if isinstance(t, ast.Attribute) and t.attr == "_value")
            named = isinstance(child, ast.Call) and any(
                isinstance(a, ast.Constant) and a.value == "_value" for a in child.args)
            deleted = isinstance(child, ast.Delete) and any(
                isinstance(t, ast.Attribute) and t.attr == "_value" for t in child.targets)
            if named or deleted:  # setattr(x, "_value", v), del x._value
                writes.append((fn, False))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else fn)

    visit(ast.parse((PACKAGE / "tree.py").read_text()), None)
    assert [fn for fn, cleared in writes if not cleared] == ["_counter"]
    assert {fn for fn, cleared in writes if cleared} == {"__init__"}


def test_counter_steps_are_trees_own_methods():
    # one counter step: the names the walks and the tracer use are TREE's
    # bound methods, with no module function wrapped round them
    defined = {node.name for node in ast.parse((PACKAGE / "tree.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_SUCC", "_PRED", "_ADD"}
    for alias, method in (("_SUCC", "succ"), ("_PRED", "pred"), ("_ADD", "add")):
        assert getattr(giantnat.tree, alias).__func__ is getattr(giantnat.tree.TreeNatRep, method)
