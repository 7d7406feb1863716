import ast
from importlib import resources

import pytest

import cosmetic
from cosmetic import CrossCheckError, engine, oracle
from cosmetic.engine import _evaluate, _Residues
from cosmetic.obstructions import SELECTABLE_FILTERS
from cosmetic.oracle import verify_families, verify_pairs


def _oracle_tree():
    source = resources.files("cosmetic").joinpath("oracle.py").read_text()
    return ast.parse(source)


def test_oracle_imports_only_math_the_error_the_direct_sum_and_filters():
    imports = set()
    for node in ast.walk(_oracle_tree()):
        if isinstance(node, ast.Import):
            imports.update((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "obstructions":  # the filters' own vocabulary
                imports.add((module, node.level))
            else:
                imports.update((f"{module}:{alias.name}", node.level)
                               for alias in node.names)
    assert imports == {("math:gcd", 0), (":CrossCheckError", 1),
                       ("dedekind:direct_numerator", 1),
                       ("obstructions", 1)}


def test_oracle_names_none_of_the_engines_tables_or_builders():
    names = set()
    for node in ast.walk(_oracle_tree()):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    engine_only = {"engine", "import_module", "__import__", "_Residues",
                   "scaled_dedekind_sum", "_fast_normalized", "_unit_squares",
                   "sum_text"}
    assert not names & engine_only
    assert not [name for name in names if name.endswith("_verdict")]


def test_one_verify_binding_for_engine_oracle_and_package():
    assert engine.verify_pairs is oracle.verify_pairs is cosmetic.verify_pairs
    assert (engine.verify_families is oracle.verify_families
            is cosmetic.verify_families)


def _trail(p, q, q_prime):
    # A self-consistent trail for any coordinates the engine accepts.
    return _evaluate(p, q, q_prime, SELECTABLE_FILTERS, _Residues(p))


@pytest.mark.parametrize("p, q, q_prime", [(5, 2, 2), (5, 7, 2), (1, 3, 3)],
                         ids=["same-slope", "q-above-q-prime", "p1-equal"])
def test_oracle_rejects_a_trail_that_is_not_a_slope_pair(p, q, q_prime):
    record = _trail(p, q, q_prime)
    with pytest.raises(CrossCheckError, match=(
            rf"^pair p={p} q={q} q'={q_prime}: not a pair p/q, p/q' with "
            r"integers p >= 1 and q < q'$")):
        verify_pairs([record], filters="all")
    with pytest.raises(CrossCheckError, match=r"^family .*: not a pair"):
        verify_families([record])


@pytest.mark.parametrize("field, value", [
    ("p", 0), ("p", -5), ("q", 1.0), ("q_prime", 2.0), ("p", 5.0),
    ("q", True),
])
def test_oracle_rejects_bad_coordinates_as_a_cross_check(field, value):
    record = _trail(5, 1, 2)._replace(**{field: value})
    with pytest.raises(CrossCheckError, match="not a pair p/q, p/q'"):
        verify_pairs([record])


def test_oracle_rejects_a_flag_it_cannot_hash():
    record = _trail(5, 1, 2)._replace(surviving=[False])
    with pytest.raises(CrossCheckError, match=(
            r"^pair p=5 q=1 q'=2: surviving flag \[False\] is not a "
            r"boolean$")):
        verify_pairs([record, record])
