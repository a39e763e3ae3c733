"""The sites of the by-hand mutation script (``tests/mutation.py``)."""

import ast
from pathlib import Path

import pytest

from mutation import mutants

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qotp"

SMALL_MODULE = '''X = 1


def f(a):
    """doc"""
    if a > 0:
        return a
    pass


class C:
    y = 2
'''


# the script compiles every mutant before it runs one; this checks one module
@pytest.mark.parametrize("operators", [False, True], ids=["statements", "operators"])
def test_every_mutant_of_a_module_parses_and_changes_it(operators):
    source = (PACKAGE / "keystore.py").read_text()
    for _, change, mutated in mutants(source, operators):
        assert mutated != source, change
        ast.parse(mutated)


def test_function_and_class_bodies_are_mutated_and_nothing_else():
    found = mutants(SMALL_MODULE)
    assert [(line, change) for line, change, _ in found] == [
        (6, "statement -> pass"), (6, "if test -> False"), (6, "if test -> True"),
        (7, "statement -> pass"), (12, "statement -> pass"),
    ]
    assert found[0][2].splitlines()[5] == "    pass"
    assert found[1][2].splitlines()[5:7] == ["    if False:", "        return a"]
    assert found[4][2].splitlines()[-1] == "    pass"


def test_an_operator_mutant_swaps_one_operator_or_moves_one_constant():
    # the annotations, never evaluated, are left alone
    source = "X = 1\n\n\ndef g(a: int | None, b) -> int | None:\n    a += 1\n    return 0 <= a < b * 2\n"
    found = {(line, change): mutated.splitlines()[line - 1]
             for line, change, mutated in mutants(source, operators=True)}
    assert found == {
        (5, "Add -> Sub"): "    a -= 1",
        (5, "1 -> 2"): "    a += (2)",
        (5, "1 -> 0"): "    a += (0)",
        (6, "LtE -> Lt"): "    return (0 < a < b * 2)",
        (6, "Lt -> LtE"): "    return (0 <= a <= b * 2)",
        (6, "0 -> 1"): "    return (1) <= a < b * 2",
        (6, "0 -> -1"): "    return (-1) <= a < b * 2",
        (6, "Mult -> Div"): "    return 0 <= a < (b / 2)",
        (6, "2 -> 3"): "    return 0 <= a < b * (3)",
        (6, "2 -> 1"): "    return 0 <= a < b * (1)",
    }
