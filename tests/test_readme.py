"""README's ``python`` code blocks run, and give the values their comments show."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def run_block(source: str) -> list:
    """Run one block statement by statement in a fresh namespace; the value
    of each expression statement, in order."""
    namespace, values = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return values


def check_bayes(values):
    (posterior,) = values
    assert repr(posterior) == "array([0.75, 0.25])"


def check_quantum(values):
    retro, posterior = values
    np.testing.assert_array_equal(retro.mat, [[1, 0], [0, 0]])
    assert posterior == 1.0


def check_bb84(values):
    row, rate = values
    np.testing.assert_allclose(row, [0.5, 0.0, 0.25, 0.25], atol=1e-12)
    # One seeded run of about 1000 same-basis slots: within 0.02 of 1/4.
    assert rate == pytest.approx(0.25, abs=0.02)


def check_synthesis(values):
    (state,) = values
    assert state.mat.shape == (201, 201)
    assert np.trace(state.mat).real == pytest.approx(1.0, abs=1e-12)


CHECKS = [check_bayes, check_quantum, check_bb84, check_synthesis]


def test_readme_has_one_check_per_code_block():
    assert len(code_blocks()) == len(CHECKS)


@pytest.mark.parametrize("index", range(len(CHECKS)),
                         ids=[check.__name__ for check in CHECKS])
def test_readme_code_block_shows_its_values(index):
    CHECKS[index](run_block(code_blocks()[index]))
