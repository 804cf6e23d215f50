"""The public API's signatures: the numerical tolerances are fixed in
``qretrodict.errors``, so no public callable takes one."""

import inspect

import qretrodict
from qretrodict import retrodict

TOLERANCE_PARAMETERS = {"tol", "trace_tol"}
STACK_CLASSES = (retrodict.OperatorStack, retrodict.Pom, retrodict.PreparationPom,
                 retrodict.BiasedElements, retrodict.PreparationEnsemble)


def parameters(obj) -> set:
    try:
        return set(inspect.signature(obj).parameters)
    except ValueError:  # an exception class, whose constructor is builtin
        return set()


def test_no_public_callable_takes_a_tolerance():
    named = {name: getattr(qretrodict, name) for name in qretrodict.__all__
             if callable(getattr(qretrodict, name))}
    for cls in STACK_CLASSES:
        named.update((f"{cls.__name__}.{name}", member)
                     for name, member in inspect.getmembers(cls, callable)
                     if not name.startswith("_"))
    assert len(named) > 50
    assert [name for name, obj in named.items()
            if TOLERANCE_PARAMETERS & parameters(obj)] == []
