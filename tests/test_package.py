"""The top-level API: ``ghzcert`` re-exports each module's ``__all__``."""

import ghzcert
from ghzcert import constructions, hidden_variables, operators, phases, states

MODULES = (constructions, hidden_variables, operators, phases, states)


def test_top_level_reexports_each_module_api():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(ghzcert.__all__)) == len(ghzcert.__all__)
    assert ghzcert.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ghzcert, name) is getattr(module, name), name
    assert ghzcert.DEFAULT_BRUTE_CAP == 10**6
    # a helper of the package's own modules, not public API
    assert "as_turns" not in ghzcert.__all__
    assert not hasattr(ghzcert, "as_turns")
