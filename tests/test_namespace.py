"""The package namespace re-exports the library modules' public names."""

import inspect

import pseudoherm
from pseudoherm import evolution, exceptions, spectral, spin_rotation, symmetry


def test_namespace_matches_modules():
    for module in (evolution, exceptions, spectral, spin_rotation, symmetry):
        for name in module.__all__:
            assert name in pseudoherm.__all__, (module.__name__, name)
            assert getattr(pseudoherm, name) is getattr(module, name)
    errors = [name for name, obj in vars(exceptions).items()
              if inspect.isclass(obj) and issubclass(obj, pseudoherm.PseudohermError)]
    assert errors and set(errors) <= set(pseudoherm.__all__)
    assert all(hasattr(pseudoherm, name) for name in pseudoherm.__all__)
    # removed names stay removed
    for name in ("EvolutionOperator", "propagate", "diagonalize", "Intertwiner"):
        assert name not in pseudoherm.__all__ and not hasattr(pseudoherm, name)
    for module in (evolution, exceptions, spectral, spin_rotation, symmetry):
        assert not hasattr(module, "Intertwiner"), module.__name__
