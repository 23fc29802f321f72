"""The top-level package re-exports each module's public names."""
import inspect
import re

import iontrack
from iontrack import analysis, atomphys, config, estimator, lineshape, simulator


def test_all_is_the_module_lists():
    expected = ["__version__"]
    for module in (atomphys, lineshape, estimator, simulator, analysis, config):
        expected += module.__all__
    assert iontrack.__all__ == expected
    assert len(set(iontrack.__all__)) == len(iontrack.__all__)


def test_every_export_resolves():
    for name in iontrack.__all__:
        assert getattr(iontrack, name) is not None, name


# an identifier, or an attribute of one, that starts with an underscore
PRIVATE_NAME = re.compile(r"\b_\w*")


def _public_callables():
    """(name, function) of every exported function and of the constructor
    and public methods and properties of every exported class."""
    for name in iontrack.__all__:
        obj = getattr(iontrack, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_public_signature_names_a_private_type():
    checked = 0
    for name, fn in _public_callables():
        signature = inspect.signature(fn)
        for annotation in [p.annotation for p in signature.parameters.values()] + \
                [signature.return_annotation]:
            if annotation is not inspect.Signature.empty:
                assert not PRIVATE_NAME.search(str(annotation)), (name, annotation)
                checked += 1
    assert checked > 100


def test_only_the_field_owners_take_a_variant():
    # The Breit-Rabi variant is a field of IonSpecies, set from the
    # [tracking] key of RunConfig; no function takes it as an argument.
    takers = {name for name, fn in _public_callables()
              if "variant" in inspect.signature(fn).parameters}
    assert takers == {"IonSpecies.__init__", "RunConfig.__init__"}
