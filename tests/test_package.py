"""The top-level package re-exports each module's public names."""
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
