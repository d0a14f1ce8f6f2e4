import inspect

import oracles
import ramdea


def exported():
    return {name: getattr(ramdea, name) for name in ramdea.__all__}


def test_every_exported_exception_derives_from_the_package_base():
    errors = {name: obj for name, obj in exported().items()
              if inspect.isclass(obj) and issubclass(obj, BaseException)}
    assert "RamdeaError" in errors
    for name, error in errors.items():
        assert issubclass(error, ramdea.RamdeaError), name


def test_no_test_oracle_is_exported():
    own = {name for name, obj in vars(oracles).items()
           if callable(obj) and getattr(obj, "__module__", None) == oracles.__name__}
    assert "oracle_grs" in own
    assert not own & set(ramdea.__all__)
    assert not any(hasattr(module, name) for name in own
                   for module in (ramdea, ramdea.grs, ramdea.rts))


def test_package_exports_every_module_export():
    modules = (ramdea.lp, ramdea.dea, ramdea.grs, ramdea.rts, ramdea.reporting)
    assert set(ramdea.__all__) == set().union(*(module.__all__ for module in modules))
