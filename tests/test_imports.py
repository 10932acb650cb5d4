"""Each package loads only the layers its caller touches.

Package ``__init__``s re-export their names lazily (PEP 562, through
:mod:`repro._lazy`), the macro-model regression imports numpy on its
first fit or prediction, and the farm's run path never reaches the
explorer.  The hygiene checks run in fresh interpreters with every
``REPRO_*`` variable scrubbed, so nothing the suite already imported
(or an environment default such as a fast mpn backend) can mask a
regression; the public-name checks pin that laziness changed no name.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = ("repro", "repro.costs", "repro.crypto", "repro.explore",
                 "repro.farm", "repro.isa", "repro.macromodel", "repro.obs",
                 "repro.ssl")


def loaded_after(code: str, watched) -> list:
    """Run ``code`` in a fresh interpreter; the sorted names among
    ``watched`` it left in ``sys.modules``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(m for m in {list(watched)!r}
                                if m in sys.modules)))
    """)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


FARM_RUN = """
    import repro.farm
    from repro.costs import PlatformCosts
    base = PlatformCosts(name="base", rsa_public_cycles=2e6,
                         rsa_private_cycles=4e7,
                         cipher_cycles_per_byte=150.0,
                         hash_cycles_per_byte=40.0)
    optimized = PlatformCosts(name="optimized", rsa_public_cycles=4e5,
                              rsa_private_cycles=8e6,
                              cipher_cycles_per_byte=30.0,
                              hash_cycles_per_byte=40.0)
    specs = repro.farm.build_farm(4, base, optimized)
    requests = repro.farm.generate_requests(
        repro.farm.TrafficProfile(arrival_rate=200.0,
                                  resumption_ratio=0.4), 60, seed=1)
    run = repro.farm.run_farm(repro.farm.FarmConfig(
        specs=tuple(specs), scheduler="preferential",
        requests=tuple(requests)))
    assert run.metrics.completed == 60, run.metrics.completed
"""


class TestImportHygiene:
    def test_farm_run_loads_no_explorer_numpy_or_services(self):
        watched = ("numpy", "repro.explore", "repro.macromodel.characterize",
                   "repro.farm.serve", "repro.obs.dashboard", "http.server",
                   "concurrent.futures.process", "multiprocessing")
        assert loaded_after(FARM_RUN, watched) == []

    def test_iss_modexp_loads_no_numpy(self):
        code = """
            from repro.isa.kernels.modexp_kernel import ModExpKernel
            result, cycles, _ = ModExpKernel(8, 8).powm(5, 17, 1000003)
            assert result == pow(5, 17, 1000003) and cycles > 0
        """
        assert loaded_after(code, ("numpy",)) == []

    def test_bare_import_loads_no_numpy(self):
        assert loaded_after("import repro", ("numpy", "repro.platform")) == []

    def test_fit_loads_numpy(self):
        # Positive control: the watch list really sees a lazy import.
        code = """
            from repro.macromodel.regression import fit_form
            assert fit_form([(1, 2.0), (2, 4.0)], "affine").coeffs
        """
        assert loaded_after(code, ("numpy",)) == ["numpy"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestPublicNames:
    def test_every_name_resolves_to_its_defining_object(self, name):
        package = importlib.import_module(name)
        for attr in package.__all__:
            if attr == "__version__":
                continue
            value = getattr(package, attr)
            # Resolved once, then a plain attribute of the package.
            assert vars(package).get(attr) is value, (name, attr)
            if getattr(value, "__name__", None) == attr:
                # Classes and functions: the module that defines them.
                defining = importlib.import_module(value.__module__)
                assert getattr(defining, attr) is value, (name, attr)
            # Constants and instances: some plain module binds the very
            # object (a re-export never copies).
            owners = [mod for mod in list(sys.modules.values())
                      if getattr(mod, "__name__", "").startswith("repro.")
                      and not hasattr(mod, "__path__")
                      and vars(mod).get(attr) is value]
            assert owners, (name, attr)

    def test_star_import_binds_all(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr), (name, attr)

    def test_unknown_name_raises_naming_the_module(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            getattr(package, "no_such_name")


def test_dir_lists_all_before_any_name_resolves():
    # In this process the tests above have resolved (and cached) every
    # name already, so dir() is checked in a fresh one.
    code = f"""
        import importlib
        for name in {LAZY_PACKAGES!r}:
            package = importlib.import_module(name)
            missing = set(package.__all__) - set(dir(package))
            assert not missing, (name, sorted(missing))
    """
    assert loaded_after(code, ()) == []


def test_crypto_submodule_import_still_yields_the_module():
    from repro.crypto import sha1
    assert sha1 is sys.modules["repro.crypto.sha1"]
    assert callable(sha1.sha1)


def test_readme_top_level_import_in_fresh_process():
    code = """
        from repro import SecurityPlatform
        assert SecurityPlatform.__name__ == "SecurityPlatform"
    """
    assert loaded_after(code, ("repro.platform",)) == ["repro.platform"]
