import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import laxflow
from laxflow import (
    HardyVector,
    InitialProfile,
    RealSpectrum,
    Schedule,
    SchemeConfig,
    analyze_profile,
    make_schedule,
    run_scheme,
    sample_grid,
    truncate,
)
from laxflow.diagnostics import run_bound_suite


def test_all_names_exist_and_package_imports_only_public_names():
    for info in pkgutil.iter_modules(laxflow.__path__):
        module = importlib.import_module(f"laxflow.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    # every `from .module import ...` in the package's __init__
    tree = ast.parse(Path(laxflow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"laxflow.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in public]
        assert not stray, (node.module, stray)


def _ccm_output():
    return run_scheme(SchemeConfig("CCM-defocusing", make_schedule("constant", 4), [0.0],
                                   InitialProfile("square-wave")))


@pytest.mark.parametrize("call, error, message", [
    (lambda: HardyVector([[1.0, 2.0]]), ValueError, "coefficients must be one-dimensional"),
    (lambda: HardyVector([1.0, np.nan]), ValueError, "coefficients must be finite"),
    (lambda: RealSpectrum([1.0, 0.0], K=2), ValueError, "needs 2K-1 coefficients"),
    (lambda: RealSpectrum.from_hardy_part([1.0, 2.0, 3.0], K=2), ValueError,
     "more nonnegative modes than bandwidth K"),
    (lambda: truncate(HardyVector([1.0]), -1), ValueError,
     "truncation order must be nonnegative"),
    (lambda: sample_grid(HardyVector([1.0]), 0), ValueError, "grid parameter K must be >= 1"),
    (lambda: analyze_profile(InitialProfile("square-wave"), 0), ValueError,
     "bandwidth must be >= 1"),
    (lambda: analyze_profile(InitialProfile("single-mode", {"k0": -1}), 4, hardy=True),
     ValueError, "CCM single-mode data requires k0 >= 0"),
    (lambda: analyze_profile(InitialProfile("single-mode", {"k0": 0, "amplitude": 1j}), 4),
     ValueError, "a real field needs a real zero mode"),
    (lambda: analyze_profile(InitialProfile("explicit", {"coeffs": [1.0, 2.0, 3.0]}), 2),
     ValueError, "explicit coefficients exceed bandwidth"),
    (lambda: Schedule(2, "custom", [1]), ValueError, "schedule needs exactly K values"),
    (lambda: _ccm_output().time_index(0.5), KeyError, "time 0.5 was not computed"),
    (lambda: _ccm_output().real_spectrum(0.0), ValueError,
     "real_spectrum is only defined for BO output"),
    (lambda: run_bound_suite(analyze_profile(InitialProfile("square-wave"), 4), "BO", 4,
                             [1.0], [1]), ValueError, "M must be >= 8"),
])
def test_rejects_what_it_cannot_honour(call, error, message):
    with pytest.raises(error, match=message):
        call()
