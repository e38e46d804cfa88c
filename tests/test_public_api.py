"""The public surface: every exported name resolves, and every number, count or
list a caller passes is answered or refused with a FredinfoError."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import fredinfo
from fredinfo import (CoefficientVector, EigenSystem, ExperimentConfig, FredinfoError,
                      GaussianChannel, NoiseLevel, NumericError, SpectrumModel, TrialStream,
                      VarianceRule, capacity_interval, component_information, constant_rule,
                      custom_rule, entropy_lower_bound, entropy_upper_bound, extremal_comparison,
                      forward_apply, gaussian_rule, geometric_rule, greedy_packing_count,
                      green_kernel, green_model, growth_orders, heat_model,
                      inverse_spectrum_rule, k0, k0_closed_form, lemma1_check,
                      max_message_length_log2, model_from_json, monte_carlo_mse,
                      nystrom_decompose, poisson_model, posterior_density_params, power_rule,
                      rule_from_json, tabulated_model, truncated_solution)
from fredinfo.spectra import spectrum_rows


def test_every_exported_name_resolves():
    namespace = {}
    exec("from fredinfo import *", namespace)
    assert all(name in namespace for name in fredinfo.__all__)
    for info in pkgutil.iter_modules(fredinfo.__path__):
        module = importlib.import_module(f"fredinfo.{info.name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, (info.name, missing)


def test_the_package_exports_exactly_the_modules_public_names():
    """``fredinfo.__all__`` is ``__version__`` plus each layer's ``__all__``, once each."""
    layers = ("errors", "spectra", "truncation", "metric", "channel", "harness")
    names = [name for layer in layers
             for name in importlib.import_module(f"fredinfo.{layer}").__all__]
    assert len(set(names)) == len(names)
    assert len(set(fredinfo.__all__)) == len(fredinfo.__all__) == 1 + len(names)
    assert set(fredinfo.__all__) == {"__version__", *names}


_HUGE = 2 ** 200
HOSTILE = (None, "0.5", True, False, np.bool_(True), [], [0.5], math.nan, math.inf, -math.inf,
           2.5, _HUGE, -1, 0, np.float64(0.5), np.int64(3), np.float32(math.nan))

_M, _P = green_model(k_max=8), poisson_model(0.5, 1.0, k_max=4)
_GEO, _ONE = geometric_rule(1.0, 0.5), constant_rule(1.0)
_CHANNEL = GaussianChannel(_M, _GEO, _ONE, 1e-3)
_F = CoefficientVector(_M, [0.5] + [0.0] * 7)
_CONFIG = {"model": {"kind": "green", "k_max": 8}, "epsilon_grid": [1e-2, 1e-3],
           "rho": {"kind": "geometric", "c": 1.0, "q": 0.5},
           "nu": {"kind": "constant", "c": 1.0}, "trials": 2, "seed": 3, "k_max": 8}

# (callable, positional arguments, keyword arguments)
CALLS = [
    (poisson_model, [0.5, 1.0], {"k_max": 4}),
    (heat_model, [1.0, 2.0, 1.0], {"k_max": 4}),
    (green_model, [], {"k_max": 4}),
    (tabulated_model, [[0.5, 0.25]], {"allow_ties": False, "k_max": 2}),
    (model_from_json, [{"kind": "poisson", "a": 0.5, "b": 1.0, "k_max": 4}], {}),
    (model_from_json, [{"kind": "tabulated", "values": [0.5, 0.25],
                        "multiplicities": [1, 2], "k_max": 2}], {}),
    (CoefficientVector, [_M, [0.5, 0.25]], {}),
    (CoefficientVector.from_components, [_P, [0.5, 0.25]], {}),
    (CoefficientVector.from_json, [{"model": {"kind": "green", "k_max": 8},
                                    "entries": [0.5, 0.25]}], {}),
    (CoefficientVector.from_json, [{"model": {"kind": "poisson", "a": 0.5, "b": 1.0},
                                    "complex": True,
                                    "entries": [[0.5, 0.0], [1.0, 0.5], [0.0, 0.0]]}], {}),
    (_F.entry, [2], {}),
    (_F.resized, [4], {}),
    (_M.eigenvalue, [2], {}),
    (_M.multiplicity, [2], {}),
    (_P.eigenfunction_value, [2, 0.5], {}),
    (spectrum_rows, [_P, 3], {}),
    (nystrom_decompose, [green_kernel, 8], {}),
    (nystrom_decompose(green_kernel, 8).eigenvalue, [2], {}),
    (NoiseLevel, [3.0], {"epsilon": 0.125}),
    (NoiseLevel.of, [0.1], {}),
    (k0, [_M, 1e-3], {}),
    (k0_closed_form, [_M, 1e-3], {}),
    (truncated_solution, [_M, forward_apply(_M, _F), 0.1], {}),
    (lemma1_check, [_M, _F, forward_apply(_M, _F), 0.1], {}),
    (entropy_lower_bound, [_P, 0.01], {"sided": "total"}),
    (entropy_upper_bound, [_P, 0.01], {"sided": "total"}),
    (capacity_interval, [_P, 0.01], {"sided": "total"}),
    (max_message_length_log2, [_P, 0.01], {"sided": "total"}),
    (growth_orders, [_M, [10.0 ** -p for p in range(2, 11)]], {}),
    (greedy_packing_count, [[1.0, 0.5], 0.4, 0.1], {}),
    (constant_rule, [1.0], {}),
    (geometric_rule, [1.0, 0.5], {}),
    (power_rule, [1.0, 1.0], {}),
    (gaussian_rule, [1.0, 0.5], {}),
    (inverse_spectrum_rule, [_M, 1e-9], {}),
    (custom_rule, [[1.0, 0.5]], {"tail_sum_sq": 0.1}),
    (rule_from_json, [{"kind": "custom", "values": [1.0, 0.5], "tail_sum_sq": 0.1}], {}),
    (rule_from_json, [{"kind": "inverse_spectrum", "delta0": 1e-9,
                       "model": {"kind": "green"}}], {}),
    (_GEO.value, [2], {}),
    (_GEO.sum_sq_tail, [2], {}),
    (GaussianChannel, [_M, _GEO, _ONE, 1e-3], {"k_max": 8}),
    (component_information, [_CHANNEL, 2], {}),
    (posterior_density_params, [_CHANNEL, 2, 0.01], {}),
    (extremal_comparison, [_M, 1e-3, "alpha"], {"k_max": 8}),
    (extremal_comparison, [_M, 1e-3, "beta"], {"k_max": 8}),
    (TrialStream, [1, 0], {}),
    (TrialStream(1, 0).prior_normals, [4], {}),
    (monte_carlo_mse, [_CHANNEL, 4, 7], {}),
    (ExperimentConfig.from_json, [_CONFIG], {}),
    (ExperimentConfig, [_M], {"epsilon_grid": (1e-2, 1e-3), "rho": _GEO, "nu": _ONE,
                              "trials": 2, "seed": 3, "k_max": 8, "sided": "total"}),
]

# Objects are not drawn over: a None, number or string in a model, vector, rule,
# channel, stream or config slot still ends in a bare AttributeError (CHANGES.md,
# FOUND: object slots).
_OBJECTS = (SpectrumModel, CoefficientVector, VarianceRule, GaussianChannel, TrialStream,
            EigenSystem, ExperimentConfig, NoiseLevel)


def _paths(value, path=()):
    """Where a hostile value can go inside ``value``: the value itself, the
    first and last entry of a list, each field of a JSON object, recursively."""
    if isinstance(value, _OBJECTS) or callable(value):
        return
    yield path
    if isinstance(value, (list, tuple)) and value:
        for i in sorted({0, len(value) - 1}):
            yield from _paths(value[i], path + (i,))
    elif isinstance(value, dict):
        for key in value:
            yield from _paths(value[key], path + (key,))


def _put(value, path, hostile):
    if not path:
        return hostile
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _put(value[path[0]], path[1:], hostile)
    return tuple(out) if isinstance(value, tuple) else out


def test_hostile_values_are_answered_or_refused():
    faults = []
    for call, args, kwargs in CALLS:
        call(*args, **kwargs)  # the valid call answers
        slots = [*enumerate(args), *kwargs.items()]
        for slot, valid in slots:
            for path in _paths(valid):
                for hostile in HOSTILE:
                    a, kw = list(args), dict(kwargs)
                    (a if isinstance(slot, int) else kw)[slot] = _put(valid, path, hostile)
                    try:
                        call(*a, **kw)
                    except FredinfoError:
                        pass
                    except Exception as exc:  # any other type is the fault
                        faults.append((call.__qualname__, slot, path, hostile, repr(exc)))
    assert not faults, "\n".join(map(str, faults))


@pytest.mark.parametrize("call", [
    lambda: _F.resized(2 ** 60),
    lambda: spectrum_rows(_P, 2 ** 60),
    lambda: nystrom_decompose(green_kernel, 2 ** 40),  # a 2**80-entry kernel matrix
    lambda: GaussianChannel(_M, _GEO, _ONE, 1e-3, k_max=2 ** 60),
    lambda: TrialStream(1, 0).noise_normals(2 ** 60),
    lambda: monte_carlo_mse(_CHANNEL, 2 ** 57, 7),  # trials x k_max = 2**60
], ids=["resized", "spectrum-rows", "nystrom", "channel", "normals", "monte-carlo"])
def test_sizes_past_what_numpy_can_address_are_numeric_errors(call):
    # refused before numpy's bare ValueError, with the exit code of a MemoryError
    with pytest.raises(NumericError, match="past what numpy can address"):
        call()
