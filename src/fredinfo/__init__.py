"""Information budgets for ill-posed operator equations.

Given a compact self-adjoint operator with known eigenvalue decay and data
accurate to ``eps``, this package answers two questions about the first-kind
equation ``A f = g``:

* **metrically** — how many bits does an ``eps``-accurate description of the
  recoverable part of ``f`` take (entropy/capacity sandwich, cutoff growth
  orders)?
* **probabilistically** — with a Gaussian prior on the coefficients and
  Gaussian observation noise, how much information do the observations carry
  per component, which components are worth keeping, and what is the
  resulting mean-square risk?

Both views rest on the same spectral-cutoff rule: keep coefficient ``k``
while ``lambda_k >= eps``.
"""

from .errors import (FredinfoError, InconclusiveError, NumericError,
                     PreconditionError, UnsupportedError, ValidationError)
from .spectra import (DEFAULT_K_MAX, CoefficientVector, EigenSystem,
                      SpectrumModel, forward_apply,
                      green_kernel, green_model, heat_model, model_from_json,
                      model_to_json, nystrom_decompose, poisson_model,
                      tabulated_model)
from .truncation import (BoundCheck, Lemma1Report, NoiseLevel,
                         TruncationReport, k0, k0_closed_form, lemma1_check,
                         truncated_solution)
from .metric import (CapacityBounds, FitDiagnostics, GrowthEstimate,
                     capacity_interval, entropy_lower_bound,
                     entropy_upper_bound, greedy_packing_count, growth_orders,
                     max_message_length_log2)
from .channel import (ComponentInfo, ExtremalComparison, GaussianChannel,
                      Partition, PosteriorParams, TotalInformation,
                      VarianceRule, component_information, constant_rule,
                      custom_rule, extremal_comparison, gaussian_rule,
                      geometric_rule, inverse_spectrum_rule, k_alpha,
                      mse_closed_form, partition_IN, posterior_density_params,
                      posterior_estimate, power_rule, rule_from_json,
                      rule_to_json, total_information)
from .harness import (ExperimentConfig, ExperimentResult, MonteCarloResult,
                      SummaryRow, TrialStream, convergence_sweep,
                      monte_carlo_mse, reproduce_summary_table,
                      simulate_channel, synthesize_solution)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FredinfoError", "ValidationError", "PreconditionError",
    "UnsupportedError", "NumericError", "InconclusiveError",
    # spectra
    "SpectrumModel", "CoefficientVector", "EigenSystem", "DEFAULT_K_MAX",
    "poisson_model", "heat_model", "green_model", "tabulated_model",
    "forward_apply", "nystrom_decompose", "green_kernel",
    "model_to_json", "model_from_json",
    # truncation
    "NoiseLevel", "k0", "k0_closed_form", "TruncationReport",
    "truncated_solution", "BoundCheck", "Lemma1Report", "lemma1_check",
    # metric
    "entropy_lower_bound", "entropy_upper_bound", "CapacityBounds",
    "capacity_interval", "max_message_length_log2", "FitDiagnostics",
    "GrowthEstimate", "growth_orders", "greedy_packing_count",
    # channel
    "VarianceRule", "constant_rule", "geometric_rule", "power_rule",
    "gaussian_rule", "inverse_spectrum_rule", "custom_rule", "rule_to_json",
    "rule_from_json", "GaussianChannel", "ComponentInfo",
    "component_information", "Partition", "partition_IN",
    "posterior_estimate", "PosteriorParams", "posterior_density_params",
    "mse_closed_form", "k_alpha", "TotalInformation", "total_information",
    "ExtremalComparison", "extremal_comparison",
    # harness
    "TrialStream", "synthesize_solution", "simulate_channel",
    "MonteCarloResult", "monte_carlo_mse", "ExperimentConfig",
    "ExperimentResult", "convergence_sweep", "SummaryRow",
    "reproduce_summary_table",
]
