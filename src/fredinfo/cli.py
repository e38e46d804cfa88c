"""Command line front end.

Subcommands::

    eigens       print a spectrum prefix
    truncate     cutoff index / spectral-cutoff estimate from data
    capacity     entropy/capacity sandwich at a noise level
    metric-info  growth-order fits over a noise grid (or a packing count)
    prob-info    Gaussian-channel information summary
    simulate     run a sweep config, write CSV + metadata sidecar
    table        growth-order summary of the three reference spectra

Noise levels accept plain decimals (``--epsilon 1e-3``) or exact binary
exponents (``--epsilon pow2:-64`` meaning ``2**-64``); the exponent form
stays finite far below float range for the log-domain commands.  Exit codes:
0 success, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import __version__
from .channel import (RULES, GaussianChannel, component_information, extremal_comparison,
                      k_alpha, mse_closed_form, rule_from_json, total_information)
from .errors import NumericError, ValidationError
from .harness import ExperimentConfig, convergence_sweep, reproduce_summary_table
from .metric import (_SIDED, capacity_interval, greedy_packing_count, growth_orders,
                     max_message_length_log2)
from .spectra import (FAMILIES, CoefficientVector, SpectrumModel, csv_text,
                      model_from_json, spectrum_rows)
from .truncation import NoiseLevel, k0, k0_closed_form, truncated_solution

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Argument coercion
# ---------------------------------------------------------------------------


def parse_epsilon(text: str) -> NoiseLevel:
    """The noise level ``text`` names: a decimal, or ``pow2:-N`` for ``2**-N``.

    ``pow2:-N`` becomes ``NoiseLevel(N)``, so the log-domain paths never form
    the (possibly underflowing) float.
    """
    text = text.strip()
    if text.startswith("pow2:"):
        try:
            exp = float(text[5:])
        except ValueError:
            raise ValidationError(f"bad pow2 exponent in {text!r}")
        return NoiseLevel(-exp)
    try:
        eps = float(text)
    except ValueError:
        raise ValidationError(
            f"bad epsilon {text!r}: use a decimal or pow2:<exponent>")
    return NoiseLevel.of(eps)


def _floats(text: str, what: str) -> list[float]:
    """Comma-separated numbers; a malformed entry is a ValidationError."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} takes comma-separated numbers, got {text!r}") from None


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def parse_model(spec: str | None, json_path: str | None) -> SpectrumModel:
    """Model syntax ``kind:key=value,...`` (e.g. ``poisson:a=0.5,b=1``).

    The parameters are read exactly as a model JSON object would be, so
    integral values (``k_max=32``) stay integers and the model codec refuses
    anything the family does not take.
    """
    if (spec is None) == (json_path is None):
        raise ValidationError("give exactly one of --model or --model-json")
    if json_path is not None:
        return model_from_json(_read_json(json_path))
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValidationError(f"bad model parameter {item!r} (use key=value)")
            try:
                num = float(val)
            except ValueError:
                raise ValidationError(f"bad numeric value in {item!r}")
            params[key.strip()] = int(num) if num.is_integer() else num
    return model_from_json({"kind": kind, **params})


def parse_rule(spec: str, model: SpectrumModel):
    """Variance-rule syntax ``kind:v1[,v2]`` (e.g. ``geometric:1,0.5``).

    The numbers fill the rule's parameters in order, and the rule is read as
    its JSON form, with the model alongside for a rule that takes one
    (``inverse_spectrum``).
    """
    kind, _, rest = spec.partition(":")
    if kind not in RULES:
        raise ValidationError(
            f"unknown variance rule {kind!r}: expected one of {sorted(RULES)}")
    names = RULES[kind].names
    vals = _floats(rest, f"rule {kind!r}") if rest else []
    if len(vals) > len(names):
        raise ValidationError(
            f"rule {kind!r} takes {len(names)} parameter(s) {names}, got {len(vals)}")
    obj = {"kind": kind, **dict(zip(names, vals))}
    if "model" in RULES[kind].more:
        obj["model"] = model.to_json()
    return rule_from_json(obj)


def _load_vector(path: str, model: SpectrumModel) -> CoefficientVector:
    vec = CoefficientVector.from_json(_read_json(path))
    if vec.model != model:
        raise ValidationError(f"vector in {path} was written for a different model")
    return vec


def _refuse_unread(args, flags, why: str) -> None:
    """Refuse each of the ``flags`` that is set: the chosen mode does not read
    it, and ``why`` names the flag that chose the mode."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValidationError(f"{flag} {why}")


def _emit(fmt: str, record, columns=None, rows=None) -> None:
    """Print ``record`` as JSON, or as CSV: the header ``columns`` (by default the
    first row's names), then each of ``rows`` (by default the record alone) with
    its values under those names."""
    if fmt == "json":
        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    rows = [record] if rows is None else rows
    columns = list(rows[0]) if columns is None else columns
    sys.stdout.write(csv_text(columns, ([row[name] for name in columns] for row in rows)))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eigens(args) -> int:
    model = parse_model(args.model, args.model_json)
    rows = spectrum_rows(model, args.k_hi)
    _emit(args.format, {"model": model.to_json(), "rows": rows}, rows=rows)
    return 0


def _cmd_truncate(args) -> int:
    if args.data is None:
        _refuse_unread(args, ["--reference"], "is read only with --data")
    model = parse_model(args.model, args.model_json)
    level = parse_epsilon(args.epsilon)
    if args.data is None:
        cut = k0(model, level)
        try:
            closed = k0_closed_form(model, level)
        except ValidationError:
            closed = None  # tabulated spectra have no closed form
        _emit(args.format, {"epsilon": args.epsilon, "k0": cut, "k0_closed_form": closed})
        return 0
    eps = level.require_epsilon("truncating data")
    data = _load_vector(args.data, model)
    reference = _load_vector(args.reference, model) if args.reference else None
    report = truncated_solution(model, data, eps, reference)
    entries = map(complex, report.f_star.entries)
    rows = [{"k": k, "real": z.real, "imag": z.imag}
            for k, z in zip(report.f_star.indices, entries)]
    _emit(args.format, report.to_json(), rows=rows)
    return 0


def _cmd_capacity(args) -> int:
    model = parse_model(args.model, args.model_json)
    level = parse_epsilon(args.epsilon)
    bounds = capacity_interval(model, level, sided=args.sided)
    logl = max_message_length_log2(model, level, sided=args.sided)
    # the CSV row shortens two names and keeps the level as typed
    row = {"epsilon": args.epsilon, "k0": bounds.k0_eps, "k0_quarter": bounds.k0_eps_over_4,
           "lower_bits": bounds.lower_bits, "upper_bits": bounds.upper_bits, "logL_max": logl}
    _emit(args.format, {**bounds.to_json(), "logL_max": logl}, rows=[row])
    return 0


def _cmd_metric_info(args) -> int:
    if args.packing_axes is not None:
        _refuse_unread(args, ["--model", "--model-json", "--grid-eps", "--grid-log2"],
                       "is not read with --packing-axes")
        if args.epsilon is None or args.step is None:
            raise ValidationError("--packing-axes needs --epsilon and --step")
        axes = _floats(args.packing_axes, "--packing-axes")
        eps = parse_epsilon(args.epsilon).require_epsilon("packing counts")
        count = greedy_packing_count(axes, eps, args.step)
        _emit(args.format, {"semi_axes": axes, "epsilon": eps,
                            "grid_step": args.step, "count": count},
              ("epsilon", "grid_step", "count"))
        return 0
    _refuse_unread(args, ["--epsilon", "--step"], "is read only with --packing-axes")
    model = parse_model(args.model, args.model_json)
    if args.grid_eps is not None:
        _refuse_unread(args, ["--grid-log2"], "is not read with --grid-eps")
        est = growth_orders(model, _floats(args.grid_eps, "--grid-eps"))
    elif args.grid_log2 is not None:
        exps = _floats(args.grid_log2, "--grid-log2")
        est = growth_orders(model, [NoiseLevel(L) for L in exps])
    else:
        raise ValidationError("give one of --grid-eps, --grid-log2 or --packing-axes")
    _emit(args.format, est.to_json(),
          ("lambda_hat", "mu_hat", "rho_hat", "sigma_hat", "d_c", "d_c_exp"))
    return 0


def _cmd_prob_info(args) -> int:
    model = parse_model(args.model, args.model_json)
    level = parse_epsilon(args.epsilon)

    if args.extremal is not None:
        _refuse_unread(args, ["--rho", "--nu"], "is not read with --extremal")
        cmp = extremal_comparison(model, level, args.extremal, k_max=args.k_max)
        _emit(args.format, cmp.to_json(), ("case", "epsilon", "k0", "k_I", "exact_nats",
                                           "approx_nats", "reference_nats"))
        return 0

    if args.rho is None or args.nu is None:
        raise ValidationError("prob-info needs --rho and --nu (or --extremal)")
    rho = parse_rule(args.rho, model)
    nu = parse_rule(args.nu, model)
    chan = GaussianChannel(model, rho, nu, level, k_max=args.k_max)
    info = total_information(chan)
    trace = rho.is_trace_class
    summary = {
        "epsilon": level.reported,
        "k_max": chan.k_max,
        "k_I": chan._rows.k_I(0),  # partition_IN's count, without its label tuples
        "k_alpha": k_alpha(chan) if trace else None,
        "mse": mse_closed_form(chan) if trace else None,
        "exact_nats": info.exact_nats,
        "approx_nats": info.approx_nats,
    }
    if args.format == "json":
        summary["components"] = [component_information(chan, int(k)).to_json()
                                 for k in range(1, chan.k_max + 1)]
    _emit(args.format, summary,
          ("epsilon", "k_I", "k_alpha", "mse", "exact_nats", "approx_nats"))
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json(_read_json(args.config))
    env_seed = os.environ.get("FREDINFO_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"FREDINFO_SEED must be an integer, got {env_seed!r}")
        config = dataclasses.replace(config, seed=seed)
    result = convergence_sweep(config)
    if args.out is not None:
        csv_path, meta_path = result.write(args.out)
        sys.stdout.write(f"wrote {csv_path}\nwrote {meta_path}\n")
    else:
        sys.stdout.write(result.to_csv())
    for v in result.violations:
        sys.stderr.write(f"monotonicity violation: {v}\n")
    return 0


def _cmd_table(args) -> int:
    rows = [vars(r) for r in reproduce_summary_table()]
    _emit(args.format, rows, rows=rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    specs = (f"{kind}:{','.join(f'{name}=...' for name in family.names)}".rstrip(":")
             for kind, family in FAMILIES.items())
    p.add_argument("--model", help=" | ".join(specs)
                   + " (optional k_max=N; list values need --model-json)")
    p.add_argument("--model-json", help="path to a model JSON file (any kind)")


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fredinfo",
        description="Spectral-cutoff regularization and information budgets "
                    "for compact self-adjoint operator equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigens", help="print a spectrum prefix")
    _add_model_args(p)
    p.add_argument("--k-hi", type=int, required=True, help="largest index to print")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_eigens)

    p = sub.add_parser("truncate", help="cutoff index / cutoff estimate from data")
    _add_model_args(p)
    p.add_argument("--epsilon", required=True, help="decimal or pow2:<exponent>")
    p.add_argument("--data", help="JSON file with observed coefficients")
    p.add_argument("--reference", help="JSON file with the true coefficients")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("capacity", help="entropy/capacity sandwich at a noise level")
    _add_model_args(p)
    p.add_argument("--epsilon", required=True, help="decimal or pow2:<exponent>")
    p.add_argument("--sided", choices=_SIDED, default="one_sided")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("metric-info",
                       help="growth-order fits over a noise grid, or a packing count")
    _add_model_args(p)
    p.add_argument("--grid-eps", help="comma-separated decreasing epsilons")
    p.add_argument("--grid-log2", help="comma-separated increasing log2(1/eps)")
    p.add_argument("--packing-axes", help="comma-separated ellipsoid semi-axes")
    p.add_argument("--epsilon", help="separation (packing mode)")
    p.add_argument("--step", type=float, help="grid step (packing mode)")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_metric_info)

    p = sub.add_parser("prob-info", help="Gaussian-channel information summary")
    _add_model_args(p)
    p.add_argument("--epsilon", required=True, help="decimal or pow2:<exponent>")
    p.add_argument("--rho", help="prior rule, e.g. geometric:1,0.5")
    p.add_argument("--nu", help="noise-shape rule, e.g. constant:1")
    p.add_argument("--k-max", type=int, help="number of channel components")
    p.add_argument("--extremal", choices=("alpha", "beta"),
                   help="use a built-in extremal prior instead of --rho/--nu")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_prob_info)

    p = sub.add_parser("simulate", help="run a sweep config, write CSV + metadata")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", help="output base path (writes .csv and .meta.json)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table", help="growth-order summary of the reference spectra")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_table)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: nothing mutates it after it is built."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NumericError, AssertionError, MemoryError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
