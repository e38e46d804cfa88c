"""Independent closed forms the benchmark checks the program against.

Pure Python (``math`` only), written from the formulas in the package
documentation rather than from its code, so a check never relies on the
library's own answers.  The input generator uses the same formulas to keep
every generated sweep inside the regime where it must succeed.
"""

from __future__ import annotations

import math

LOG2_6 = math.log2(6.0)
HALF_LN2 = 0.5 * math.log(2.0)


def eigenvalue(model: dict, k: int) -> float:
    if model["kind"] == "poisson":
        return (model["a"] / model["b"]) ** k
    if model["kind"] == "heat":
        return math.exp(-model["D"] * (model["a"] - model["b"]) * k * k)
    if model["kind"] == "green":
        return 1.0 / (k * k * math.pi ** 2)
    return model["values"][k - 1]


def k0_closed_form(model: dict, eps: float | None, L: float) -> int:
    """Largest k with ``lambda_k >= eps``; ``L = log2(1/eps)`` always given."""
    kind = model["kind"]
    if kind == "poisson":
        return max(0, math.floor(L / math.log2(model["b"] / model["a"])))
    if kind == "heat":
        t = L * math.log(2.0) / (model["D"] * (model["a"] - model["b"]))
        return math.floor(math.sqrt(t)) if t >= 0 else 0
    if eps is not None:
        return max(0, math.floor(1.0 / (math.pi * math.sqrt(eps))))
    return max(0, math.floor(2.0 ** (L / 2.0) / math.pi))


def hurwitz_zeta(s: float, a: float) -> float:
    """``sum_{k>=0} (k + a)^-s`` for ``s > 1``, by Euler-Maclaurin (rel. err < 1e-14)."""
    n = 12
    head = math.fsum((a + k) ** -s for k in range(n))
    x = a + n
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    # Bernoulli terms B_2j / (2j)! * s (s+1) ... (s+2j-2) * x^(-s-2j+1)
    coef = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
    poch = s
    for j, c in enumerate(coef, start=1):
        tail += c * poch * x ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


def rule_value(rule: dict, k: int) -> float:
    kind = rule["kind"]
    if kind == "constant":
        return rule["c"]
    if kind == "geometric":
        return rule["c"] * rule["q"] ** k
    if kind == "power":
        return rule["c"] * k ** -rule["p"]
    return rule["c"] * math.exp(-rule["s"] * k * k)


def rule_tail_sq(rule: dict, m: int) -> float:
    """``sum_{k>m} sigma_k^2`` for the trace-class rules."""
    kind = rule["kind"]
    c2 = rule["c"] ** 2
    if kind == "geometric":
        q2 = rule["q"] ** 2
        return c2 * q2 ** (m + 1) / (1.0 - q2)
    if kind == "power":
        return c2 * hurwitz_zeta(2.0 * rule["p"], m + 1.0)
    terms = []
    k = m + 1
    while True:
        term = math.exp(-2.0 * rule["s"] * k * k)
        terms.append(term)
        if term < 1e-320 or term < 1e-18 * sum(terms):
            return c2 * math.fsum(terms)
        k += 1


def channel(model: dict, rho: dict, nu: dict, eps: float, k_max: int) -> dict:
    """Informative count, closed-form risk, information and the per-trial
    variance of the Monte-Carlo risk statistic, for one noise level."""
    k_I = 0
    dropped, inverted, exact, approx, var = [], [], [], [], []
    for k in range(1, k_max + 1):
        lam, r, n = eigenvalue(model, k), rule_value(rho, k), rule_value(nu, k)
        if lam * r >= eps * n:
            k_I += 1
            ratio = lam * r / (eps * n)
            exact.append(0.5 * math.log1p(ratio * ratio) if ratio <= 1.0 else
                         math.log(ratio) + 0.5 * math.log1p(1.0 / (ratio * ratio)))
            approx.append(math.log(ratio))
            sigma2 = (eps * n / lam) ** 2
            inverted.append(sigma2)
        else:
            sigma2 = r * r
            dropped.append(sigma2)
        var.append(2.0 * sigma2 * sigma2)
    tail = rule_tail_sq(rho, k_max)
    return {"k_I": k_I,
            "mse": math.fsum(dropped) + tail + math.fsum(inverted),
            "exact": math.fsum(exact), "approx": math.fsum(approx),
            "var": math.fsum(var)}
