"""Numeric Brill-Noether predicates and stratification windows.

Everything here is exact integer arithmetic; inequalities with rational
bounds are evaluated by cross-multiplication so boundary cases are decided
correctly.
"""

import csv
import io
import json


def rho(g, r, d):
    """Brill-Noether number g - (r+1)(g-d+r)."""
    if g < 2 or r < 0 or d < 1:
        raise ValueError("need g >= 2, r >= 0, d >= 1")
    return g - (r + 1) * (g - d + r)


def wn_smoothness_predicates(g, n):
    """Smoothness regime of the degree-n Abel-Jacobi image.

    always_singular: every curve of genus g has a singular W_n, which holds
    exactly when 2n >= g + 2; otherwise the generic curve has W_n smooth.
    """
    if not 1 <= n <= g - 1:
        raise ValueError(f"n = {n} out of range 1..{g - 1}")
    always = 2 * n >= g + 2
    return {"always_singular": always, "generically_smooth": not always}


def seed_windows(g, n, k):
    """Inequality windows governing existence of g^k_(n+k) configurations.

    All bounds are evaluated in integers:
      generic_existence    rho(g,k,n+k) >= 0, i.e. k*g <= (k+1)*n
      scarce_existence     k*g > (k+1)*n and (k+1)*n >= (k-1)*g + 3
      open_dense_window    (k+2)*n < (k+1)*g and k*g <= (k+1)*n
      positive_codim_window  k*g > (k+1)*n and the refined degree bound
                           (k*g <= (k+2)*n - 2, or - 3 when n+k+1 = g-1)
      multiple_locus_generic  g <= 2n (the multiple locus is nonempty for
                           every non-hyperelliptic curve)
    """
    if not 1 <= k <= n <= g - 1:
        raise ValueError(f"(g, n, k) = ({g}, {n}, {k}) out of range")
    generic = k * g <= (k + 1) * n
    scarce = (k * g > (k + 1) * n) and ((k + 1) * n >= (k - 1) * g + 3)
    open_dense = ((k + 2) * n < (k + 1) * g) and generic
    if n + k + 1 == g - 1:
        refined = k * g <= (k + 2) * n - 3
    else:
        refined = k * g <= (k + 2) * n - 2
    positive_codim = (k * g > (k + 1) * n) and refined
    return {
        "generic_existence": generic,
        "scarce_existence": scarce,
        "open_dense_window": open_dense,
        "positive_codim_window": positive_codim,
        "multiple_locus_generic": g <= 2 * n,
    }


TABLE_COLUMNS = [
    "g", "n", "k",
    "rho_g1n", "rho_gk_nk",
    "always_singular", "generically_smooth",
    "generic_existence", "scarce_existence",
    "open_dense_window", "positive_codim_window",
    "multiple_locus_generic",
    "dim_lower_bound",
]


def emit_table(g_range):
    """One row per (g, n, k); deterministic ordering, fixed column set.

    dim_lower_bound is max(k, k + rho(g, k, n+k)), the component bound for
    the image stratification of the Gauss map.
    """
    rows = []
    for g in g_range:
        for n in range(2, g - 1):   # 1 <= k <= n - 1 <= g - 3
            smooth = wn_smoothness_predicates(g, n)
            for k in range(1, n):
                win = seed_windows(g, n, k)
                rows.append({
                    "g": g, "n": n, "k": k,
                    "rho_g1n": rho(g, 1, n),
                    "rho_gk_nk": rho(g, k, n + k),
                    "always_singular": smooth["always_singular"],
                    "generically_smooth": smooth["generically_smooth"],
                    "generic_existence": win["generic_existence"],
                    "scarce_existence": win["scarce_existence"],
                    "open_dense_window": win["open_dense_window"],
                    "positive_codim_window": win["positive_codim_window"],
                    "multiple_locus_generic": win["multiple_locus_generic"],
                    "dim_lower_bound": max(k, k + rho(g, k, n + k)),
                })
    return rows


def table_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def table_to_json(rows):
    return json.dumps([{c: row[c] for c in TABLE_COLUMNS} for row in rows],
                      indent=0, separators=(",", ":"))
