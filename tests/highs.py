"""HiGHS (scipy.optimize.milp) on the LP text that emit_lp writes: an
external check of solve_exact's optimum. The tests and
tools/highs_sweep.py use it. scipy is imported on the first solve, so this
module imports without it.
"""

from plane_supports.exact import build_model, emit_lp
from plane_supports.model import ConstraintSet, Hypergraph, SupportGraph


def parse_lp(text):
    """Tiny LP reader for the emitter's own dialect."""
    sections = {"Minimize": [], "Subject To": [], "Bounds": [], "Binaries": [],
                "Generals": []}
    current = None
    logical: list[str] = []
    for raw in text.splitlines():
        if raw in sections or raw == "End":
            current = raw
            continue
        if current == "End":
            break
        if raw.startswith("  "):
            logical[-1] += " " + raw.strip()
        else:
            logical.append(raw.strip())
            sections[current].append(len(logical) - 1)
    by_section = {name: [logical[i] for i in idxs] for name, idxs in sections.items()}

    def parse_terms(expr):
        tokens = expr.split()
        terms = []
        sign = 1.0
        coef = None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            else:
                try:
                    coef = float(tok)
                except ValueError:
                    terms.append((sign * (1.0 if coef is None else coef), tok))
                    sign, coef = 1.0, None
        return terms

    objective = parse_terms(by_section["Minimize"][0].split(":", 1)[1])
    rows = []
    for row in by_section["Subject To"]:
        body = row.split(":", 1)[1]
        for rel in ("<=", ">=", "="):
            if f" {rel} " in body:
                lhs, rhs = body.rsplit(f" {rel} ", 1)
                rows.append((parse_terms(lhs), rel, float(rhs)))
                break
    bounds = {}
    for row in by_section["Bounds"]:
        lo, _, var, _, hi = row.split()
        bounds[var] = (float(lo), float(hi))
    return {"objective": objective, "rows": rows, "bounds": bounds,
            "binaries": by_section["Binaries"], "generals": by_section["Generals"]}


def highs_solve(h: Hypergraph, c: ConstraintSet, time_limit: float | None = None):
    """HiGHS on emit_lp(build_model(h, c)), read back from the LP text:
    scipy's result (``fun`` is the length it found, ``status`` 0 when it
    proved that length optimal) and the support its edge binaries choose,
    or None when it found no solution."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    model = build_model(h, c)
    parsed = parse_lp(emit_lp(model))
    variables = parsed["binaries"] + parsed["generals"]
    index = {v: i for i, v in enumerate(variables)}
    nvar = len(variables)
    obj = np.zeros(nvar)
    for coef, var in parsed["objective"]:
        obj[index[var]] += coef
    data, row_ids, col_ids, lo_b, hi_b = [], [], [], [], []
    for r, (terms, rel, rhs) in enumerate(parsed["rows"]):
        for coef, var in terms:
            data.append(coef)
            row_ids.append(r)
            col_ids.append(index[var])
        lo_b.append(-np.inf if rel == "<=" else rhs)
        hi_b.append(np.inf if rel == ">=" else rhs)
    a = coo_array((data, (row_ids, col_ids)), shape=(len(lo_b), nvar)).tocsr()
    lb = np.zeros(nvar)
    ub = np.ones(nvar)
    for var, (lo, hi) in parsed["bounds"].items():
        lb[index[var]], ub[index[var]] = lo, hi
    options = {} if time_limit is None else {"time_limit": time_limit}
    res = milp(c=obj, constraints=LinearConstraint(a, lo_b, hi_b),
               integrality=np.ones(nvar), bounds=Bounds(lb, ub), options=options)
    if res.x is None:
        return res, None
    chosen = [model.edge_vars[i] for i, var in enumerate(parsed["binaries"])
              if res.x[index[var]] > 0.5]
    return res, SupportGraph.from_pairs(chosen)
