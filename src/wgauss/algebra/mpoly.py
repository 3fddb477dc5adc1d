"""Sparse multivariate polynomials: dicts keyed by exponent tuples, with
field-element values and no zero entries."""

from .fields import coerce


def mp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        nv = v if w is None else w + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def mp_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            w = out.get(k)
            nv = va * vb if w is None else w + va * vb
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def mp_substitute(a, images, field, arity):
    """Substitute images[i] (a dict of the output arity) for variable i."""
    out = {}
    powers = [[{(0,) * arity: field.one}] for _ in images]   # powers[i][e] = images[i]^e
    for exps, c in a.items():
        term = {(0,) * arity: c}
        for i, e in enumerate(exps):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(mp_mul(pw[-1], images[i]))
                term = mp_mul(term, pw[e])
        out = mp_add(out, term)
    return out


def mp_eval(a, point, field):
    acc = field.zero
    for exps, c in a.items():
        t = c
        for x, e in zip(point, exps):
            if e:
                t = t * x ** e
        acc = acc + t
    return acc


def mp_partial(a, i, field):
    out = {}
    for exps, c in a.items():
        if exps[i]:
            k = tuple(e - (1 if j == i else 0) for j, e in enumerate(exps))
            v = c * exps[i]
            if v:
                out[k] = out.get(k, field.zero) + v
    return {k: v for k, v in out.items() if v}


def mp_map_field(a, target):
    return {k: coerce(v, target) for k, v in a.items()}


def mp_coeff_list(a, var):
    """View as a polynomial in variable ``var``: list of dicts without that var."""
    if not a:
        return []
    d = max(k[var] for k in a)
    out = [dict() for _ in range(d + 1)]
    for exps, c in a.items():
        rest = exps[:var] + exps[var + 1:]
        out[exps[var]][rest] = c
    return out
