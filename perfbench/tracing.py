"""Spans recorded from outside the program, and the per-layer metrics built
from them.

``install`` replaces every public function of the six ``mbound`` modules by
a wrapper, at every import site: each module attribute that is bound to the
original function object is rebound to the wrapper, so ``from .core import
classify`` in ``spectral`` and ``bounds.rho_bound_product`` in ``harness``
both reach it.  Nothing under ``src/`` is edited.  A wrapper opens a span,
calls the original, closes the span and returns the original's result
object unchanged.

A span is (name, start, end, parent); the parent is the span open when it
started, i.e. the call that caused it.  Spans stay in memory until
``Tracer.write`` runs at the end of the benchmark.
"""
from __future__ import annotations

import functools
import gzip
import os
import sys
import time
import types

LAYERS = ("cli", "harness", "core", "_lu", "spectral", "bounds")

# rung functions of mbound.bounds -> BoundResult.name
RUNGS = {
    "rho_bound_product": "rho_product",
    "rho_bound_affine": "rho_affine",
    "rho_bound_oval_deficit": "rho_oval_deficit",
    "rho_bound_oval_rowmax": "rho_oval_rowmax",
    "tau_bound_product": "tau_product",
    "tau_bound_affine": "tau_affine",
    "tau_bound_oval_deficit": "tau_oval_deficit",
    "tau_bound_oval_rowmax": "tau_oval_rowmax",
    "tau_hinv_diag_floor": "tau_hinv_diag_floor",
    "tau_hinv_jacobi_ratio": "tau_hinv_jacobi_ratio",
    "tau_hinv_chain": "tau_hinv_chain",
    "tau_hinv_jacobi_oval": "tau_hinv_jacobi_oval",
    "tau_hinv_deficit_oval": "tau_hinv_deficit_oval",
    "tau_multi_fan": "tau_multi_fan",
}

GEN_SPANS = ("harness.gen_nonnegative", "harness.gen_m_matrix")
SUITE_SPANS = ("harness.run_hadamard_suite", "harness.run_fan_suite",
               "harness.run_hinv_suite", "harness.run_multi_fan_suite")
PRODUCT_SPANS = ("core.hadamard", "core.fan_product", "core.fan_power")
CLI_CALL = "cli.call"  # the benchmark's span around one in-process main()
OP = "op"  # the benchmark's span around one operation


class Tracer:
    """In-memory span store.  ``attrs`` holds, per span index, what a
    wrapper noted about the call (order n, iterations, ...)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    i, name, self.starts[i] - t0, self.ends[i] - t0,
                    self.parents[i]))


def _note_rho(args, kwargs, result):
    return {"n": len(args[0]), "iterations": result.iterations,
            "residual": result.residual,
            "reducible": result.eigenvector is None}


def _note_order(args, kwargs, result):
    return {"n": len(args[0])}


def _note_suite(args, kwargs, result):
    return {"trials": len(result)}


def _note_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


NOTES = {
    "spectral.rho_nonnegative": _note_rho,
    "_lu.lu_factor": _note_order,
    "_lu.inverse": _note_order,
    "cli.read_matrix": _note_read,
    **{name: _note_suite for name in SUITE_SPANS},
}


def _wrap(tracer: Tracer, name: str, fn):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            tracer.attrs[idx] = note(args, kwargs, result)
        return result

    return wrapper


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    for key in names:
        fn = getattr(module, key, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            yield key, fn


def install(tracer: Tracer):
    """Wrap the public functions of every layer at every import site.
    Returns ``use``: ``use(False)`` binds the original functions again and
    ``use(True)`` the wrappers."""
    modules = {name: sys.modules["mbound." + name] for name in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for key, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{key}", fn))
    sites = [sys.modules["mbound"], *modules.values()]
    patches = []
    for module in sites:
        for key, value in vars(module).items():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, key, value, hit[1]))

    def use(traced: bool) -> None:
        for module, key, original, wrapper in patches:
            setattr(module, key, wrapper if traced else original)

    use(True)
    return use


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _lu_flops(n: int) -> int:
    # PA = LU without skipped pivots: per step k one division per entry
    # below the pivot and a rank-1 update of the trailing (n-k-1)^2 block
    return sum(m + 2 * m * m for m in range(n))


def _inverse_flops(n: int) -> int:
    # the same elimination, then per identity column a unit-lower forward
    # and an upper back substitution: 2*n*(n-1) multiply-adds + n divisions
    return _lu_flops(n) + n * (2 * n * (n - 1) + n)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures over every span recorded.  Times in seconds are
    inclusive unless named ``self``: self time is a span's duration minus
    the time its child spans cover."""
    names, starts, ends, parents = (tracer.names, tracer.starts, tracer.ends,
                                    tracer.parents)
    count = len(names)
    dur = [ends[i] - starts[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]

    def has_ancestor(i, pred):
        p = parents[i]
        while p >= 0:
            if pred(names[p]):
                return True
            p = parents[p]
        return False

    calls = {}
    total = {}
    selft = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        selft[name] = selft.get(name, 0.0) + dur[i] - child[i]

    def n_calls(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def t_total(*keys):
        return sum(total.get(k, 0.0) for k in keys)

    def t_self(*keys):
        return sum(selft.get(k, 0.0) for k in keys)

    attrs = tracer.attrs
    trials = sum(a["trials"] for i, a in attrs.items()
                 if names[i] in SUITE_SPANS)
    cli_calls = n_calls(CLI_CALL)
    pairs = trials + cli_calls
    classify_calls = n_calls("core.classify")
    rung_names = {"bounds." + fn for fn in RUNGS}

    lu_in_classify = sum(1 for i, name in enumerate(names)
                         if name == "_lu.lu_factor"
                         and has_ancestor(i, lambda p: p == "core.classify"))
    inv_in_rung = sum(1 for i, name in enumerate(names)
                      if name == "_lu.inverse"
                      and has_ancestor(i, rung_names.__contains__))
    flops = sum(_lu_flops(a["n"]) if names[i] == "_lu.lu_factor"
                else _inverse_flops(a["n"])
                for i, a in attrs.items()
                if names[i] in ("_lu.lu_factor", "_lu.inverse"))

    rho = [a for i, a in attrs.items() if names[i] == "spectral.rho_nonnegative"]
    power_iters = sum(a["iterations"] for a in rho)
    multi = [a for a in rho if a["n"] > 1]
    outer_gen = [i for i, name in enumerate(names) if name in GEN_SPANS
                 and not has_ancestor(i, GEN_SPANS.__contains__)]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "core.classify_s": t_total("core.classify"),
        "core.classify_calls": classify_calls,
        "core.classify_per_trial": ratio(classify_calls, pairs),
        "core.products_s": t_total(*PRODUCT_SPANS),
        "core.as_matrix_calls": n_calls("core.as_matrix"),
        "lu.lu_factor_calls": n_calls("_lu.lu_factor"),
        "lu.lu_factor_s": t_total("_lu.lu_factor"),
        "lu.leading_minors_calls": n_calls("_lu.leading_minors"),
        "lu.factorizations_per_classify": ratio(lu_in_classify, classify_calls),
        "lu.inverse_calls": n_calls("_lu.inverse"),
        "lu.inverse_s": t_total("_lu.inverse"),
        "lu.inverses_per_trial": ratio(n_calls("_lu.inverse"), pairs),
        "lu.flops_computed": flops,
        "bounds.inverse_calls": inv_in_rung,
        "spectral.rho_calls": n_calls("spectral.rho_nonnegative"),
        "spectral.rho_self_s": t_self("spectral.rho_nonnegative"),
        "spectral.tau_calls": n_calls("spectral.tau_m_matrix"),
        "spectral.tau_self_s": t_self("spectral.tau_m_matrix"),
        "spectral.jacobi_calls": n_calls("spectral.jacobi_radius"),
        "spectral.power_iters": power_iters,
        "spectral.iters_per_rho": ratio(power_iters, len(rho)),
        "spectral.reducible_frac": ratio(sum(a["reducible"] for a in multi),
                                         len(multi)),
        "spectral.residual_max": max((a["residual"] for a in rho), default=0.0),
        "spectral.matvec_flops_computed": sum(2 * a["n"] ** 2 * a["iterations"]
                                              for a in rho),
    }
    for fn, rung in RUNGS.items():
        m[f"bounds.{rung}_s"] = t_total("bounds." + fn)
    m.update({
        "bounds.aux_chain_s": t_total("bounds.aux_chain"),
        "bounds.inverse_column_caps_s": t_total("bounds.inverse_column_caps"),
        "harness.gen_s": sum(dur[i] for i in outer_gen),
        "harness.gen_calls": len(outer_gen),
        "harness.self_s": t_self(*SUITE_SPANS),
        "harness.trials": trials,
        "cli.calls": cli_calls,
        "cli.read_matrix_s": t_total("cli.read_matrix"),
        "cli.read_matrix_calls": n_calls("cli.read_matrix"),
        "cli.read_bytes": sum(a["bytes"] for i, a in attrs.items()
                              if names[i] == "cli.read_matrix"),
        "cli.self_s": t_self(CLI_CALL),
    })
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("_bytes"):
        return "byte"
    if name.endswith(("_calls", ".calls", "_iters", ".trials")):
        return "count"
    return "ratio"
