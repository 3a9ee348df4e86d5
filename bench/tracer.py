"""Outside-in span tracer for gapcert's layers.

`install` wraps, from outside the package, every public function and
public method of the layer modules, plus the scipy eigensolvers they
call, and rebinds each wrapper wherever a gapcert module bound the
original (`from gapcert.x import f` copies the function into the
importer's namespace, so patching only `gapcert.x.f` would miss it).
Spans stay in memory; `summary` turns them into per-layer metrics and
`dump` writes them out once the pass is over.

A span is [name, layer, start, end, parent, case, info]: `parent` is the
index of the enclosing span (-1 at the top) and `info` holds the counts a
hook read from the call.  A layer's self time is its spans' durations
minus the durations of their direct children.

Functions are found by scanning the modules, so a renamed or deleted
function simply is not wrapped.  Metrics that need one specific span name
(see REQUIRED) are then reported as absent instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "models", "lattice", "operators", "spectral", "criteria", "coarsegrain")
SCIPY_SOLVERS = (
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
    ("scipy.sparse.linalg", "eigsh"),
)

MATVEC = "operators.ManyBodyOperator.apply"
COMPOSITE = "operators.CompositeOperator.apply"
MATERIALIZE = "operators.dense_matrix"
OPERATOR_INIT = "operators.ManyBodyOperator.__init__"
ASSEMBLY = {
    "operators.build_hamiltonian",
    "operators.build_QR",
    "operators.single_term_operator",
    OPERATOR_INIT,
    "operators.CompositeOperator.__init__",
}
GAP = "spectral.spectral_gap"
SUBSYSTEM = "criteria.subsystem_gap"
DENSE_EIG = {"scipy.eigh", "scipy.eigvalsh"}
EIGSH = "scipy.eigsh"

# metric -> span names it cannot be computed without
REQUIRED = {
    "operators.materialize_s": [MATERIALIZE],
    "operators.matvec_s": [MATVEC],
    "operators.matvec_cols": [MATVEC],
    "operators.matvec_amps": [MATVEC],
    "operators.matvec_ns_per_amp": [MATVEC],
    "operators.composite_s": [COMPOSITE],
    "operators.composite_matvec_s": [MATVEC, COMPOSITE],
    "operators.terms": [OPERATOR_INIT],
    "spectral.k_escalations": [GAP],
    "criteria.subsystem_solves": [SUBSYSTEM],
    "criteria.repeat_ratio": [SUBSYSTEM],
}


def _vector_counts(args, kwargs, result):
    shape = np.shape(args[1])
    cols = shape[1] if len(shape) == 2 else 1
    return {"cols": cols, "amps": cols * shape[0]}


def _dense_eig_counts(args, kwargs, result):
    return {"computed": int(np.shape(args[0])[0])}


def _eigsh_counts(args, kwargs, result):
    return {"computed": int(kwargs.get("k", args[1] if len(args) > 1 else 6))}


def _operator_terms(args, kwargs, result):
    return {"terms": args[0].n_terms}


def _subsystem_key(args, kwargs, result):
    model, D, side = args[:3]
    periodic = kwargs.get("periodic", args[3] if len(args) > 3 else False)
    return {"key": f"{model.name}/{model.d}/{D}/{side}/{bool(periodic)}"}


HOOKS = {
    MATVEC: _vector_counts,
    COMPOSITE: _vector_counts,
    OPERATOR_INIT: _operator_terms,
    "scipy.eigh": _dense_eig_counts,
    "scipy.eigvalsh": _dense_eig_counts,
    EIGSH: _eigsh_counts,
    GAP: lambda a, k, r: {"reported": len(r.eigenvalues)},
    "spectral.lowest_eigenvalues": lambda a, k, r: {"reported": len(r)},
    "spectral.check_operator_inequality": lambda a, k, r: {"reported": 1},
    "spectral.is_frustration_free": lambda a, k, r: {"reported": 1},
    SUBSYSTEM: _subsystem_key,
}


class Tracer:
    """In-memory span recorder; `case` tags new spans with the running case."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = -1
        self.wrapped = set()

    def wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        keys = ("name", "layer", "start", "end", "parent", "case", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _public_members(module):
    """(qualified name, owner, attribute, function) for the module's own code."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield attr, module, attr, obj
        elif inspect.isclass(obj):
            for name, member in list(vars(obj).items()):
                own_init = name == "__init__" and not dataclasses.is_dataclass(obj)
                if inspect.isfunction(member) and (own_init or not name.startswith("_")):
                    yield f"{attr}.{name}", obj, name, member


def install(tracer: Tracer):
    """Wrap the layers' public functions and the scipy eigensolvers."""
    replaced = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"gapcert.{layer}")
        except ImportError:
            continue
        for qualname, owner, attr, fn in _public_members(module):
            wrapper = tracer.wrap(f"{layer}.{qualname}", layer, fn)
            if owner is module:
                replaced[fn] = wrapper
            else:
                setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if name == "gapcert" or name.startswith("gapcert."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
    for module_name, attr in SCIPY_SOLVERS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(f"scipy.{attr}", "spectral", getattr(module, attr)))


def summary(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; absent ones are left out."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer_s[s[1]] += self_time[i]
    out = {f"{layer}.s": t for layer, t in layer_s.items()}

    def info(i, key):
        return (spans[i][6] or {}).get(key, 0)

    names = [s[0] for s in spans]
    parent_name = [names[s[4]] if s[4] >= 0 else "" for s in spans]
    idx = {}
    for i, n in enumerate(names):
        idx.setdefault(n, []).append(i)

    def select(name):
        return idx.get(name, [])

    dense = [i for n in DENSE_EIG for i in select(n)]
    eigsh = select(EIGSH)
    out["spectral.dense_eig_s"] = sum(self_time[i] for i in dense)
    out["spectral.dense_solves"] = len(dense)
    out["spectral.arpack_s"] = sum(self_time[i] for i in eigsh)
    out["spectral.arpack_calls"] = len(eigsh)

    applies = select(MATVEC) + select(COMPOSITE)
    out["spectral.matvecs"] = sum(1 for i in applies if parent_name[i] == EIGSH)
    out["spectral.residual_s"] = sum(
        dur[i] for i in applies if parent_name[i].startswith("spectral.")
    )

    # eigenvalues handed back by the outermost spectral call, against all
    # that the dense (whole spectrum) and ARPACK (k) solves computed
    outer_spectral = 0
    for i, s in enumerate(spans):
        if s[0].startswith("spectral.") and not parent_name[i].startswith("spectral."):
            outer_spectral += info(i, "reported")
    computed = sum(info(i, "computed") for i in dense + eigsh)
    out["spectral.pairs_used_ratio"] = outer_spectral / computed if computed else 0.0

    # ARPACK re-runs inside one spectral_gap call are k escalations
    calls_per_gap = {}
    for i in eigsh:
        j = spans[i][4]
        while j >= 0 and names[j] != GAP:
            j = spans[j][4]
        if j >= 0:
            calls_per_gap[j] = calls_per_gap.get(j, 0) + 1
    out["spectral.k_escalations"] = sum(c - 1 for c in calls_per_gap.values())

    out["operators.materialize_s"] = sum(dur[i] for i in select(MATERIALIZE))
    matvec = select(MATVEC)
    out["operators.matvec_s"] = sum(self_time[i] for i in matvec)
    out["operators.matvec_cols"] = sum(info(i, "cols") for i in matvec)
    out["operators.matvec_amps"] = sum(info(i, "amps") for i in matvec)
    out["operators.matvec_ns_per_amp"] = (
        1e9 * out["operators.matvec_s"] / out["operators.matvec_amps"]
        if out["operators.matvec_amps"]
        else 0.0
    )
    out["operators.composite_s"] = sum(self_time[i] for i in select(COMPOSITE))
    out["operators.composite_matvec_s"] = sum(
        self_time[i] for i in matvec if parent_name[i] == COMPOSITE
    )

    # assembly time counts outermost assembly spans only, so nested
    # constructors are not counted twice
    inside = [False] * len(spans)
    assemble_s = 0.0
    for i, s in enumerate(spans):
        p = s[4]
        inside[i] = p >= 0 and (inside[p] or names[p] in ASSEMBLY)
        if names[i] in ASSEMBLY and not inside[i]:
            assemble_s += dur[i]
    out["operators.assemble_s"] = assemble_s
    out["operators.terms"] = sum(info(i, "terms") for i in select(OPERATOR_INIT))

    out["lattice.calls"] = sum(1 for s in spans if s[1] == "lattice")
    solves = select(SUBSYSTEM)
    distinct = {info(i, "key") for i in solves}
    out["criteria.subsystem_solves"] = len(solves)
    out["criteria.repeat_ratio"] = len(solves) / len(distinct) if distinct else 0.0

    for metric, needs in REQUIRED.items():
        if not all(n in tracer.wrapped for n in needs):
            del out[metric]
    return out
