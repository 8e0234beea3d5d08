"""Spans around calls into tenrank's layers, for the traced run only.

`Tracer.install` wraps a named list of public functions of each tenrank
module and rebinds every alias of each function object across tenrank's
modules, so that a call from one module into another is seen as a nested
span.  Per-scalar methods are never wrapped.  The untraced run never
imports this module, so it pays nothing.

A span is (function id, start ns, end ns, parent span, request id, raised).
Spans stay in memory and are written out when the run ends; self time is
computed from them afterwards.  Counters are taken at the same boundaries
from arguments and results (`_COUNTERS`).
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

#: layer -> (module path, wrapped public names); "Class.method" wraps a method
LAYERS = {
    "linalg": ("tenrank.linalg", ["rank", "rref", "det", "inverse", "in_span"]),
    "tensors": ("tenrank.tensors", [
        "make_tensor", "tensor_product", "flattening", "flattening_rank",
        "max_flattening_rank", "support_basis", "apply_local_operators", "contract",
        "tensor_from_json", "tensor_to_json", "Tensor3.to_numpy"]),
    "decomp": ("tenrank.decomp", [
        "make_decomposition", "reconstruct", "verify_decomposition",
        "decomposition_contract", "transport", "builtin_state", "builtin_decomposition",
        "decomposition_power", "verify_power_randomized", "rank_leq2_test_2x2x2",
        "als_search", "rationalize_result", "decomposition_from_json",
        "decomposition_to_json", "RankFacts.lookup"]),
    "bilinear": ("tenrank.bilinear", [
        "matmul_tensor", "matmul_power_relabeling", "phi3_matmul_witness", "to_bilinear",
        "from_bilinear", "evaluate_bilinear", "verify_for_matmul", "run_bilinear_matmul",
        "naive_multiply", "strassen_multiply", "strassen_multiply_float"]),
    "slocc": ("tenrank.slocc", [
        "build_protocol", "simulate", "direction_deviation", "decide_ghz_conversion",
        "bipartite_convertible", "hyperdeterminant_2x2x2", "classify_three_qubit",
        "schmidt_measure_bounds", "protocol_to_json", "verdict_to_json"]),
    "als": ("tenrank.als", ["als_decompose"]),
    "cli": ("tenrank.cli", ["main"]),
}

#: bilinear functions that run exact Scalar arithmetic (the rest are set-up
#: or the float path)
EXACT_BILINEAR = {"naive_multiply", "strassen_multiply", "run_bilinear_matmul",
                  "evaluate_bilinear"}
VERIFY = {"verify_decomposition", "verify_power_randomized"}
#: decomp functions whose time is spent visiting terms during verification
TERM_WORK = VERIFY | {"reconstruct", "decomposition_contract"}
ELIMINATIONS = {"rank", "rref", "det", "inverse"}


def _dims_entries(value) -> int:
    dims = getattr(value, "dims", None)
    if dims is not None:
        return dims[0] * dims[1] * dims[2]
    size = getattr(value, "size", None)
    if isinstance(size, int):
        return size
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return len(value) * len(value[0])
    return 0


def _count_linalg(c, name, args, kwargs, result, top):
    if name in ELIMINATIONS:
        m = args[0]
        c["linalg.entries"] += len(m) * (len(m[0]) if m else 0)


def _count_tensors(c, name, args, kwargs, result, top):
    if name == "Tensor3.to_numpy" or not isinstance(result, int):
        c["tensors.entries_out"] += _dims_entries(result)


def _count_decomp(c, name, args, kwargs, result, top):
    if name == "verify_decomposition":
        terms = len(args[1].terms)
        c["decomp.verify_calls"] += 1
        if result.randomized:
            c["decomp.randomized"] += 1
            terms *= 20  # the fixed probe count of the randomized fallback
        c["decomp.terms_visited"] += terms
    elif name == "verify_power_randomized":
        power = args[1].terms
        probes = kwargs.get("probes", args[2] if len(args) > 2 else 20)
        c["decomp.verify_calls"] += 1
        c["decomp.randomized"] += 1
        c["decomp.terms_visited"] += len(power.base_terms) * power.copies * probes
    elif name == "rationalize_result":
        c["decomp.rationalize_calls"] += 1
        c["decomp.rationalize_ok"] += result is not None


def _count_bilinear(c, name, args, kwargs, result, top):
    """MulCounts are shared with nested calls, so only the outermost
    bilinear call's count is added."""
    if name == "strassen_multiply_float" or (top and name in EXACT_BILINEAR):
        count = result[1]
        c["bilinear.nonscalar_mults"] += count.nonscalar_mults
        c["bilinear.additions"] += count.additions
        if name != "strassen_multiply_float":
            c["scalars.exact_ops"] += count.nonscalar_mults + count.additions


def _count_slocc(c, name, args, kwargs, result, top):
    if name == "build_protocol":
        c["slocc.protocol_levels"] += args[1]
    elif name == "decide_ghz_conversion":
        c["slocc.decisions"] += 1
        c["slocc.decisive"] += result.kind in ("yes", "no")


def _count_als(c, name, args, kwargs, result, top):
    c["als.found"] += result.found
    c["als.border_flags"] += result.border_flag


_COUNTERS = {"linalg": _count_linalg, "tensors": _count_tensors, "decomp": _count_decomp,
             "bilinear": _count_bilinear, "slocc": _count_slocc, "als": _count_als}


class Tracer:
    def __init__(self):
        self.names = []     # function id -> (layer, name)
        self.spans = []     # (fid, start, end, parent, request, raised)
        self.counts = defaultdict(int)
        self.stack = [-1]
        self.layers = ["bench"]
        self.request = -1
        self.active = False

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tenrank" or key.startswith("tenrank."))]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, name, original)
                setattr(owner, attr, wrapper)
                if owner_name:
                    continue
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, alias, wrapper)

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        counter = _COUNTERS.get(layer)
        spans, stack, layers, counts = self.spans, self.stack, self.layers, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            top = layers[-1] != layer
            index = len(spans)
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (fid, start, end, parent, tracer.request, raised)
            if counter is not None:
                counter(counts, name, args, kwargs, result, top)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- requests ----------------------------------------------------------------

    def begin(self, request_id: int):
        """Open the benchmark's own span for one request."""
        self.request = request_id
        self.active = True
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.layers.append("bench")
        return index, time.perf_counter_ns()

    def end(self, token, raised: bool):
        index, start = token
        end = time.perf_counter_ns()
        self.stack.pop()
        self.layers.pop()
        self.spans[index] = (-1, start, end, -1, self.request, raised)
        self.active = False

    # -- analysis ----------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict:
        child = [0] * len(self.spans)
        for fid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        fn_self = defaultdict(int)
        calls = defaultdict(int)
        errors = defaultdict(int)
        total = 0
        for index, (fid, start, end, parent, _, raised) in enumerate(self.spans):
            own = end - start - child[index]
            if fid < 0:
                total += end - start
                continue
            layer, name = self.names[fid]
            self_ns[layer] += own
            fn_self[(layer, name)] += own
            calls[layer] += 1
            errors[layer] += raised
        c = self.counts
        sec = 1e-9
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_ns[layer] * sec
            m[f"{layer}.share"] = self_ns[layer] / total if total else 0.0
            m[f"{layer}.errors"] = errors[layer]
        exact_ns = sum(v for (layer, name), v in fn_self.items()
                       if layer == "bilinear" and name in EXACT_BILINEAR)
        m["scalars.exact_ops"] = c["scalars.exact_ops"]
        m["scalars.ns_per_op"] = _ratio(exact_ns, c["scalars.exact_ops"])
        m["bilinear.exact_s"] = exact_ns * sec
        m["bilinear.float_s"] = fn_self[("bilinear", "strassen_multiply_float")] * sec
        m["bilinear.nonscalar_mults"] = c["bilinear.nonscalar_mults"]
        m["bilinear.additions"] = c["bilinear.additions"]
        m["linalg.entries"] = c["linalg.entries"]
        m["linalg.ns_per_entry"] = _ratio(self_ns["linalg"], c["linalg.entries"])
        m["tensors.entries_out"] = c["tensors.entries_out"]
        m["tensors.to_numpy_s"] = fn_self[("tensors", "Tensor3.to_numpy")] * sec
        m["decomp.verify_calls"] = c["decomp.verify_calls"]
        m["decomp.verify_per_request"] = _ratio(c["decomp.verify_calls"], requests)
        m["decomp.terms_visited"] = c["decomp.terms_visited"]
        term_ns = sum(v for (layer, name), v in fn_self.items()
                      if layer == "decomp" and name in TERM_WORK)
        m["decomp.ns_per_term"] = _ratio(term_ns, c["decomp.terms_visited"])
        m["decomp.randomized_share"] = _ratio(c["decomp.randomized"], c["decomp.verify_calls"])
        m["decomp.rationalize_ok_ratio"] = _ratio(c["decomp.rationalize_ok"],
                                                  c["decomp.rationalize_calls"])
        m["slocc.protocol_levels"] = c["slocc.protocol_levels"]
        m["slocc.decisive_ratio"] = _ratio(c["slocc.decisive"], c["slocc.decisions"])
        m["als.found_ratio"] = _ratio(c["als.found"], calls["als"])
        m["als.border_flags"] = c["als.border_flags"]
        return m

    def write(self, path):
        """Gzipped, one tab-separated line per span: layer, function, start
        and end in ns, parent span index, request id, raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer\tfunction\tstart_ns\tend_ns\tparent\trequest\traised\n")
            for fid, start, end, parent, request, raised in self.spans:
                layer, name = self.names[fid] if fid >= 0 else ("bench", "request")
                fh.write(f"{layer}\t{name}\t{start}\t{end}\t{parent}\t{request}\t{int(raised)}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
