"""Command-line front door.

    tenrank state NAME|FILE [--n COPIES] [--dims M N P] [--out FILE]
    tenrank rank TENSOR [--witness FILE] [--als R] [--seed S]
    tenrank verify TENSOR --witness FILE
    tenrank convert TENSOR --ghz N [--witness FILE] [--simulate] [--out FILE]
    tenrank classify TENSOR
    tenrank matmul --n K [--cutoff C] [--check] [--bench] [--seed S]
    tenrank demo {nonadditivity,ghz3-to-w2,ghz-to-phi3,epr-rate}

TENSOR arguments accept a builtin name (GHZ, W, EPR, PHI3, W2, MATMUL) or
a path to a tensor JSON file.  For GHZ the --n flag counts qubit-triple
copies (level count 2^n), while convert's --ghz N is the level count
itself.  --json switches every subcommand to machine-readable output.

Exit codes: 0 success/Yes, 2 unknown name or parse failure, 3 witness
mismatch, 4 convert No, 5 convert Unknown, 6 matmul check failure,
7 demo check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import sampling
from .als import AlsConfig
from .bilinear import strassen_multiply, strassen_multiply_float
from .decomp import (
    Rank222,
    builtin_state,
    builtin_witness,
    decomposition_from_json,
    decomposition_power,
    float_decomposition_to_json,
    rank_bounds,
    rank_leq2_test_2x2x2,
    verify_decomposition,
    verify_power_randomized,
    als_search,
)
from .errors import ResourceError, TenrankError, WitnessMismatch
from .slocc import (
    build_protocol,
    classify_three_qubit,
    decide_ghz_conversion,
    direction_deviation,
    protocol_to_json,
    simulate,
    verdict_to_json,
)
from .tensors import Tensor3, dense_dims, tensor_from_json, tensor_to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WITNESS_MISMATCH = 3
EXIT_CONVERT_NO = 4
EXIT_CONVERT_UNKNOWN = 5
EXIT_MATMUL_CHECK = 6
EXIT_DEMO_FAIL = 7

_BUILTIN_NAMES = {"GHZ", "W", "EPR", "PHI3", "W2", "MATMUL"}


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_tensor(arg: str, copies: int, dims) -> Tensor3:
    name = arg.upper()
    if name in _BUILTIN_NAMES:
        try:
            if name == "GHZ":
                return builtin_state("GHZ", 2 ** copies)
            if name == "MATMUL":
                return builtin_state("MATMUL", *dims)
            return builtin_state(name)
        except TenrankError as exc:
            raise _CliError(str(exc)) from exc
    if not Path(arg).exists():
        raise _CliError(f"unknown builtin state and no such file: {arg}")
    try:
        return tensor_from_json(_load_json_file(arg))
    except TenrankError as exc:
        raise _CliError(f"cannot parse tensor file {arg}: {exc}") from exc


def _resolve_witness(arg: str):
    path = Path(arg)
    if path.exists():
        payload = _load_json_file(arg)
    else:
        packaged = resources.files("tenrank").joinpath("witnesses", arg)
        if not packaged.is_file():
            raise _CliError(f"witness file not found: {arg}")
        payload = json.loads(packaged.read_text(encoding="utf-8"))
    try:
        return decomposition_from_json(payload)
    except TenrankError as exc:
        raise _CliError(f"cannot parse witness {arg}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_state(args) -> int:
    t = _resolve_tensor(args.name, args.n, args.dims)
    payload = {"dims": list(t.dims), "nonzeros": t.nnz()}
    if args.out:
        _write_text(args.out, json.dumps(tensor_to_json(t), indent=2))
        payload["out"] = args.out
    lines = [f"dims {list(t.dims)}  nonzeros {t.nnz()}"]
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_rank(args) -> int:
    t = _resolve_tensor(args.tensor, args.n, args.dims)
    bounds = rank_bounds(t)
    # a caller's witness sets the upper bound, so the package's is not built
    ranks, lower = bounds.flattening_ranks, bounds.lower
    upper = None if args.witness else bounds.upper
    payload = {"flattening_ranks": ranks, "lower": lower}
    lines = [f"flattening ranks A={ranks['A']} B={ranks['B']} C={ranks['C']}"]
    if bounds.fact is not None:
        name, fact = bounds.fact
        payload["known_rank"] = {"state": name, "rank": fact.rank, "note": fact.note}
        lines.append(f"registered exact rank: {name} -> {fact.rank} ({fact.note})")

    if args.witness:
        witness = _resolve_witness(args.witness)
        result = verify_decomposition(t, witness)
        if not result.ok:
            payload["witness"] = {"ok": False, "first_mismatch": result.first_mismatch}
            _emit(args, payload, lines + [
                f"witness MISMATCH at index {result.first_mismatch}"
            ])
            return EXIT_WITNESS_MISMATCH
        upper = len(witness.terms)
        payload["witness"] = {"ok": True, "terms": upper}
        lines.append(f"witness verified: {upper} terms")

    if args.als is not None:
        cfg = AlsConfig(seed=args.seed)
        found = als_search(t, args.als, cfg)
        payload["als"] = {
            "rank": args.als,
            "found": found.found,
            "residual": found.residual,
            "border_flag": found.border_flag,
        }
        if found.found:
            lines.append(f"als r={args.als}: Found, residual={found.residual:.3e}")
            if args.out:
                _write_text(args.out, json.dumps(
                    float_decomposition_to_json(t.dims, found.factors)))
                lines.append(f"wrote float decomposition {args.out}")
        else:
            lines.append(
                f"als r={args.als}: NotFound, residual={found.residual:.3e}, "
                f"border_flag={str(found.border_flag).lower()}"
            )

    if upper is not None:
        summary = f"upper={upper} lower={lower}"
        if upper == lower:
            summary += f" rank={lower}"
        payload["upper"] = upper
        lines.append(summary)
    else:
        lines.append(f"lower={lower}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    t = _resolve_tensor(args.tensor, args.n, args.dims)
    witness = _resolve_witness(args.witness)
    result = verify_decomposition(t, witness)
    payload = {
        "ok": result.ok,
        "terms": len(witness.terms),
        "first_mismatch": (list(result.first_mismatch)
                           if result.first_mismatch else None),
        "randomized": result.randomized,
    }
    if result.ok:
        _emit(args, payload, [f"ExactMatch ({len(witness.terms)} terms)"])
        return EXIT_OK
    _emit(args, payload, [f"Mismatch at index {result.first_mismatch}"])
    return EXIT_WITNESS_MISMATCH


def _cmd_convert(args) -> int:
    t = _resolve_tensor(args.tensor, args.n, args.dims)
    witness = _resolve_witness(args.witness) if args.witness else None
    verdict = decide_ghz_conversion(t, args.ghz, witness=witness,
                                    als_cfg=AlsConfig(seed=args.seed))
    payload = verdict_to_json(verdict)
    print(json.dumps(payload if args.json else {k: v for k, v in payload.items()
                                                if k != "witness"}))
    if verdict.kind == "yes" and args.simulate:
        protocol = build_protocol(verdict.witness, args.ghz, target=t)
        outcome, probability = simulate(protocol)
        target = t.to_numpy()
        overlap = abs(np.vdot(outcome, target))
        fidelity = overlap / (np.linalg.norm(outcome) * np.linalg.norm(target))
        out_path = args.out or "protocol.json"
        _write_text(out_path, protocol_to_json(protocol))
        print(json.dumps({
            "fidelity": float(fidelity),
            "probability": probability,
            "protocol": out_path,
        }))
    if verdict.kind == "yes":
        return EXIT_OK
    return EXIT_CONVERT_NO if verdict.kind == "no" else EXIT_CONVERT_UNKNOWN


def _cmd_classify(args) -> int:
    t = _resolve_tensor(args.tensor, args.n, args.dims)
    label = classify_three_qubit(t)
    _emit(args, {"class": label.value}, [label.value])
    return EXIT_OK


def _cmd_matmul(args) -> int:
    k = args.n
    if k < 0:
        raise _CliError("--n must be nonnegative")
    size = 1 << k
    try:
        dense_dims((size, size, 1))
    except ResourceError as exc:
        raise _CliError(f"matmul is limited to --n <= 10: {exc}") from exc
    rng = random.Random(args.seed)

    if args.bench:
        rng_np = np.random.default_rng(args.seed)
        x = rng_np.standard_normal((size, size)) + 1j * rng_np.standard_normal((size, size))
        y = rng_np.standard_normal((size, size)) + 1j * rng_np.standard_normal((size, size))
        start = time.perf_counter_ns()
        _, count = strassen_multiply_float(x, y, cutoff=args.cutoff)
        wall = time.perf_counter_ns() - start
        print(json.dumps({
            "n": k,
            "cutoff": args.cutoff,
            "nonscalar_mults": count.nonscalar_mults,
            "additions": count.additions,
            "wall_ns": wall,
        }))
        return EXIT_OK

    x = sampling.matrix(rng, size, size, max_num=9, max_den=2)
    y = sampling.matrix(rng, size, size, max_num=9, max_den=2)
    z, count = strassen_multiply(x, y, cutoff=args.cutoff)
    payload = {
        "n": k,
        "cutoff": args.cutoff,
        "nonscalar_mults": count.nonscalar_mults,
        "additions": count.additions,
    }
    lines = [f"nonscalar_mults={count.nonscalar_mults} additions={count.additions}"]
    if args.check:
        from .bilinear import naive_multiply

        expected, _ = naive_multiply(x, y)
        if z != expected:
            payload["check"] = "FAILED"
            _emit(args, payload, lines + ["CHECK FAILED: differs from naive product"])
            return EXIT_MATMUL_CHECK
        payload["check"] = "ok"
        lines.append("exact match vs naive")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------


def _demo_nonadditivity():
    checks = []
    w = builtin_state("W")
    w2 = builtin_state("W2")
    from .decomp import fiduccia8_w2_decomposition

    witness = fiduccia8_w2_decomposition()
    checks.append(("8-term witness for W(x)W verifies exactly",
                   verify_decomposition(w2, witness).ok))
    checks.append(("W classifies as W class",
                   classify_three_qubit(w).value == "w"))
    checks.append(("exact pencil test certifies rk(W)=3",
                   rank_leq2_test_2x2x2(w) is Rank222.RANK_GEQ3))
    checks.append(("8 < 3^2: witnessed rank is subadditive", 8 < 9))
    summary = "rk(W)=3, rk(W(x)W)<=8 < 9"
    return checks, summary


def _demo_ghz3_to_w2():
    from .decomp import fiduccia8_w2_decomposition

    w2 = builtin_state("W2")
    protocol = build_protocol(fiduccia8_w2_decomposition(), 8)
    outcome, probability = simulate(protocol)
    deviation = direction_deviation(outcome, w2.to_numpy())
    checks = [
        ("outcome direction matches W(x)W within 1e-10", deviation <= 1e-10),
        ("success probability is positive", probability > 0),
    ]
    summary = f"GHZ(8) -> W(x)W simulated: deviation={deviation:.2e}, p={probability:.4f}"
    return checks, summary


def _demo_ghz_to_phi3():
    phi3 = builtin_state("PHI3")
    base = builtin_witness(phi3, "PHI3")
    checks = []
    parts = []
    for copies, levels in ((1, 8), (2, 64)):
        witness = base if copies == 1 else decomposition_power(base, copies)
        target = phi3
        for _ in range(copies - 1):
            from .tensors import tensor_product

            target = tensor_product(target, phi3)
        protocol = build_protocol(witness, levels, target=target)
        outcome, probability = simulate(protocol)
        deviation = direction_deviation(outcome, target.to_numpy())
        ok = deviation <= 1e-10 and probability > 0
        checks.append((f"n={copies}: {7 ** copies} <= {levels}, simulation matches", ok))
        parts.append(f"n={copies}: {7 ** copies}<={levels} simulated "
                     f"{'PASS' if ok else 'FAIL'}")
    power6 = decomposition_power(base, 6)
    verified = verify_power_randomized(phi3, power6, probes=20, seed=0).ok
    arithmetic = 7 ** 6 <= 1 << 17
    checks.append(("n=6: 117649-term witness passes randomized contraction",
                   verified))
    checks.append(("n=6: 117649 <= 131072", arithmetic))
    parts.append(f"n=6: 117649<=131072 witness-verified "
                 f"{'PASS' if verified and arithmetic else 'FAIL'}")
    return checks, "; ".join(parts)


def _demo_epr_rate():
    copies, pairs_per_copy = 6, 3
    ghz_copies = 17
    total_pairs = copies * pairs_per_copy
    witness_fits = 7 ** copies <= 2 ** ghz_copies
    phi3 = builtin_state("PHI3")
    power = decomposition_power(builtin_witness(phi3, "PHI3"), copies)
    verified = verify_power_randomized(phi3, power, probes=20, seed=0).ok
    checks = [
        (f"7^{copies} = {7 ** copies} <= 2^{ghz_copies} = {2 ** ghz_copies}",
         witness_fits),
        ("the 7^6-term witness verifies by randomized contraction", verified),
        (f"{copies} triangle states carry {total_pairs} two-party maximally "
         f"entangled pairs", total_pairs == 18),
        (f"{total_pairs} pairs from {ghz_copies} GHZ copies: rate > 1",
         total_pairs > ghz_copies),
    ]
    summary = (f"{ghz_copies} GHZ copies -> {copies} triangle states "
               f"= {total_pairs} EPR pairs (rate {total_pairs}/{ghz_copies} > 1)")
    return checks, summary


_DEMOS = {
    "nonadditivity": _demo_nonadditivity,
    "ghz3-to-w2": _demo_ghz3_to_w2,
    "ghz-to-phi3": _demo_ghz_to_phi3,
    "epr-rate": _demo_epr_rate,
}


def _cmd_demo(args) -> int:
    checks, summary = _DEMOS[args.name]()
    all_ok = all(ok for _, ok in checks)
    payload = {
        "demo": args.name,
        "checks": [{"check": label, "ok": ok} for label, ok in checks],
        "summary": summary,
        "pass": all_ok,
    }
    lines = [f"[{'PASS' if ok else 'FAIL'}] {label}" for label, ok in checks]
    lines.append(f"{summary} -- {'PASS' if all_ok else 'FAIL'}")
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_DEMO_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_tensor_arg(sub, name="tensor"):
    sub.add_argument(name, help="builtin state name or tensor JSON file")
    sub.add_argument("--n", type=int, default=1,
                     help="GHZ copies when the builtin GHZ is named (levels 2^n)")
    sub.add_argument("--dims", type=int, nargs=3, default=(2, 2, 2),
                     metavar=("M", "N", "P"),
                     help="dimensions when the builtin MATMUL is named")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call (not at import) and
    reused by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="tenrank",
        description="Exact tensor-rank toolkit: states, rank witnesses, "
                    "conversion protocols and fast matrix multiplication.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("state", help="emit a builtin or parsed state")
    _add_tensor_arg(sub, "name")
    sub.add_argument("--out", help="write tensor JSON here")
    sub.set_defaults(func=_cmd_state)

    sub = subs.add_parser("rank", help="rank bounds, witnesses and numeric search")
    _add_tensor_arg(sub)
    sub.add_argument("--witness", help="decomposition JSON file (or packaged name)")
    sub.add_argument("--als", type=int, metavar="R",
                     help="run the numeric search at rank R")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write a found float decomposition here")
    sub.set_defaults(func=_cmd_rank)

    sub = subs.add_parser("verify", help="verify a decomposition against a tensor")
    _add_tensor_arg(sub)
    sub.add_argument("--witness", required=True)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("convert", help="decide GHZ(N) -> target convertibility")
    _add_tensor_arg(sub)
    sub.add_argument("--ghz", type=int, required=True, metavar="N",
                     help="GHZ level count of the source")
    sub.add_argument("--witness")
    sub.add_argument("--simulate", action="store_true",
                     help="on Yes, build and run the protocol")
    sub.add_argument("--out", help="write the protocol JSON here")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_convert)

    sub = subs.add_parser("classify", help="three-qubit class of a 2x2x2 state")
    _add_tensor_arg(sub)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("matmul", help="run the fast multiplication executor")
    sub.add_argument("--n", type=int, required=True, metavar="K",
                     help="matrix size exponent (matrices are 2^K x 2^K)")
    sub.add_argument("--cutoff", type=int, default=1)
    sub.add_argument("--check", action="store_true",
                     help="compare against the naive product, exactly")
    sub.add_argument("--bench", action="store_true",
                     help="float benchmark line (JSON) instead of exact run")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_matmul)

    sub = subs.add_parser("demo", help="end-to-end demonstration pipelines")
    sub.add_argument("name", choices=sorted(_DEMOS))
    sub.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except WitnessMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WITNESS_MISMATCH
    except TenrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
