"""The three benchmark workloads.

A workload is a fixed mix of request kinds.  Each block of requests holds
exactly MIX[kind] requests of every kind, in an order and with inputs drawn
from the block's seed, so the seed never changes how many requests of each
kind a run makes.  The counts are set so that the median latency falls well
inside one kind and the 90th percentile inside another (see README.md).

A request is one user-level operation.  `run` is the timed call into
tenrank; `check` compares its output, after timing, with an answer the
benchmark knows by construction (inputs.py).  Every call into tenrank goes
through a module attribute looked up at call time, so the traced run sees
the calls once spans.py has rebound those attributes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import inputs as I


class Request(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def scalar(v, tr):
    return tr.Scalar(v[0], v[1])


def to_matrix(m, tr):
    return tuple(tuple(scalar(v, tr) for v in row) for row in m)


def to_tensor(dims, t, tr):
    return tr.make_tensor(dims, {idx: scalar(v, tr) for idx, v in t.items()})


def to_decomposition(dims, terms, tr):
    return tr.make_decomposition(
        dims, [tuple(tuple(scalar(x, tr) for x in vec) for vec in term) for term in terms])


def same_matrix(z, expected) -> bool:
    return len(z) == len(expected) and all(
        len(zr) == len(er) and all(s.re == e[0] and s.im == e[1] for s, e in zip(zr, er))
        for zr, er in zip(z, expected))


# ---------------------------------------------------------------------------
# matmul-exact: `tenrank matmul --check` and verified bilinear programs
# ---------------------------------------------------------------------------


#: relative float tolerance fixed from complex128 before any run: Higham's
#: bound for Strassen with cutoff 1, [n^log2(12) * 6 - 5n] u |A| |B| in the
#: max norm, times 4 for complex arithmetic
def _float_tolerance(n: int) -> float:
    return 4.0 * (n ** math.log2(12) * 6 - 5 * n) * 2.0 ** -53


class MatmulExact:
    name = "matmul-exact"
    MIX = {"prog444": 18, "mm8": 24, "mm16": 43, "float64": 2, "mm32": 13}

    @staticmethod
    def setup_inputs():
        return I.strassen_terms()

    @staticmethod
    def setup(tr, strassen):
        """Verify the programs the requests run: Strassen's <2,2,2> scheme and
        its Kronecker square relabeled as a 49-product <4,4,4> program."""
        base = to_decomposition((4, 4, 4), strassen, tr)
        tr.verify_for_matmul(tr.to_bilinear(base), 2, 2, 2)
        square = tr.transport(tr.matmul_power_relabeling(2, 2, 2, 2),
                              tr.decomposition_power(base, 2))
        return {"prog444": tr.verify_for_matmul(tr.to_bilinear(square), 4, 4, 4)}

    @staticmethod
    def block(tr, state, rng, workdir):
        import numpy as np  # imported by tenrank already; kept out of set-up timing

        bil = tr.bilinear
        requests = []
        for kind, count in MatmulExact.MIX.items():
            for _ in range(count):
                if kind == "float64":
                    x = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(64)]
                                  for _ in range(64)])
                    y = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(64)]
                                  for _ in range(64)])
                    requests.append(Request(
                        kind,
                        lambda x=x, y=y: bil.strassen_multiply_float(x, y, cutoff=1),
                        lambda out, x=x, y=y: (
                            out[1].nonscalar_mults == 7 ** 6
                            and float(np.max(np.abs(out[0] - x @ y)))
                            <= _float_tolerance(64) * np.max(np.abs(x)) * np.max(np.abs(y)))))
                    continue
                n = 4 if kind == "prog444" else int(kind[2:])
                xq, yq = I.random_matrix(rng, n), I.random_matrix(rng, n)
                expected = I.schoolbook(xq, yq)
                x, y = to_matrix(xq, tr), to_matrix(yq, tr)
                if kind == "prog444":
                    program = state["prog444"]
                    requests.append(Request(
                        kind,
                        lambda x=x, y=y, p=program: bil.run_bilinear_matmul(p, x, y),
                        lambda out, e=expected: (out[1].nonscalar_mults == 49
                                                 and same_matrix(out[0], e))))
                    continue

                def check_mode(x=x, y=y):
                    z, count = bil.strassen_multiply(x, y, cutoff=1)
                    naive, _ = bil.naive_multiply(x, y)
                    return z, count, z == naive

                requests.append(Request(
                    kind, check_mode,
                    lambda out, e=expected, n=n: (
                        out[2] and out[1].nonscalar_mults == 7 ** int(math.log2(n))
                        and same_matrix(out[0], e))))
        rng.shuffle(requests)
        return requests


# ---------------------------------------------------------------------------
# rank-certify: `tenrank rank T --witness W` and `tenrank verify`
# ---------------------------------------------------------------------------


LEGS = ("A", "B", "C")


def _certify(tr, t, witness):
    ranks = tuple(tr.tensors.flattening_rank(t, leg) for leg in LEGS)
    result = tr.decomp.verify_decomposition(t, witness)
    return ranks, result.ok, result.first_mismatch


class RankCertify:
    name = "rank-certify"
    MIX = {"phi3": 5, "w2": 5, "img_phi3": 8, "img_w2": 8, "corrupt": 7, "power": 9,
           "power_bad": 1, "dense16": 37, "img_phi3sq": 20}
    #: dense16 requests that certify GHZ(16) instead of PHI3 (x) PHI3: both
    #: are dense 16x16x16 verifications of the same cost
    GHZ16 = 2

    @staticmethod
    def setup_inputs():
        return None

    @staticmethod
    def setup(tr, _):
        """Every request brings its own target and witness (see block), as
        each `tenrank rank` or `verify` invocation does: set-up is the import."""
        return {}

    @staticmethod
    def fixed():
        phi3 = I.phi3()
        w2 = I.kron_tensor(I.w_state(), (2, 2, 2), I.w_state())
        phi3sq = I.kron_tensor(phi3, (4, 4, 4), phi3)
        return phi3, w2, phi3sq

    @staticmethod
    def block(tr, state, rng, workdir):
        phi3, w2, phi3sq = RankCertify.fixed()
        phi3_terms, w2_terms = I.strassen_phi3_terms(), I.fiduccia_w2_terms()
        fixed = {"phi3": (phi3, phi3_terms), "w2": (w2, w2_terms),
                 "ghz16": (I.ghz(16), I.ghz_terms(16)),
                 "phi3sq": (phi3sq, I.kron_terms(phi3_terms, phi3_terms))}
        # the PHI3 witness with one coefficient changed, for the power that must fail
        bad_terms = list(phi3_terms)
        a, b, c = bad_terms[3]
        bad_terms[3] = (a, b, tuple(I.cadd(x, I.ONE) if i == 2 else x for i, x in enumerate(c)))
        requests = []

        def certify(kind, t, witness, ranks):
            requests.append(Request(
                kind, lambda: _certify(tr, t, witness),
                lambda out: out[0] == ranks and out[1] and out[2] is None))

        def image(make_op, n, t, terms):
            ops = [make_op(rng, n) for _ in range(3)]
            return I.image(ops, (n, n, n), t), I.transport(ops, terms)

        def small_image(t, terms):
            return image(I.invertible_operator, 4, t, terms)

        for kind, count in RankCertify.MIX.items():
            for i in range(count):
                if kind in ("phi3", "w2", "dense16"):
                    # a fresh signed relabeling per request: a new object and
                    # value each time at the cost of the fixed tensor itself
                    key = kind if kind != "dense16" else (
                        "ghz16" if i < RankCertify.GHZ16 else "phi3sq")
                    t, terms = fixed[key]
                    n = len(terms[0][0])
                    t, terms = image(I.signed_permutation, n, t, terms)
                    certify(kind, to_tensor((n, n, n), t, tr),
                            to_decomposition((n, n, n), terms, tr), (n, n, n))
                elif kind in ("img_phi3", "img_w2"):
                    t, terms = small_image(phi3, phi3_terms) if kind == "img_phi3" \
                        else small_image(w2, w2_terms)
                    certify(kind, to_tensor((4, 4, 4), t, tr),
                            to_decomposition((4, 4, 4), terms, tr), (4, 4, 4))
                elif kind == "img_phi3sq":
                    # (A1 x A2)(PHI3 x PHI3) = (A1 PHI3) x (A2 PHI3): leg A of the
                    # first copy mixes pairs of levels, everything else rescales
                    ops1 = [I.pair_mixing_operator(rng, 4)] + \
                        [I.diagonal_operator(rng, 4) for _ in range(2)]
                    ops2 = [I.diagonal_operator(rng, 4) for _ in range(3)]
                    t = I.kron_tensor(I.image(ops1, (4, 4, 4), phi3), (4, 4, 4),
                                      I.image(ops2, (4, 4, 4), phi3))
                    terms = I.kron_terms(I.transport(ops1, phi3_terms),
                                         I.transport(ops2, phi3_terms))
                    certify(kind, to_tensor((16, 16, 16), t, tr),
                            to_decomposition((16, 16, 16), terms, tr), (16, 16, 16))
                elif kind == "corrupt":
                    t, terms = small_image(*((phi3, phi3_terms) if rng.random() < 0.5
                                             else (w2, w2_terms)))
                    k, leg, pos = rng.randrange(len(terms)), rng.randrange(3), rng.randrange(4)
                    term = list(terms[k])
                    old = term[leg][pos]
                    delta = I.ONE if I.nonzero(I.cadd(old, I.ONE)) else I.q(2)
                    term[leg] = tuple(I.cadd(x, delta) if i == pos else x
                                      for i, x in enumerate(term[leg]))
                    expected = I.first_mismatch_of_perturbation(terms[k], leg, pos)
                    bad = list(terms)
                    bad[k] = tuple(term)
                    tt = to_tensor((4, 4, 4), t, tr)
                    wd = to_decomposition((4, 4, 4), bad, tr)
                    requests.append(Request(
                        kind, lambda tt=tt, wd=wd: _certify(tr, tt, wd),
                        lambda out, e=expected: (out[0] == (4, 4, 4) and not out[1]
                                                 and out[2] == e)))
                else:
                    # PHI3^n of a fresh signed relabeling of PHI3; for power_bad
                    # the base witness carries the changed coefficient
                    t, terms = image(I.signed_permutation, 4, phi3,
                                     bad_terms if kind == "power_bad" else phi3_terms)
                    target = to_tensor((4, 4, 4), t, tr)
                    power = tr.decomposition_power(
                        to_decomposition((4, 4, 4), terms, tr),
                        5 if kind == "power_bad" else rng.choice((4, 5, 6)))
                    probe_seed = rng.randrange(1 << 30)
                    requests.append(Request(
                        kind,
                        lambda t=target, p=power, s=probe_seed: tr.decomp.verify_power_randomized(
                            t, p, probes=20, seed=s).ok,
                        lambda ok, want=(kind == "power"): ok is want))
        rng.shuffle(requests)
        return requests


# ---------------------------------------------------------------------------
# convert-cli: in-process `tenrank ... --json` on files written before timing
# ---------------------------------------------------------------------------


def _cli(tr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.cli.main(argv)
    return code, out.getvalue()


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _simulated_yes(out, terms_at_most: int) -> bool:
    code, text = out
    lines = _json_lines(text)
    if code != 0 or len(lines) != 2:
        return False
    verdict, sim = lines
    return (verdict["verdict"] == "yes" and verdict["upper_bound"] <= terms_at_most
            and sim["fidelity"] >= 1 - 1e-10 and sim["probability"] > 0)


def _no(out, reason_prefix: str) -> bool:
    code, text = out
    lines = _json_lines(text)
    return (code == 4 and len(lines) == 1 and lines[0]["verdict"] == "no"
            and lines[0]["reason"].startswith(reason_prefix))


def _als_ghz_ok(out, target) -> bool:
    """Yes must carry a witness that rebuilds the target exactly; Unknown is
    allowed (a missed find, counted by slocc.decisive_ratio); No is wrong."""
    code, text = out
    lines = _json_lines(text)
    if len(lines) != 1:
        return False
    verdict = lines[0]
    if code == 5:
        return verdict["verdict"] == "unknown"
    if code != 0 or verdict["verdict"] != "yes" or verdict["witness"] is None:
        return False
    terms = [tuple(tuple(_parse_scalar(x) for x in term[leg]) for leg in "abc")
             for term in verdict["witness"]["terms"]]
    return len(terms) <= 2 and I.reconstruct((2, 2, 2), terms) == target


def _parse_scalar(x):
    if isinstance(x, str):
        return I.q(x)
    return I.q(x.get("re", "0"), x.get("im", "0"))


class ConvertCli:
    name = "convert-cli"
    MIX = {"classify": 12, "no_flat": 8, "no_fact": 6, "phi3_ghz7": 8, "sim8": 46,
           "als_ghz": 4, "ghz64": 15, "als_w": 1}

    @staticmethod
    def setup_inputs():
        return None

    @staticmethod
    def setup(tr, _):
        """The CLI keeps no state between invocations: set-up is the import."""
        return {}

    @staticmethod
    def block(tr, state, rng, workdir):
        phi3, w2, phi3sq = RankCertify.fixed()
        phi3_terms, w2_terms = I.strassen_phi3_terms(), I.fiduccia_w2_terms()
        files = itertools.count()
        requests = []

        def write(payload) -> str:
            path = workdir / f"in{next(files)}.json"
            path.write_text(json.dumps(payload))
            return str(path)

        def tensor_file(dims, t):
            return write(I.tensor_json(dims, t))

        def image_with_witness(t, terms):
            ops = [I.invertible_operator(rng, 4) for _ in range(3)]
            return I.image(ops, (4, 4, 4), t), I.transport(ops, terms)

        def add(kind, argv, check):
            requests.append(Request(kind, lambda: _cli(tr, ["--json"] + argv), check))

        phi3_file = tensor_file((4, 4, 4), phi3)
        phi3sq_file = tensor_file((16, 16, 16), phi3sq)
        protocol = str(workdir / "protocol.json")
        classes = [("ghz", I.ghz_class), ("w", I.w_class),
                   ("bisep_a_bc", lambda r: I.biseparable(r, 0)),
                   ("bisep_b_ac", lambda r: I.biseparable(r, 1)),
                   ("bisep_c_ab", lambda r: I.biseparable(r, 2)),
                   ("product", I.product_state)]
        for kind, count in ConvertCli.MIX.items():
            for i in range(count):
                if kind == "classify":
                    label, make = classes[i % len(classes)]
                    add(kind, ["classify", tensor_file((2, 2, 2), make(rng))],
                        lambda out, label=label: out[0] == 0
                        and _json_lines(out[1]) == [{"class": label}])
                elif kind == "no_flat":
                    t, _ = image_with_witness(*((phi3, phi3_terms) if i % 2 else (w2, w2_terms)))
                    add(kind, ["convert", tensor_file((4, 4, 4), t), "--ghz", "3"],
                        lambda out: _no(out, "flattening rank 4 > 3"))
                elif kind == "no_fact":
                    add(kind, ["convert", phi3_file, "--ghz", "4"],
                        lambda out: _no(out, "registered exact rank of PHI3 is 7 > 4"))
                elif kind == "phi3_ghz7":
                    add(kind, ["convert", phi3_file, "--ghz", "7", "--simulate",
                               "--out", protocol],
                        lambda out: _simulated_yes(out, 7))
                elif kind == "sim8":
                    t, terms = image_with_witness(*((phi3, phi3_terms) if i % 2
                                                    else (w2, w2_terms)))
                    add(kind, ["convert", tensor_file((4, 4, 4), t), "--ghz", "8",
                               "--witness", write(I.decomposition_json((4, 4, 4), terms)),
                               "--simulate", "--out", protocol],
                        lambda out, r=len(terms): _simulated_yes(out, r))
                elif kind == "ghz64":
                    terms = I.kron_terms(phi3_terms, phi3_terms)
                    rng.shuffle(terms)
                    add(kind, ["convert", phi3sq_file, "--ghz", "64", "--witness",
                               write(I.decomposition_json((16, 16, 16), terms)),
                               "--simulate", "--out", protocol],
                        lambda out: _simulated_yes(out, 49))
                elif kind == "als_ghz":
                    t = I.ghz_class(rng)
                    add(kind, ["convert", tensor_file((2, 2, 2), t), "--ghz", "2",
                               "--seed", str(rng.randrange(1000))],
                        lambda out, t=t: _als_ghz_ok(out, t))
                else:  # als_w: the border case, rank 3 but border rank 2
                    add(kind, ["rank", tensor_file((2, 2, 2), I.w_class(rng)), "--als", "2",
                               "--seed", str(rng.randrange(1000))],
                        lambda out: out[0] == 0 and _border_not_found(out[1]))
        rng.shuffle(requests)
        return requests


def _border_not_found(text) -> bool:
    lines = _json_lines(text)
    if len(lines) != 1:
        return False
    payload = lines[0]
    return (payload["flattening_ranks"] == {"A": 2, "B": 2, "C": 2}
            and payload["als"]["found"] is False)


WORKLOADS = {w.name: w for w in (MatmulExact, RankCertify, ConvertCli)}


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def block_dir(root: Path, block: int) -> Path:
    path = root / f"block{block}"
    path.mkdir(parents=True, exist_ok=True)
    return path
