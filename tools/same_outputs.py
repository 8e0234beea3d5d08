"""Compare what two checkouts of tenrank print and write, command by command.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots; each is run as
`python -m tenrank.cli` with its own `src/` first on PYTHONPATH.  The
corpus is a fixed list of CLI commands (`corpus`), each run with and
without `--json`.  Every run gets a fresh working directory, so the files a
command writes (`--out` targets, the default `protocol.json`) are collected
and compared too.  The inputs are written once, before any command runs,
into a directory both checkouts read: seeded tensors and witnesses built
by `bench/inputs.py` of the repository this script sits in (imported, never
modified).

For each command the report names every difference in stdout, stderr, exit
code or written file, with the first differing lines.  The exit code is 0
when every command matched and 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs as I  # noqa: E402

#: 10^400: an exact value no float holds
BIG = "1" + "0" * 400

#: one past tenrank's dense verification limit (tenrank.decomp.DENSE_VERIFY_LIMIT):
#: a witness with this many terms takes the randomized fallback check
FALLBACK_TERMS = 100_001

#: the prime of tenrank's modular flattening rank (tenrank.tensors.PRIME):
#: a tensor with this entry has a lower rank mod p than over the rationals
PRIME = 2147483629

#: a numerator past int64, which tenrank then keeps as a Python int
HUGE = 2 ** 63 + 5


def write_inputs(root: Path) -> dict:
    """The corpus's input files, written under `root`; name -> path."""
    rng = random.Random("same-outputs")
    phi3 = I.phi3()
    w2 = I.kron_tensor(I.w_state(), (2, 2, 2), I.w_state())
    phi3sq = I.kron_tensor(phi3, (4, 4, 4), phi3)
    phi3_terms, w2_terms = I.strassen_phi3_terms(), I.fiduccia_w2_terms()
    files = {}

    def write(name, payload):
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)

    def image(name, t, terms):
        # sim8 style: a transported image and its transported witness
        ops = [I.invertible_operator(rng, 4) for _ in range(3)]
        write(name, I.tensor_json((4, 4, 4), I.image(ops, (4, 4, 4), t)))
        write(f"{name}-witness", I.decomposition_json((4, 4, 4), I.transport(ops, terms)))

    write("phi3sq", I.tensor_json((16, 16, 16), phi3sq))
    for k in range(2):
        # ghz64 style: the 49 Kronecker-square terms, shuffled
        terms = I.kron_terms(phi3_terms, phi3_terms)
        rng.shuffle(terms)
        write(f"phi3sq-witness{k}", I.decomposition_json((16, 16, 16), terms))
    # the same 49 terms with every value spelled one of several ways: ints,
    # unreduced and padded strings, {"re", "im"} objects, repeats of each
    spellings = {-1: [-1, "-2/2", {"re": "-1"}, " -1", {"re": -1, "im": "0/3"}],
                 0: [0, "0", "-0", "0/7", {"im": 0}, {"re": "0", "im": "-0"}],
                 1: [1, "1", "3/3", {"re": 1}, {"re": "2/2", "im": 0}, "+1"]}
    count = iter(range(1 << 20))
    write("phi3sq-spelled", {"dims": [16, 16, 16], "terms": [
        {leg: [spellings[int(x[0])][next(count) % len(spellings[int(x[0])])] for x in vector]
         for leg, vector in zip("abc", term)}
        for term in I.kron_terms(phi3_terms, phi3_terms)]})
    for k in range(2):
        image(f"phi3-image{k}", phi3, phi3_terms)
        image(f"w2-image{k}", w2, w2_terms)
    write("ghz-class", I.tensor_json((2, 2, 2), I.ghz_class(rng)))
    write("w-class", I.tensor_json((2, 2, 2), I.w_class(rng)))
    write("big-lone", {"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": BIG}]})
    write("big-pair", {"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": BIG},
                                                      {"i": [1, 1, 1], "re": "1"}]})
    write("big-witness", {"dims": [2, 2, 2], "terms": [
        {"a": [BIG, "0"], "b": ["1", "0"], "c": ["1", "0"]},
        {"a": ["0", "1"], "b": ["0", "1"], "c": ["0", "1"]}]})
    # rank-deficient flattenings, which the modular rank hands to exact
    # elimination, and a tensor whose flattenings lose rank mod PRIME
    write("product", I.tensor_json((2, 2, 2), I.product_state(rng)))
    write("bisep", I.tensor_json((2, 2, 2), I.biseparable(rng, 1)))
    write("unlucky-prime", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": str(PRIME)}, {"i": [1, 1, 1], "re": "1"}]})
    # past the dense verification limit: FALLBACK_TERMS terms of +-1 that
    # cancel down to the 1x1x1 tensor 1, and a twin with one term changed
    # values spelled as no canonical encoder writes them, parsed by Fraction
    # or directly
    write("spelled", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "6/4"}, {"i": [0, 1, 1], "re": "-0", "im": " 3/4"},
        {"i": [1, 0, 1], "re": "1.5", "im": "-0"}, {"i": [1, 1, 0], "re": "1e1"},
        {"i": [1, 1, 1], "re": "1_0", "im": "6/4"}]})
    write("spelled-ghz", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "6/4", "im": "-0"}, {"i": [0, 1, 1], "re": "0e1"},
        {"i": [1, 1, 1], "re": "1_0", "im": " 3/4"}]})
    # numerators past int64 in the target and its witness
    write("huge", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": str(HUGE)}, {"i": [1, 1, 1], "re": "1/3", "im": str(HUGE)}]})
    write("huge-witness", {"dims": [2, 2, 2], "terms": [
        {"a": [str(HUGE), "0"], "b": ["1", "0"], "c": ["1", "0"]},
        {"a": ["0", {"re": "1/3", "im": str(HUGE)}], "b": ["0", "1"], "c": ["0", "1"]}]})
    write("zero-leg-witness", {"dims": [2, 2, 2], "terms": [
        {"a": ["0", "0"], "b": [f"1/{10 ** 22}", "0"], "c": ["1", "0"]}]})
    write("one", I.tensor_json((1, 1, 1), {(0, 0, 0): I.ONE}))
    signs = [I.q(1 - 2 * (k % 2)) for k in range(FALLBACK_TERMS)]
    write("cancel-witness", I.decomposition_json((1, 1, 1), [((I.ONE,), (I.ONE,), (sign,))
                                                               for sign in signs]))
    signs[-1] = I.q(2)
    write("cancel-twin", I.decomposition_json((1, 1, 1), [((I.ONE,), (I.ONE,), (sign,))
                                                            for sign in signs]))
    # drawn last, so every file above keeps its values: an image of GHZ(3),
    # and a target of rank 2 over C whose pencil has eigenvalues 1 +- sqrt(2)
    ops = [I.invertible_operator(rng, 3) for _ in range(3)]
    write("ghz3-image", I.tensor_json((3, 3, 3), I.image(ops, (3, 3, 3), I.ghz(3))))
    write("sqrt2", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "1"}, {"i": [1, 1, 0], "re": "1"}, {"i": [0, 1, 1], "re": "2"},
        {"i": [1, 0, 1], "re": "1"}]})
    # drawn after the above: an image of GHZ(4), whose pencil eigenvalues
    # rounding from floats misses; a GHZ-class target no registered fact
    # names; and PHI3 (x) PHI3 (x) e000, every flattening rank-deficient
    ops = [I.invertible_operator(rng, 4) for _ in range(3)]
    write("ghz4-image", I.tensor_json((4, 4, 4), I.image(ops, (4, 4, 4), I.ghz(4))))
    write("ghz-class-fixed", {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "2"}, {"i": [0, 0, 1], "re": "-1"},
        {"i": [0, 1, 0], "re": "1/3"}, {"i": [1, 0, 1], "re": "3", "im": "1"},
        {"i": [1, 1, 1], "re": "-5"}]})
    write("phi3sq-e000", I.tensor_json((32, 32, 32), I.kron_tensor(
        phi3sq, (2, 2, 2), {(0, 0, 0): I.ONE})))
    return files


def corpus(f: dict) -> list:
    """The commands, as argument lists without `--json`."""
    simulate = ["--simulate", "--out", "protocol.json"]
    return [
        # converts that build and simulate a protocol
        ["convert", "W2", "--ghz", "8", "--witness", "fiduccia8.json", "--simulate"],
        ["convert", "PHI3", "--ghz", "7", "--simulate"],
        *(["convert", f["phi3sq"], "--ghz", "64", "--witness", f[f"phi3sq-witness{k}"],
           *simulate] for k in range(2)),
        # as many GHZ levels as witness terms: no zero-padding columns
        ["convert", f["phi3sq"], "--ghz", "49", "--witness", f["phi3sq-witness0"], *simulate],
        ["convert", f["phi3sq"], "--ghz", "64", "--witness", f["phi3sq-spelled"], *simulate],
        *(["convert", f[name], "--ghz", "8", "--witness", f[f"{name}-witness"], *simulate]
          for name in ("phi3-image0", "w2-image0", "phi3-image1", "w2-image1")),
        ["convert", "GHZ", "--n", "1", "--ghz", "200", "--simulate"],
        # verdicts
        ["convert", "W", "--ghz", "2"],
        ["convert", "W", "--ghz", "3"],
        ["convert", f["ghz-class"], "--ghz", "2", "--seed", "5"],
        ["convert", "PHI3", "--ghz", "4"],
        ["convert", f["w-class"], "--ghz", "2"],
        ["convert", f["w-class"], "--ghz", "3"],
        ["convert", f["unlucky-prime"], "--ghz", "1"],
        # rank, verify, classify, state
        ["rank", "W", "--als", "2"],
        ["rank", "W", "--als", "0"],
        ["rank", "GHZ", "--als", "2", "--out", "als.json"],
        ["rank", "W2", "--witness", "strassen7.json"],
        ["rank", "W2", "--witness", "fiduccia8.json"],
        ["rank", f["phi3sq"], "--witness", f["phi3sq-witness0"]],
        ["verify", f["phi3sq"], "--witness", f["phi3sq-witness0"]],
        *(["rank", f[name]] for name in ("w-class", "product", "bisep", "unlucky-prime")),
        *(["classify", f[name]] for name in ("product", "bisep", "unlucky-prime")),
        ["verify", "MATMUL", "--witness", "strassen7.json"],
        ["verify", "W2", "--witness", "strassen7.json"],
        ["verify", f["phi3-image0"], "--witness", f["phi3-image0-witness"]],
        # the randomized fallback past the dense limit; the twin exits 3
        *([command, f["one"], "--witness", f[witness]]
          for witness in ("cancel-witness", "cancel-twin") for command in ("verify", "rank")),
        ["classify", "W"],
        ["classify", f["w-class"]],
        ["state", "PHI3"],
        ["state", "GHZ", "--n", "3", "--out", "state.json"],
        ["state", f["phi3-image0"]],
        ["state", f["phi3-image0"], "--out", "state.json"],
        # other spellings of the same values
        ["state", f["spelled"], "--out", "state.json"],
        ["classify", f["spelled"]],
        ["convert", f["spelled"], "--ghz", "8", "--simulate"],
        ["convert", f["spelled-ghz"], "--ghz", "2", "--simulate"],
        # the GHZ orbit at and above its rank, and a pencil with irrational eigenvalues
        ["convert", f["spelled-ghz"], "--ghz", "3"],
        ["convert", f["spelled-ghz"], "--ghz", "8"],
        ["convert", f["ghz3-image"], "--ghz", "3", "--simulate"],
        ["convert", f["sqrt2"], "--ghz", "2"],
        ["convert", f["ghz4-image"], "--ghz", "4"],
        # rank upper bounds from the exact step, and the exact flattening fallback
        ["rank", f["ghz-class-fixed"]],
        ["rank", f["phi3sq-e000"]],
        # numerators past int64
        ["rank", f["huge"]],
        ["rank", f["huge"], "--witness", f["huge-witness"]],
        ["verify", f["huge"], "--witness", f["huge-witness"]],
        # an all-zero witness leg beside a denominator past int64 (exit 2)
        ["verify", f["huge"], "--witness", f["zero-leg-witness"]],
        # matmul: exact with its check, and sizes past the dense cap, each
        # of which exits 2 with one error line (sizes that allocate before
        # the size check, such as exact --n 11 without --check, are left out)
        ["matmul", "--n", "3", "--check"],
        ["matmul", "--n", "11", "--check"],
        ["matmul", "--n", "40", "--bench"],
        # demos
        ["demo", "nonadditivity"],
        ["demo", "ghz3-to-w2"],
        ["demo", "ghz-to-phi3"],
        ["demo", "epr-rate"],
        # values no float holds (exit 2 with one error line since the
        # overflow fix; a traceback and exit 1 before it)
        ["convert", f["big-lone"], "--ghz", "1"],
        ["convert", f["big-pair"], "--ghz", "2", "--witness", f["big-witness"], *simulate],
        ["rank", f["big-lone"], "--als", "1"],
        # a slicing leg of flattening rank 1: exact rank-2 witnesses
        ["convert", f["bisep"], "--ghz", "2"],
        ["convert", "EPR", "--ghz", "2"],
        # --out into a missing directory (exit 2 with one error line)
        ["state", "PHI3", "--out", "missing/x.json"],
        ["rank", "GHZ", "--als", "2", "--out", "missing/x.json"],
        ["convert", "PHI3", "--ghz", "7", "--simulate", "--out", "missing/p.json"],
    ]


def run(checkout: Path, argv: list, workdir: Path) -> dict:
    """One command in a fresh working directory: its exit code, stdout,
    stderr and the files it left there."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "tenrank.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)
    written = {path.name: path.read_text(encoding="utf-8", errors="replace")
               for path in sorted(workdir.iterdir())}
    return {"exit code": str(proc.returncode), "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {name}": text for name, text in written.items()}}


def differences(parent: dict, change: dict) -> list:
    lines = []
    for key in sorted(set(parent) | set(change)):
        old, new = parent.get(key), change.get(key)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"  {key}: only in {'change' if old is None else 'parent'}")
            continue
        lines.append(f"  {key} differs:")
        diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "parent", "change",
                                    lineterm="", n=0)
        lines += [f"    {line[:160]}" for line in list(diff)[2:8]]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in args]
    for checkout in checkouts:
        if not (checkout / "src" / "tenrank" / "cli.py").is_file():
            print(f"error: {checkout} has no src/tenrank/cli.py", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        (root / "inputs").mkdir()
        commands = [[*json_flag, *base] for base in corpus(write_inputs(root / "inputs"))
                    for json_flag in ([], ["--json"])]
        differing = 0
        for n, command in enumerate(commands):
            parent, change = (run(checkout, command, root / side / str(n))
                              for checkout, side in zip(checkouts, ("parent", "change")))
            found = differences(parent, change)
            shown = " ".join(Path(arg).name if arg.startswith(tmp) else arg for arg in command)
            print(f"{'DIFF' if found else 'same'}  tenrank {shown}")
            for line in found:
                print(line)
            differing += bool(found)
    print(f"{len(commands)} commands, {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
