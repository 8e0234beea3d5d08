import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from conftest import invertible_matrix
import sampling

import tenrank
from tenrank import cli, slocc
from tenrank.bilinear import strassen_multiply
from tenrank.als import AlsConfig
from tenrank.cli import main
from tenrank.decomp import (
    ArrayTerms,
    ProductDecomposition,
    als_search,
    builtin_decomposition,
    builtin_state,
    builtin_witness,
    decomposition_from_json,
    decomposition_power,
    decomposition_to_json,
    float_decomposition_to_json,
    ghz_decomposition,
    verify_decomposition,
)
from tenrank.scalars import MINUS_ONE, ONE, ZERO
from tenrank.slocc import build_protocol, protocol_to_json
from tenrank.tensors import tensor_from_json, tensor_product, tensor_to_json

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- state ----------------------------------------------------------------------


def test_state_phi3(capsys):
    code, out, _ = run(capsys, "state", "PHI3")
    assert code == 0
    assert "dims [4, 4, 4]" in out and "nonzeros 8" in out


def test_state_ghz_copies(capsys):
    code, out, _ = run(capsys, "state", "GHZ", "--n", "3")
    assert code == 0
    assert "dims [8, 8, 8]" in out and "nonzeros 8" in out


def test_state_w2_nonzero_count(capsys):
    code, out, _ = run(capsys, "state", "W2")
    assert code == 0
    assert "nonzeros 9" in out


def test_state_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "state", "NOSUCH")
    assert code == 2
    assert "error" in err


def test_state_out_round_trips(capsys, tmp_path):
    out_file = tmp_path / "phi3.json"
    code, _, _ = run(capsys, "state", "PHI3", "--out", str(out_file))
    assert code == 0
    loaded = tensor_from_json(json.loads(out_file.read_text()))
    assert loaded == builtin_state("PHI3")
    assert out_file.read_text() == json.dumps(tensor_to_json(loaded), indent=2)


def test_state_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "state", str(bad))
    assert code == 2 and "JSON" in err
    term = {"a": ["1", "0", "0", "0"], "b": ["1", "0", "0", "0"], "c": ["1", "0", "0", "0"]}
    malformed = [
        ("state", {"dims": [2, 2, 2], "entries": [{"re": "1"}]}),  # no "i"
        ("state", {"dims": [2, 2, 2], "entries": [{"i": [0, 0], "re": "1"}]}),
        ("state", {"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": [1]}]}),
        ("state", {"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": "1", "im": None}]}),
        ("state", {"dims": [2, 2, 2], "entries": 5}),
        ("state", {"dims": [2, 2, 2], "entries": ["x"]}),
        ("witness", {"dims": [4, 4, 4], "terms": [{"a": term["a"], "b": term["b"]}]}),
        ("witness", {"dims": [4, 4, 4], "terms": [dict(term, c=5)]}),
        ("witness", {"dims": [4, 4, 4], "terms": [dict(term, c=[{"re": [1]}] * 4)]}),
        ("witness", {"dims": [4, 4], "terms": [term]}),
        ("witness", {"dims": [4, 4, 4], "terms": ["x"]}),
    ]
    for kind, payload in malformed:
        bad.write_text(json.dumps(payload))
        argv = ("state", str(bad)) if kind == "state" else ("rank", "PHI3", "--witness", str(bad))
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:"), (payload, err)


def test_state_matmul_golden(capsys, tmp_path):
    out_file = tmp_path / "mm.json"
    code, _, _ = run(capsys, "state", "MATMUL", "--dims", "2", "2", "2",
                     "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(
        (GOLDEN / "matmul222.json").read_text()
    )


# -- rank -----------------------------------------------------------------------


def test_rank_phi3_with_packaged_witness(capsys):
    code, out, _ = run(capsys, "rank", "PHI3", "--witness", "strassen7-phi3.json")
    assert code == 0
    assert "upper=7 lower=7 rank=7" in out


def test_rank_ghz_builtin_upper(capsys):
    code, out, _ = run(capsys, "rank", "GHZ")
    assert code == 0
    assert "upper=2 lower=2 rank=2" in out


def test_rank_reports_the_exact_step_upper_bound(capsys, tmp_path):
    # a GHZ-class target no registered fact names: simultaneous
    # diagonalization gives the 2-term witness that `convert --ghz 2` uses
    path = tmp_path / "ghz-class.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "2"}, {"i": [0, 0, 1], "re": "-1"},
        {"i": [0, 1, 0], "re": "1/3"}, {"i": [1, 0, 1], "re": "3", "im": "1"},
        {"i": [1, 1, 1], "re": "-5"}]}))
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0
    assert out.splitlines() == ["flattening ranks A=2 B=2 C=2", "upper=2 lower=2 rank=2"]
    code, out, _ = run(capsys, "--json", "rank", str(path))
    assert code == 0
    assert json.loads(out) == {"flattening_ranks": {"A": 2, "B": 2, "C": 2}, "lower": 2,
                               "upper": 2}
    code, out, _ = run(capsys, "--json", "convert", str(path), "--ghz", "2")
    assert code == 0 and json.loads(out)["upper_bound"] == 2
    # p e000 + e111, all of whose flattenings lose rank mod p, and numerators
    # past int64
    for entries in ([{"i": [0, 0, 0], "re": "2147483629"}, {"i": [1, 1, 1], "re": "1"}],
                    [{"i": [0, 0, 0], "re": str(2 ** 63 + 5)},
                     {"i": [1, 1, 1], "re": "1/3", "im": str(2 ** 63 + 5)}]):
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries}))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0 and out.splitlines()[-1] == "upper=2 lower=2 rank=2"


def test_rank_w_als_border(capsys):
    code, out, _ = run(capsys, "rank", "W", "--als", "2")
    assert code == 0
    assert "NotFound" in out and "border_flag=true" in out
    code, out, _ = run(capsys, "--json", "rank", "W", "--als", "2")
    assert code == 0
    als = json.loads(out)["als"]
    assert als["found"] is False and als["border_flag"] is True


def test_rank_witness_mismatch_exits_3(capsys):
    code, out, _ = run(capsys, "rank", "W2", "--witness", "strassen7.json")
    assert code == 3
    assert "MISMATCH" in out


def test_rank_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "rank", "PHI3",
                       "--witness", "strassen7-phi3.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flattening_ranks"] == {"A": 4, "B": 4, "C": 4}
    assert payload["known_rank"]["rank"] == 7
    assert payload["witness"] == {"ok": True, "terms": 7}
    assert payload["upper"] == 7 and payload["lower"] == 7


# -- verify ----------------------------------------------------------------------


def test_verify_exact_match(capsys):
    code, out, _ = run(capsys, "verify", "MATMUL", "--witness", "strassen7.json")
    assert code == 0 and "ExactMatch" in out


def test_verify_mismatch_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "W2", "--witness", "strassen7.json")
    assert code == 3 and "Mismatch at index" in out


def test_verify_user_file(capsys, tmp_path):
    witness = tmp_path / "ghz4.json"
    witness.write_text(json.dumps(decomposition_to_json(ghz_decomposition(4))))
    code, out, _ = run(capsys, "verify", "GHZ", "--n", "2", "--witness", str(witness))
    assert code == 0 and "ExactMatch (4 terms)" in out


# -- convert ---------------------------------------------------------------------


def test_convert_w2_yes_with_simulation(capsys, tmp_path):
    protocol_file = tmp_path / "protocol.json"
    code, out, _ = run(capsys, "convert", "W2", "--ghz", "8",
                       "--witness", "fiduccia8.json", "--simulate",
                       "--out", str(protocol_file))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["verdict"] == "yes"
    assert lines[1]["fidelity"] >= 1 - 1e-10
    assert lines[1]["probability"] > 0
    payload = json.loads(protocol_file.read_text())
    assert payload["source_dim"] == 8 and payload["success_probability"] > 0
    # the file is the protocol's text, byte for byte
    protocol = build_protocol(decomposition_from_json(json.loads(
        resources.files("tenrank").joinpath("witnesses", "fiduccia8.json").read_text())), 8)
    assert protocol_file.read_text() == protocol_to_json(protocol)


def test_convert_phi3_no_exits_4(capsys):
    code, out, _ = run(capsys, "convert", "PHI3", "--ghz", "4")
    assert code == 4
    assert json.loads(out.strip().splitlines()[0])["verdict"] == "no"


def test_convert_phi3_seven_levels_yes(capsys, tmp_path):
    out_file = tmp_path / "phi3-protocol.json"
    code, out, _ = run(capsys, "convert", "PHI3", "--ghz", "7",
                       "--witness", "strassen7-phi3.json", "--simulate",
                       "--out", str(out_file))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["verdict"] == "yes"
    assert lines[1]["fidelity"] >= 1 - 1e-10
    assert json.loads(out_file.read_text())["source_dim"] == 7


def test_convert_witness_mismatch_exits_3(capsys):
    code, _, err = run(capsys, "convert", "W2", "--ghz", "8",
                       "--witness", "strassen7.json")
    assert code == 3
    assert "mismatch" in err


def test_convert_wrong_dims_witness_exits_3(capsys, tmp_path):
    witness = tmp_path / "ghz2.json"
    witness.write_text(json.dumps(decomposition_to_json(ghz_decomposition(2))))
    code, out, err = run(capsys, "convert", "W2", "--ghz", "8", "--witness", str(witness))
    assert code == 3
    assert out == "" and "mismatch" in err


def test_verify_and_rank_wrong_dims_witness_exit_3(capsys, tmp_path):
    witness = tmp_path / "ghz2.json"
    witness.write_text(json.dumps(decomposition_to_json(ghz_decomposition(2))))
    malformed = tmp_path / "two_dims.json"
    malformed.write_text(json.dumps({"dims": [2, 2], "terms": []}))
    for command in (("verify", "W2", "--witness"), ("rank", "W2", "--witness")):
        code, out, err = run(capsys, *command, str(witness))
        assert code == 3 and out == "" and "dims mismatch" in err, command
        code, out, err = run(capsys, *command, str(malformed))
        assert code == 2 and out == "" and err.startswith("error:"), command


def test_convert_simulate_verifies_caller_witness_once(capsys, tmp_path, monkeypatch):
    # for the verdict; building the protocol reuses that check of the same pair
    import sys

    from tenrank import decomp

    original = decomp.verify_decomposition
    calls = []

    def counting(t, d):
        calls.append(len(d.terms))
        return original(t, d)

    for name, module in list(sys.modules.items()):
        if name.startswith("tenrank") and getattr(module, "verify_decomposition",
                                                  None) is original:
            monkeypatch.setattr(module, "verify_decomposition", counting)
    code, _, _ = run(capsys, "convert", "W2", "--ghz", "8", "--witness", "fiduccia8.json",
                     "--simulate", "--out", str(tmp_path / "protocol.json"))
    assert code == 0
    assert calls == [8]


def test_convert_simulate_beyond_the_dense_cap_exits_2(capsys, tmp_path):
    # the verdict is printed; the GHZ(200) source would exceed the dense
    # cap, so nothing is simulated or written
    out_file = tmp_path / "protocol.json"
    code, out, err = run(capsys, "convert", "GHZ", "--n", "1", "--ghz", "200", "--simulate",
                         "--out", str(out_file))
    assert code == 2
    assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["yes"]
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "exceeds the dense cap" in err
    assert not out_file.exists()


def _ghz64_style_files(tmp_path):
    """PHI3 (x) PHI3 and a shuffled 49-term witness, as tensor and
    decomposition files."""
    phi3 = builtin_state("PHI3")
    target = tensor_product(phi3, phi3)
    base = builtin_witness(phi3, "PHI3")
    terms = list(decomposition_power(base, 2).terms)
    random.Random(64).shuffle(terms)
    tensor_file, witness_file = tmp_path / "phi3sq.json", tmp_path / "w49.json"
    tensor_file.write_text(json.dumps(tensor_to_json(target)))
    witness_file.write_text(json.dumps(decomposition_to_json(
        ProductDecomposition(target.dims, tuple(terms)))))
    return str(tensor_file), str(witness_file)


def test_ghz64_convert_does_per_distinct_value_work(capsys, tmp_path, monkeypatch):
    # no dense tensor is built, the loaded target and witness hold integer
    # arrays, and the JSON encoder sees each distinct witness value once
    from tenrank import cli, decomp, scalars, tensors

    tensor_file, witness_file = _ghz64_style_files(tmp_path)
    sizes, encoded, loaded = [], [], []
    original_init = tensors.Tensor3.__init__

    def init(self, dims, entries):
        sizes.append(dims[0] * dims[1] * dims[2])
        original_init(self, dims, entries)

    def encode(re, im, den):
        encoded.append(scalars.from_gaussian(re, im, den))
        return scalars.gaussian_to_json(re, im, den)

    def loading(original):
        return lambda payload: loaded.append(original(payload)) or loaded[-1]

    monkeypatch.setattr(tensors.Tensor3, "__init__", init)
    monkeypatch.setattr(decomp, "gaussian_to_json", encode)
    monkeypatch.setattr(cli, "tensor_from_json", loading(cli.tensor_from_json))
    monkeypatch.setattr(cli, "decomposition_from_json", loading(cli.decomposition_from_json))
    code, out, _ = run(capsys, "--json", "convert", tensor_file, "--ghz", "64",
                       "--witness", witness_file, "--simulate",
                       "--out", str(tmp_path / "protocol.json"))
    assert code == 0
    verdict, simulation = (json.loads(line) for line in out.splitlines())
    assert verdict["upper_bound"] == 49 and len(verdict["witness"]["terms"]) == 49
    assert simulation["fidelity"] >= 1 - 1e-10
    assert sizes == []

    target, witness = loaded
    # the target's 64 ones and the witness's three distinct values "0", "1",
    # "-1" are kept as integer numerators
    assert target.nnz() == 64 and target.values.den == 1
    assert set(target.values.re.tolist()) == {1} and not target.values.im.any()
    assert isinstance(witness.terms, ArrayTerms)
    assert {(x, y, leg.den) for leg in witness.terms.legs()
            for x, y in zip(leg.re.ravel().tolist(), leg.im.ravel().tolist())} \
        == {(0, 0, 1), (1, 0, 1), (-1, 0, 1)}
    assert len(set(encoded)) == len(encoded) and set(encoded) <= {ZERO, ONE, MINUS_ONE}


def test_w_class_file_has_rank_lower_bound_3_and_converts_to_no(capsys, tmp_path):
    # an image of W that is not W itself: no registered fact matches, and
    # the 2x2x2 rank test gives the lower bound 3
    from tenrank.tensors import LocalOperatorTriple, apply_local_operators

    rng = random.Random(93)
    ops = LocalOperatorTriple(*(invertible_matrix(rng, 2, complex_parts=True,
                                                  max_num=3, max_den=3)
                                for _ in range(3)))
    path = tmp_path / "w-class.json"
    path.write_text(json.dumps(tensor_to_json(apply_local_operators(ops, builtin_state("W")))))
    code, out, _ = run(capsys, "--json", "rank", str(path))
    assert code == 0
    assert json.loads(out) == {"flattening_ranks": {"A": 2, "B": 2, "C": 2}, "lower": 3}
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and out.splitlines()[-1] == "lower=3"
    code, out, _ = run(capsys, "convert", str(path), "--ghz", "2")
    verdict = json.loads(out)
    assert code == 4 and (verdict["verdict"], verdict["lower_bound"]) == ("no", 3)
    assert verdict["reason"].startswith("2x2x2 rank test: rank >= 3 > 2")


def test_values_beyond_the_float_range_exit_2(capsys, tmp_path):
    # 10^400 is exact, but no float holds it: the float stages (the ALS
    # search's dense array, the protocol's operators) report it as an error
    big = "1" + "0" * 400
    lone = tmp_path / "lone.json"
    lone.write_text(json.dumps({"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": big}]}))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": big}, {"i": [1, 1, 1], "re": "1"}]}))
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"dims": [2, 2, 2], "terms": [
        {"a": [big, "0"], "b": ["1", "0"], "c": ["1", "0"]},
        {"a": ["0", "1"], "b": ["0", "1"], "c": ["0", "1"]}]}))
    out_file = tmp_path / "protocol.json"
    for argv, verdict_lines in (
            (("convert", str(lone), "--ghz", "1"), 0),
            (("convert", str(pair), "--ghz", "2", "--witness", str(witness), "--simulate",
              "--out", str(out_file)), 1),
            (("rank", str(lone), "--als", "1"), 0)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert len(out.splitlines()) == verdict_lines, argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv
        assert "float range" in err, argv
    assert not out_file.exists()


def test_simulate_with_a_witness_past_the_float_range_in_any_leg_exits_2(capsys, tmp_path):
    # the protocol's float operators are divided from the witness's legs;
    # a value no float holds, in leg a, b or c, is one error line and exit 2
    big = "1" + "0" * 400
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": big}, {"i": [1, 1, 1], "re": "1"}]}))
    for leg in "abc":
        terms = [{"a": ["1", "0"], "b": ["1", "0"], "c": ["1", "0"]},
                 {"a": ["0", "1"], "b": ["0", "1"], "c": ["0", "1"]}]
        terms[0][leg] = [big, "0"]
        witness = tmp_path / f"witness-{leg}.json"
        witness.write_text(json.dumps({"dims": [2, 2, 2], "terms": terms}))
        out_file = tmp_path / f"protocol-{leg}.json"
        code, out, err = run(capsys, "convert", str(target), "--ghz", "2", "--witness",
                             str(witness), "--simulate", "--out", str(out_file))
        assert code == 2 and json.loads(out)["verdict"] == "yes", leg
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "float range" in err
        assert not out_file.exists()


def test_convert_witness_with_a_repeated_malformed_string_exits_2(capsys, tmp_path):
    payload = decomposition_to_json(builtin_decomposition("FIDUCCIA8_W2"))
    for item in payload["terms"]:
        item["a"] = ["1/0"] * 4
    witness = tmp_path / "bad.json"
    witness.write_text(json.dumps(payload))
    code, out, err = run(capsys, "convert", "W2", "--ghz", "8", "--witness", str(witness),
                         "--simulate", "--out", str(tmp_path / "protocol.json"))
    assert code == 2 and out == "" and err.startswith("error:") and "1/0" in err
    assert not (tmp_path / "protocol.json").exists()


def test_tensor_files_keep_every_spelling_fraction_reads(capsys, tmp_path):
    # strings off the integer fast path keep Fraction's values and errors
    def entries(*values):
        return [{"i": [k // 4, k // 2 % 2, k % 2], "re": v} for k, v in enumerate(values)]

    path = tmp_path / "spelled.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries(
        "6/4", "-0", " 3/4", "1.5", "1e1", "1_0") + [{"i": [1, 1, 1], "re": "0", "im": "-0"}]}))
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "state", str(path), "--out", str(out_file))
    assert code == 0
    assert [(e["i"], e["re"]) for e in json.loads(out_file.read_text())["entries"]] == [
        ([0, 0, 0], "3/2"), ([0, 1, 0], "3/4"), ([0, 1, 1], "3/2"), ([1, 0, 0], "10"),
        ([1, 0, 1], "10")]
    for bad in ("1/0", "3/-4"):
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries("1", bad)}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and bad in err


def test_parser_is_built_on_the_first_main_call_and_reused():
    # a fresh interpreter, so no earlier test has built the parser yet
    script = """
import contextlib, io
from tenrank import cli
assert cli._parser.cache_info().currsize == 0, "parser built at import"
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "W"]) == 0
info = cli._parser.cache_info()
assert (info.misses, info.hits) == (1, 1), info
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tenrank.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rank_als_writes_float_decomposition(capsys, tmp_path):
    out_file = tmp_path / "ghz-float.json"
    code, out, _ = run(capsys, "rank", "GHZ", "--als", "2", "--out", str(out_file))
    assert code == 0 and "Found" in out
    payload = json.loads(out_file.read_text())
    assert payload["exact"] is False and len(payload["terms"]) == 2
    found = als_search(builtin_state("GHZ", 2), 2, AlsConfig(seed=0))
    assert out_file.read_text() == json.dumps(float_decomposition_to_json((2, 2, 2),
                                                                          found.factors))


def test_convert_unknown_exits_5(capsys):
    # W(x)W at five levels: flattening bound 4 passes, no registered fact,
    # and the numeric search cannot certify an exact 5-term witness
    code, out, _ = run(capsys, "convert", "W2", "--ghz", "5")
    assert code == 5
    assert json.loads(out.strip().splitlines()[0])["verdict"] == "unknown"


def test_convert_on_the_ghz_orbit_does_not_depend_on_the_seed(capsys, tmp_path, monkeypatch):
    # the exact step decides with no search, so --seed changes nothing
    monkeypatch.setattr(slocc, "als_search", lambda *args: pytest.fail("searched"))
    path = tmp_path / "ghz-class.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "2"}, {"i": [0, 0, 1], "re": "-1"}, {"i": [0, 1, 0], "re": "1/3"},
        {"i": [1, 0, 1], "re": "3", "im": "1"}, {"i": [1, 1, 1], "re": "-5"}]}))
    outputs = [run(capsys, "--json", "convert", str(path), "--ghz", "3", "--seed", seed)
               for seed in ("0", "7")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    verdict = json.loads(outputs[0][1])
    assert (verdict["verdict"], verdict["upper_bound"], len(verdict["witness"]["terms"])) == (
        "yes", 2, 2)


# -- classify ---------------------------------------------------------------------


def test_classify_representatives(capsys):
    assert run(capsys, "classify", "W")[1].strip() == "w"
    assert run(capsys, "classify", "GHZ")[1].strip() == "ghz"


def test_classify_wrong_dims_exits_2(capsys):
    code, _, err = run(capsys, "classify", "PHI3")
    assert code == 2 and "error" in err


# -- matmul -----------------------------------------------------------------------


def test_matmul_check_small(capsys):
    code, out, _ = run(capsys, "matmul", "--n", "3", "--check")
    assert code == 0
    assert "nonscalar_mults=343" in out and "exact match vs naive" in out


def test_matmul_scalar_case(capsys):
    code, out, _ = run(capsys, "matmul", "--n", "0")
    assert code == 0 and "nonscalar_mults=1" in out


def test_matmul_operands_keep_the_seeded_stream(capsys, monkeypatch):
    # matmul prints no operand, so check its draws against the generator the
    # tests keep: per entry randint(-9, 9) then randint(1, 2), no imaginary part
    operands = []

    def recording(x, y, **kwargs):
        operands.append((x, y))
        return strassen_multiply(x, y, **kwargs)

    monkeypatch.setattr(cli, "strassen_multiply", recording)
    for seed in range(5):
        for k, size in ((0, 1), (2, 4), (3, 8)):
            assert run(capsys, "matmul", "--n", str(k), "--seed", str(seed))[0] == 0
            rng = random.Random(seed)
            expected = tuple(sampling.matrix(rng, size, size, max_num=9, max_den=2)
                             for _ in range(2))
            assert operands[-1] == expected


def test_matmul_check_cap(capsys):
    code, _, err = run(capsys, "matmul", "--n", "11", "--check")
    assert code == 2 and "--n <= 10" in err


@pytest.mark.parametrize("argv", [
    ("state", "GHZ", "--n", "30"),
    ("state", "MATMUL", "--dims", "1000", "1000", "1000"),
    ("matmul", "--n", "40", "--bench"),
    ("matmul", "--n", "11"),
])
def test_sizes_past_the_dense_cap_exit_2_before_any_entry_is_built(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "exceeds the dense cap" in err
    if argv[0] == "matmul":
        assert "--n <= 10" in err


def test_rank_als_zero_exits_2_like_negative_ranks(capsys):
    for rank in ("0", "-1"):
        code, out, err = run(capsys, "rank", "W", "--als", rank)
        assert code == 2 and out == "" and err.startswith("error:"), rank


def test_matmul_bench_line(capsys):
    code, out, _ = run(capsys, "matmul", "--n", "2", "--bench")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "cutoff", "nonscalar_mults", "additions", "wall_ns"}
    assert payload["nonscalar_mults"] == 49
    assert payload["wall_ns"] > 0


def test_matmul_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "matmul", "--n", "2", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["nonscalar_mults"] == 49 and payload["check"] == "ok"


# -- demos ------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["nonadditivity", "ghz3-to-w2", "ghz-to-phi3",
                                  "epr-rate"])
def test_demos_pass(capsys, name):
    code, out, _ = run(capsys, "demo", name)
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_demo_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "demo", "nonadditivity")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(check["ok"] for check in payload["checks"])


def test_demo_epr_rate_accounting(capsys):
    code, out, _ = run(capsys, "--json", "demo", "epr-rate")
    assert code == 0
    payload = json.loads(out)
    assert "18" in payload["summary"] and "17" in payload["summary"]


# -- determinism --------------------------------------------------------------------


def test_rank_als_deterministic_given_seed(capsys):
    first = run(capsys, "rank", "W", "--als", "3", "--seed", "7")
    second = run(capsys, "rank", "W", "--als", "3", "--seed", "7")
    assert first == second


def test_matmul_deterministic_given_seed(capsys):
    first = run(capsys, "--json", "matmul", "--n", "2", "--seed", "3")
    second = run(capsys, "--json", "matmul", "--n", "2", "--seed", "3")
    assert first == second


# -- packaged witnesses are re-verified, never trusted ------------------------------


def test_packaged_witnesses_verify_against_their_targets():
    from importlib import resources

    from tenrank.bilinear import matmul_tensor
    from tenrank.decomp import decomposition_from_json, verify_decomposition

    targets = {
        "strassen7.json": matmul_tensor(2, 2, 2),
        "strassen7-phi3.json": builtin_state("PHI3"),
        "fiduccia8.json": builtin_state("W2"),
    }
    for name, target in targets.items():
        payload = json.loads(
            resources.files("tenrank").joinpath("witnesses", name).read_text()
        )
        witness = decomposition_from_json(payload)
        assert verify_decomposition(target, witness).ok


def test_packaged_witness_files_equal_the_builtins():
    # the schemes exist both as code and as files: the two copies must agree
    from tenrank.bilinear import phi3_matmul_witness
    from tenrank.decomp import fiduccia8_w2_decomposition, strassen7_decomposition, transport

    builtins = {
        "strassen7.json": strassen7_decomposition(),
        "fiduccia8.json": fiduccia8_w2_decomposition(),
        "strassen7-phi3.json": transport(phi3_matmul_witness(), strassen7_decomposition()),
    }
    for name, built in builtins.items():
        payload = json.loads(resources.files("tenrank").joinpath("witnesses", name).read_text())
        assert decomposition_from_json(payload) == built, name


# -- output files -------------------------------------------------------------------


@pytest.mark.parametrize("argv, verdict_lines", [
    (("state", "PHI3"), 0),
    (("rank", "GHZ", "--als", "2"), 0),
    (("convert", "PHI3", "--ghz", "7", "--simulate"), 1),
])
def test_out_to_an_unwritable_path_exits_2(capsys, tmp_path, argv, verdict_lines):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert len(out.splitlines()) == verdict_lines
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert not target.parent.exists()


# -- a slicing leg of flattening rank 1 ---------------------------------------------


def test_biseparable_targets_get_an_exact_rank_2_witness(capsys, tmp_path, monkeypatch):
    # (e0 + 2 e1)_A (x) (e00 + i e11)_BC: flattening ranks 1, 2, 2, so the
    # slices along A are multiples of one rank-2 matrix; no search runs
    monkeypatch.setattr(slocc, "als_search", lambda *args: pytest.fail("searched"))
    path = tmp_path / "bisep.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "1"}, {"i": [0, 1, 1], "im": "1"},
        {"i": [1, 0, 0], "re": "2"}, {"i": [1, 1, 1], "im": "2"}]}))
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0
    assert out.splitlines() == ["flattening ranks A=1 B=2 C=2", "upper=2 lower=2 rank=2"]
    code, out, _ = run(capsys, "--json", "convert", str(path), "--ghz", "2")
    verdict = json.loads(out)
    assert code == 0 and (verdict["verdict"], verdict["upper_bound"]) == ("yes", 2)
    witness = decomposition_from_json(verdict["witness"])
    assert len(witness.terms) == 2
    assert verify_decomposition(tensor_from_json(json.loads(path.read_text())), witness).ok
    # the product state has no two legs of dimension and rank r: unchanged
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [{"i": [0, 0, 0], "re": "1"}]}))
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and out.splitlines()[-1] == "lower=1"
