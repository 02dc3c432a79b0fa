"""CLI contract: schemas, exit codes, determinism, golden outputs."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path


import exchkit
from exchkit.cli import main
from exchkit.serialize import law_from_dict

DATA = Path(__file__).parent / "data"
URN_LAW = '{"alphabet": ["0","1"], "n": 2, "weights": {"1:1": "1"}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extend_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "extend", URN_LAW, "--N", "3")
    assert code == 0
    assert out == (DATA / "golden_extend_urn_N3.json").read_text()
    report = json.loads(out)
    assert report["verdict"] == "not_extendible"
    assert report["norm"] == "2/1"


def test_norm_golden_and_trivial_target(capsys):
    code, out, _ = run_cli(capsys, "norm", URN_LAW, "--N", "2")
    assert code == 0
    assert out == (DATA / "golden_norm_N2.json").read_text()
    assert json.loads(out)["norm"] == "1/1"


def test_urn_golden(capsys):
    code, out, _ = run_cli(
        capsys, "urn", '{"alphabet": ["a","b"], "type": "2:2"}', "--N", "2"
    )
    assert code == 0
    assert out == (DATA / "golden_urn_22.json").read_text()


def test_invert_golden(capsys):
    # a tied count and a zero slot: the golden pins the relabelling order
    code, out, _ = run_cli(
        capsys, "invert", '{"alphabet":["a","b","c","d"],"type":"1:0:2:1"}', "--N", "6"
    )
    assert code == 0
    assert out == (DATA / "golden_invert_1021_N6.json").read_text()



def test_probe_grid_matches_golden(capsys):
    # certified by the depth-4 grid with 3 atoms, after a sweep to N = 5
    code, out, _ = run_cli(
        capsys, "probe",
        '{"alphabet":["a","b"],"n":2,"weights":{"2:0":"5/16","1:1":"3/8","0:2":"5/16"}}',
        "--max-N", "5", "--grid-depth", "4",
    )
    assert code == 0
    assert out == (DATA / "golden_probe_grid.json").read_text()


def test_probe_iid_matches_golden(capsys):
    # (1/3, 2/3)^2 is on neither the depth-1 nor the depth-2 grid: its
    # one-coordinate marginal certifies it, so no grid depth is used
    code, out, _ = run_cli(
        capsys, "probe",
        '{"alphabet":["a","b"],"n":2,"weights":{"2:0":"1/9","1:1":"4/9","0:2":"4/9"}}',
        "--max-N", "8", "--grid-depth", "1",
    )
    assert code == 0
    assert out == (DATA / "golden_probe_iid.json").read_text()


def test_represent_doubling_matches_golden(capsys):
    # the depth-1 grid cannot represent the law; depth 2 does, at total variation 2
    code, out, _ = run_cli(
        capsys, "represent",
        '{"alphabet":["a","b","c"],"n":2,"weights":{"1:1:0":"1/2","0:0:2":"1/2"}}',
        "--grid-depth", "1",
    )
    assert code == 0
    assert out == (DATA / "golden_represent_doubling.json").read_text()


def test_corpus_all_matches_golden(capsys):
    # also pins the covariance_bound values of the pairs entry
    code, out, _ = run_cli(capsys, "corpus", "all")
    assert code == 0
    assert out == (DATA / "golden_corpus_all.json").read_text()


def test_outputs_stable_across_runs(capsys):
    first = run_cli(capsys, "extend", URN_LAW, "--N", "4")
    second = run_cli(capsys, "extend", URN_LAW, "--N", "4")
    assert first == second


def test_emitted_laws_reparse_identically(capsys):
    code, out, _ = run_cli(capsys, "urn", '{"alphabet": ["a","b","c"], "type": "2:1:1"}', "--N", "3")
    assert code == 0
    law_json = json.loads(out)["law"]
    law = law_from_dict(law_json)
    code2, out2, _ = run_cli(capsys, "extend", json.dumps(law_json), "--N", "4")
    assert code2 == 0
    assert json.loads(out2)["verdict"] == "extendible"
    witness = json.loads(out2)["witness"]
    assert law_from_dict(witness).n == 4


def test_brute_force_flags_agree(capsys):
    code, out, _ = run_cli(
        capsys, "urn", '{"alphabet": ["a","b"], "type": "3:2"}', "--N", "3", "--brute-force"
    )
    assert code == 0 and json.loads(out)["brute_force"]["agrees"]

    code, out, _ = run_cli(capsys, "norm", URN_LAW, "--N", "3", "--brute-force")
    assert code == 0
    assert json.loads(out)["brute_force"] == {
        "agrees": True,
        "status": "optimal",
        "value": "2/1",
    }


def test_probe_and_represent(capsys):
    code, out, _ = run_cli(capsys, "probe", URN_LAW, "--max-N", "5", "--grid-depth", "2")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "refuted_at" and report["failing_N"] == 3

    code, out, _ = run_cli(capsys, "represent", URN_LAW, "--grid-depth", "2")
    assert code == 0
    assert json.loads(out)["total_variation"] == "3/1"


def test_represent_never_runs_out_of_grid(capsys):
    # depths 1..16 cannot carry a mass-17 law; depth 32 can
    from exchkit.corpus import urn_without_replacement
    from exchkit.serialize import law_to_dict

    law = json.dumps(law_to_dict(urn_without_replacement(17, 8)))
    code, out, err = run_cli(capsys, "represent", law, "--grid-depth", "1")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["reconstruction_exact"] is True and report["total_mass"] == "1/1"


def test_invert_subcommand(capsys):
    code, out, _ = run_cli(capsys, "invert", '{"alphabet": ["a","b"], "type": "1:1"}', "--N", "3")
    assert code == 0
    report = json.loads(out)
    assert report["reconstruct_check"] is True
    assert report["table"]["l1"] == "2/1"


def test_lp_verify_round_trip(capsys):
    lp = {
        "sense": "max",
        "objective": ["1", "1"],
        "constraints": [
            {"coeffs": ["1", "0"], "rel": "<=", "rhs": "1/3"},
            {"coeffs": ["0", "1"], "rel": "<=", "rhs": "2/7"},
        ],
    }
    code, out, _ = run_cli(capsys, "lp-verify", json.dumps(lp))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["objective_value"] == "13/21"
    assert report["verified"] is True
    assert report["lp"]["objective"] == ["1/1", "1/1"]


def test_corpus_pairs_reports_covariance(capsys):
    code, out, _ = run_cli(capsys, "corpus", "pairs", "--max-N", "12")
    assert code == 0
    claims = json.loads(out)["claims"]
    assert claims["covariance"]["cov"] == "3/16"
    assert claims["probe"]["outcome"] == "refuted_at"


def test_corpus_urn_and_dyadic(capsys):
    code, out, _ = run_cli(capsys, "corpus", "urn", "--n", "3", "--ones", "1", "--max-N", "5")
    assert code == 0
    assert json.loads(out)["claims"]["not_extendible_for_all_larger_N"] is True

    code, out, _ = run_cli(capsys, "corpus", "dyadic-max", "--level", "1", "--profile", "1,1/2")
    assert code == 0
    claims = json.loads(out)["claims"]
    assert claims["weights_nonnegative"] and claims["reconstruction_exact"]
    assert claims["extendible"] == {"3": True, "4": True}
    assert claims["mixture_certifies_infinite"] is True


def test_corpus_urn_needs_a_larger_N(capsys):
    # a non-extendible urn checked at no N at all would be a vacuous claim
    for top in ("2", "3"):
        code, out, err = run_cli(capsys, "corpus", "urn", "--n", "3", "--ones", "1", "--max-N", top)
        assert code == 1 and out == "" and "--max-N" in err
    code, out, _ = run_cli(capsys, "corpus", "urn", "--n", "3", "--ones", "1", "--max-N", "4")
    assert code == 0 and json.loads(out)["claims"]["checked_N"] == [4]


def test_corpus_all_runs_every_family(capsys):
    code, out, _ = run_cli(capsys, "corpus", "all")
    assert code == 0
    entries = json.loads(out)["corpus"]
    assert [e["name"] for e in entries] == ["urn", "pairs", "dyadic-max", "dyadic-max"]
    assert entries[0]["claims"]["not_extendible_for_all_larger_N"] is True
    assert entries[1]["claims"]["refuted"] is True
    assert all(e["claims"]["mixture_certifies_infinite"] for e in entries[2:])


def test_exit_code_1_on_bad_input(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, "extend", '{"alphabet": ["a"], "n": 2}', "--N", "3")
    assert code == 1 and "weights" in err

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "extend", str(bad), "--N", "3")
    assert code == 1 and "JSON" in err

    # undecodable bytes and nesting past the parser's depth are input
    # errors too: one error line, no traceback
    law = '{"alphabet": ["\u00e9", "b"], "n": 1, "weights": {"1:0": "1"}}'
    latin = tmp_path / "latin1.json"
    latin.write_bytes(law.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for path, reason in ((latin, "UTF-8"), (deep, "nested too deeply")):
        code, out, err = run_cli(capsys, "extend", str(path), "--N", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: input: ") and reason in err and err.count("\n") == 1
    # the same bytes on stdin get the same answer; UTF-8 on stdin is read
    raw = io.BytesIO(law.encode("latin-1"))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, errors="surrogateescape"))
    code, out, err = run_cli(capsys, "extend", "-", "--N", "3")
    assert code == 1 and out == "" and err.startswith("error: input: <stdin> is not UTF-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(law.encode("utf-8"))))
    code, out, err = run_cli(capsys, "extend", "-", "--N", "3")
    assert code == 0 and json.loads(out)["witness"]["alphabet"] == ["\u00e9", "b"]

    code, _, err = run_cli(capsys, "extend", URN_LAW, "--N", "1")
    assert code == 1  # N < n is an input error

    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1

    # JSON booleans are not numbers
    for law in (
        '{"alphabet": ["a", "b"], "n": true, "weights": {"1:0": "1"}}',
        '{"alphabet": ["a", "b"], "n": 1, "weights": {"1:0": true}}',
    ):
        code, out, err = run_cli(capsys, "extend", law, "--N", "2")
        assert code == 1 and out == "" and err.startswith("error: input")
    code, out, err = run_cli(capsys, "types", '{"alphabet": ["a", "b"], "mass": true}')
    assert code == 1 and "input.mass" in err
    lp = '{"sense": "max", "objective": [%s], "constraints": %s}'
    row = '[{"coeffs": [%s], "rel": "<=", "rhs": "1"}]'
    for text in (lp % ("true", row % '"1"'), lp % ('"1"', row % "false")):
        code, out, err = run_cli(capsys, "lp-verify", text)
        assert code == 1 and out == "" and "expected a fraction string, got bool" in err

    # a constraints field that is not a list is one error line, not a traceback
    code, out, err = run_cli(capsys, "lp-verify", lp % ('"1"', "5"))
    assert code == 1 and out == ""
    assert err == "error: input.constraints: expected a list\n"

    # input that would otherwise be read as something else: a type spelled
    # twice, a JSON key given twice, an infinity on the wrong side
    for argv, reason in (
        (("extend", '{"alphabet": ["a", "b"], "n": 2, "weights": '
          '{"1:1": "1/2", "01:1": "1/2", "2:0": "1/2"}}', "--N", "3"), "given twice"),
        (("extend", '{"alphabet": ["a", "b"], "n": 2, "weights": '
          '{"1:1": "1", "1:1": "1"}}', "--N", "3"), "repeats the key '1:1'"),
        (("extend", '{"alphabet": ["a", "b"], "n": 2, "weights": {"2:0": "1"}, '
          '"weights": {"1:1": "1"}}', "--N", "3"), "repeats the key 'weights'"),
        (("lp-verify", '{"sense": "max", "objective": ["1"], "constraints": [], '
          '"upper": ["-inf"]}'), "input.upper[0]"),
        (("lp-verify", '{"sense": "max", "objective": ["1"], "constraints": [], '
          '"lower": ["inf"]}'), "input.lower[0]"),
    ) + tuple(
        # int() would read each of these counts as a number
        (("invert", '{"alphabet": ["a", "b"], "type": "%s"}' % text, "--N", "10"),
         "bad typestring")
        for text in ("1_0:0", "+1:0", " 1:0", "\u0661:0")
    ) + tuple(
        # and each of these weights as a fraction
        (("extend", '{"alphabet": ["a", "b"], "n": 2, "weights": '
          '{"2:0": "%s", "0:2": "1/2"}}' % text, "--N", "3"), "bad fraction string")
        for text in ("1_0/20", " +1/2", "\uff11/2", "1/ 2", "+1/2")
    ) + tuple(
        # and each of these as an integer option
        (("extend", URN_LAW, "--N", text), "argument --N: bad integer string")
        for text in (" +1_0", "1_0", "+3", " 3", "3\n", "\u0663", "")
    ) + (
        (("--seed", "+7", "norm", URN_LAW, "--N", "2"), "argument --seed"),
        (("probe", URN_LAW, "--max-N", "4", "--grid-depth", "0x2"), "argument --grid-depth"),
        (("corpus", "dyadic-max", "--level", "\uff11"), "argument --level"),
        (("corpus", "dyadic-max", "--check-N", "1_0,+3"), "--check-N: bad integer string"),
        (("corpus", "dyadic-max", "--check-N", "3, 4"), "--check-N: bad integer string"),
        (("corpus", "dyadic-max", "--check-N", "3,,4"), "--check-N: bad integer string"),
        # an option that no subcommand reads
        (("corpus", "all", "--epsilon", "banana"), "--epsilon"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and reason in err and err.count("\n") == 1

    # the cap variable is read by the same rule
    for raw in (" 5_0 ", "+50", "\u0665\u0660"):
        monkeypatch.setenv("EXCHKIT_CAP", raw)
        code, out, err = run_cli(capsys, "extend", URN_LAW, "--N", "3")
        assert code == 1 and out == "" and err.startswith("error: EXCHKIT_CAP: bad integer")


def test_exit_code_2_on_capacity(capsys, monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    code, _, err = run_cli(capsys, "extend", URN_LAW, "--N", "9")
    assert code == 2 and "cap" in err


def test_exit_code_2_on_uncapped_enumerations(capsys, monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    code, _, err = run_cli(capsys, "urn", '{"alphabet": ["a","b","c"], "type": "3:3:3"}', "--N", "3")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "corpus", "dyadic-max", "--level", "2", "--check-N", "")
    assert code == 2 and "cap" in err
    code, out, err = run_cli(capsys, "invert", '{"alphabet": ["a","b","c"], "type": "1:1:1"}', "--N", "6")
    assert code == 2 and out == "" and "urn inversion types" in err


def test_exit_code_3_on_internal_error(capsys, monkeypatch):
    from exchkit import cli

    def broken(args):
        raise AssertionError("simplex: pivot on zero entry")

    monkeypatch.setitem(cli._HANDLERS, "norm", broken)
    code, out, err = run_cli(capsys, "norm", URN_LAW, "--N", "3")
    assert code == 3 and out == ""
    assert err == "error: internal: simplex: pivot on zero entry\n"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "norm", URN_LAW, "--N", "3")
    assert code == 0
    assert "norm: 2/1" in out


def test_seed_recorded_in_meta(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "norm", URN_LAW, "--N", "2")
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 7


def _module_env():
    # the child must import the same package as this process, installed or not
    src = str(Path(exchkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entrypoint_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "exchkit", "types", '{"alphabet": ["a","b"], "mass": 2}'],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["types"] == ["0:2", "1:1", "2:0"]


def test_closed_pipe_exits_141_quietly():
    # 45,451 types, about 1 MB of report: more than a pipe buffer holds, so
    # the child is still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "exchkit", "types", '{"alphabet": ["a","b","c"], "mass": 300}'],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_module_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141 and err == b""
