"""The command-line interface, run in process through main()."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradedsupport
from gradedsupport import cli
from gradedsupport.cli import build_parser, main, parse_monomial
from gradedsupport.constructions import (
    generic_pair_algebra,
    group_algebra,
    n_homogeneous_dual,
    quiver_algebra,
    regular_module,
    truncated_polynomial,
    zero_sum_pair_algebra,
)
from gradedsupport.errors import PreconditionError
from gradedsupport.exactlin import GF
from gradedsupport.graded_core import (
    algebras_equal,
    kill_support_algebra,
    kill_support_module,
    modules_equal,
    regrade_algebra,
)
from gradedsupport import regrade_maps
from gradedsupport.regrade_maps import WindowedMap, delta_map
from gradedsupport.serialize import (
    algebra_from_json,
    algebra_to_json,
    degree_set_to_json,
    dump_json,
    module_from_json,
    module_to_json,
    windowed_map_to_json,
)
from gradedsupport.subsets import DegreeSet, Zn
from test_lifting import tag_escaping_lift_inputs
from test_serialize import old_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "enumerate"

U3 = DegreeSet.periodic(3, (0, 1))


@pytest.fixture(autouse=True)
def json_output_matches_the_stdlib_encoder(monkeypatch):
    """Every --format json output below is checked against its oracle; an
    algebra or module in it stands for its JSON form from the old writer."""
    def checked(obj):
        text = dump_json(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True,
                                  default=old_to_json)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# enumerate


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_the_frozen_fixtures(capsys, n):
    code, got = run_json(capsys, "enumerate", "--n", str(n),
                         "--format", "json")
    assert code == 0
    want = json.loads((FIXTURES / f"n{n}.json").read_text())
    assert got == want


def test_enumerate_range_lists_every_n(capsys):
    code, got = run_json(capsys, "enumerate", "--max-n", "3",
                         "--format", "json")
    assert code == 0
    assert [entry["n"] for entry in got] == [1, 2, 3]
    assert [entry["count"] for entry in got] == [1, 1, 3]


def test_enumerate_text_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert "n=3: 3 subsets" in out
    assert "{0, 1}" in out and "{0, 2}" in out


def test_enumerate_without_n_is_a_usage_error(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_enumerate_refuses_a_max_n_below_one(capsys, max_n):
    code, out, err = run(capsys, "enumerate", "--max-n", max_n,
                         "--format", "json")
    assert (code, out) == (2, "")
    assert f"--max-n must lie in 1..16 (the enumeration cap), got {max_n}" \
        in err


def test_enumerate_refuses_n_together_with_max_n(capsys):
    with pytest.raises(SystemExit) as usage_error:  # argparse exits 2
        main(["enumerate", "--n", "3", "--max-n", "2"])
    assert usage_error.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --n" in err


def test_enumerate_checks_the_cap_before_enumerating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "enumerate_ring_supporting", calls.append)
    code, out, err = run(capsys, "enumerate", "--max-n", "17")
    assert (code, out, calls) == (2, "", [])
    assert "--max-n must lie in 1..16 (the enumeration cap), got 17" in err


# ---------------------------------------------------------------------------
# check-set and check-pair


def test_check_set_accepts_a_ring_supporting_set(capsys, tmp_path):
    path = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, got = run_json(capsys, "check-set", path, "--format", "json")
    assert code == 0
    assert got["holds"] is True
    assert got["witness"] is None


def test_check_set_reports_the_witness_triple(capsys, tmp_path):
    bad = DegreeSet.periodic(4, (0, 1, 2))
    path = write_json(tmp_path / "u.json", degree_set_to_json(bad))
    code, got = run_json(capsys, "check-set", path, "--format", "json")
    assert code == 1
    assert got["holds"] is False
    assert got["witness"] == [1, 1, 2]


def test_check_set_text_mode_prints_the_verdict(capsys, tmp_path):
    path = write_json(tmp_path / "u.json",
                      degree_set_to_json(DegreeSet.periodic(4, (0, 1, 2))))
    code, out, _ = run(capsys, "check-set", path)
    assert code == 1
    assert "falsified" in out and "witness" in out


def test_check_set_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check-set", str(tmp_path / "absent.json"))
    assert code == 2
    assert "no such file" in err


def test_check_set_refuses_a_directory(capsys, tmp_path):
    # open() raised IsADirectoryError: a traceback and exit 1
    code, out, err = run(capsys, "check-set", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"cannot read {tmp_path}" in err


def test_check_set_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check-set", str(path))
    assert code == 2
    assert "invalid JSON" in err


HUGE = "1" * 5000  # past the 4,300 digits json reads into an int


@pytest.mark.parametrize("command", ["check-set", "lift"])
def test_an_integer_too_long_to_read_is_invalid_json(capsys, tmp_path,
                                                      command):
    # json.load raised a plain ValueError: a traceback and exit 1
    if command == "check-set":
        text = ('{"group": {"kind": "Z"}, "form": "windowed", "elements": ['
                + HUGE + '], "window": [0, 3]}')
        argv = [str(tmp_path / "bad.json")]
    else:
        xf, sf, uf, af, _, _ = lift_files(tmp_path)
        text = Path(xf).read_text(encoding="utf-8")
        text = text.replace('"entries": [[', '"entries": [[' + HUGE + ", ", 1)
        argv = [str(tmp_path / "bad.json"), sf, uf, af]
    (tmp_path / "bad.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert f"invalid JSON in {argv[0]}" in err


def test_json_nested_too_deep_to_read_is_invalid_json(capsys, tmp_path):
    # json.load raised RecursionError: a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "check-set", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}" in err


def test_check_pair_holds_for_a_translate(capsys, tmp_path):
    s = write_json(tmp_path / "s.json",
                   degree_set_to_json(U3.translate(2)))
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, got = run_json(capsys, "check-pair", s, u, "--format", "json")
    assert code == 0 and got["holds"] is True


def test_check_pair_finds_a_failing_triple(capsys, tmp_path):
    s = write_json(tmp_path / "s.json",
                   degree_set_to_json(DegreeSet.periodic(3, (0, 1, 2))))
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, got = run_json(capsys, "check-pair", s, u, "--format", "json")
    assert code == 1
    assert got["witness"] == [0, 1, 1]


def test_check_pair_left_side(capsys, tmp_path):
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    s = write_json(tmp_path / "s.json",
                   degree_set_to_json(U3.translate(1)))
    code, _, _ = run(capsys, "check-pair", u, s, "--side", "left")
    assert code == 0


def test_check_set_with_a_huge_period_exits_2(capsys, tmp_path):
    path = write_json(tmp_path / "u.json",
                      degree_set_to_json(DegreeSet.periodic(10 ** 13, (0, 1))))
    code, out, err = run(capsys, "check-set", path)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap" in err


def test_check_pair_with_a_huge_common_period_exits_2_quickly(capsys,
                                                              tmp_path):
    s = write_json(tmp_path / "s.json",
                   degree_set_to_json(DegreeSet.periodic(10007, (0,))))
    u = write_json(tmp_path / "u.json",
                   degree_set_to_json(DegreeSet.periodic(10009, (0,))))
    start = time.perf_counter()
    code, out, err = run(capsys, "check-pair", s, u)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap" in err


# ---------------------------------------------------------------------------
# one parser per process


def test_successive_calls_match_separate_runs(capsys, tmp_path):
    u = write_json(tmp_path / "u.json",
                   degree_set_to_json(DegreeSet.periodic(4, (0, 1, 2))))
    dual = ["make", "dual", "--vdim", "2", "--n", "2", "--window", "3"]
    argvs = [["check-set", u, "--format", "json"], ["check-set", u],
             dual + ["--rel", "x*y", "--format", "json"],
             dual + ["--rel", "y*y", "--rel", "x*x"],
             ["enumerate"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(gradedsupport.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    separate = []
    for argv in argvs:
        p = subprocess.run([sys.executable, "-m", "gradedsupport.cli", *argv],
                           capture_output=True, text=True, env=env)
        separate.append((p.returncode, p.stdout))
    assert [run(capsys, *argv)[:2] for argv in argvs] == separate
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# kill and regrade


def test_kill_emits_the_killed_algebra(capsys, tmp_path):
    a = truncated_polynomial(7, 1, window=(0, 6))
    alg = write_json(tmp_path / "a.json", algebra_to_json(a))
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, got = run_json(capsys, "kill", alg, u, "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got),
                          kill_support_algebra(a, U3))


def test_kill_rejects_a_non_ring_supporting_set(capsys, tmp_path):
    a = group_algebra(4)
    alg = write_json(tmp_path / "a.json", algebra_to_json(a))
    bad = DegreeSet.periodic(4, (0, 1, 2), Zn(4))
    u = write_json(tmp_path / "u.json", degree_set_to_json(bad))
    code, out, _ = run(capsys, "kill", alg, u)
    assert code == 1
    assert "not associative" in out


def test_kill_refuses_aliased_cyclic_degrees(capsys, tmp_path):
    # mult entries at (0, 0) and (3, 0) over Z/3 name one map; keeping the
    # later, zero one would break the unit law without a word
    obj = algebra_to_json(group_algebra(3))
    obj["mult"].append({"g": 3, "h": 0, "matrix": {
        "field": "Q", "rows": 1, "cols": 1, "entries": [["0"]]}})
    alg = write_json(tmp_path / "a.json", obj)
    u = write_json(tmp_path / "u.json",
                   degree_set_to_json(DegreeSet.full(Zn(3))))
    code, out, err = run(capsys, "kill", alg, u)
    assert code == 2
    assert out == ""
    assert "two mult maps at degree (0, 0) of Z/3" in err


def _zero_rows_beyond_the_window(mult):
    # x^2 * x^2 lands in degree 4, outside the window: a 1x0 map
    mult.append({"g": 2, "h": 2, "matrix": {
        "field": "GF(p)", "p": 101, "rows": 0, "cols": 5, "entries": []}})


def _extra_column(mult):
    mult[0]["matrix"].update(cols=2, entries=[[1, 0]])


def _extra_row(mult):
    mult[0]["matrix"].update(rows=2, entries=[[1], [0]])


@pytest.mark.parametrize("edit,message", [
    (_zero_rows_beyond_the_window, "mult(2,2) must be 1x0, got 0x5"),
    (_extra_column, "mult(0,0) must be 1x1, got 1x2"),
    (_extra_row, "mult(0,0) must be 1x1, got 2x1"),
])
def test_kill_checks_the_declared_shape_of_each_map(capsys, tmp_path, edit,
                                                    message):
    # the JSON reader keeps each map's declared rows and cols, so a map whose
    # shape misses its degree pair is refused, with or without entries
    code, out, _ = run(capsys, "make", "trunc-poly", "--k", "3",
                       "--field", "GFp", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mult"][0]["g"] == obj["mult"][0]["h"] == 0
    edit(obj["mult"])
    alg = write_json(tmp_path / "a.json", obj)
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, out, err = run(capsys, "kill", alg, u)
    assert code == 2
    assert out == ""
    assert message in err


def test_regrade_matches_the_library(capsys, tmp_path):
    a = truncated_polynomial(7, 1, window=(0, 6))
    b = kill_support_algebra(a, U3)
    phi = delta_map(U3, 0, (0, 4))
    alg = write_json(tmp_path / "b.json", algebra_to_json(b))
    mp = write_json(tmp_path / "phi.json", windowed_map_to_json(phi))
    code, got = run_json(capsys, "regrade", alg, mp, "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got), regrade_algebra(b, phi))


def test_regrade_admits_a_map_at_the_pair_cap_and_refuses_one_past_it(
        capsys, tmp_path, monkeypatch):
    # a map on the window (0, 4) has 5 x 5 = 25 pairs to scan
    a = truncated_polynomial(7, 1, window=(0, 6))
    b = kill_support_algebra(a, U3)
    alg = write_json(tmp_path / "b.json", algebra_to_json(b))
    mp = write_json(tmp_path / "phi.json",
                    windowed_map_to_json(delta_map(U3, 0, (0, 4))))
    monkeypatch.setattr(regrade_maps, "PAIR_CAP", 25)
    code, _ = run_json(capsys, "regrade", alg, mp, "--format", "json")
    assert code == 0
    monkeypatch.setattr(regrade_maps, "PAIR_CAP", 24)
    code, out, err = run(capsys, "regrade", alg, mp, "--format", "json")
    assert code == 2 and out == ""
    assert "25 pairs of window points, over the cap of 24" in err


def test_regrade_refuses_a_long_map_before_the_pair_scan(capsys, tmp_path):
    # 8,001 points: a scan of their 64,016,001 pairs would take minutes
    alg = write_json(tmp_path / "a.json", algebra_to_json(
        truncated_polynomial(3)))
    mp = write_json(tmp_path / "phi.json", windowed_map_to_json(
        WindowedMap.identity((-4000, 4000))))
    start = time.perf_counter()
    code, out, err = run(capsys, "regrade", alg, mp)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "64016001 pairs of window points, over the cap of" in err


# ---------------------------------------------------------------------------
# lift-check and lift


def lift_files(tmp_path, liftable=True):
    a = truncated_polynomial(7, 1, window=(0, 6))
    b = kill_support_algebra(a, U3)
    if liftable:
        x = kill_support_module(regular_module(a), U3, U3, b)
    else:
        from gradedsupport.exactlin import LabeledSpace, Matrix
        from gradedsupport.graded_core import GradedModule
        f = b.field
        one = Matrix.identity(f, 1)
        act = Matrix.from_rows(f, [[f.one()]], 1)
        comps = {0: LabeledSpace.untagged(1), 3: LabeledSpace.untagged(1)}
        x = GradedModule(b, b.window, comps,
                         {(0, 0): one, (3, 0): one, (0, 3): act})
    return (write_json(tmp_path / "x.json", module_to_json(x)),
            write_json(tmp_path / "s.json", degree_set_to_json(U3)),
            write_json(tmp_path / "u.json", degree_set_to_json(U3)),
            write_json(tmp_path / "a.json", algebra_to_json(a)), a, x)


def test_lift_check_passes_a_killed_regular_module(capsys, tmp_path):
    xf, sf, uf, af, _, _ = lift_files(tmp_path)
    code, got = run_json(capsys, "lift-check", xf, sf, uf, af,
                         "--format", "json")
    assert code == 0
    assert got["liftable"] is True and got["violations"] == []


def test_lift_check_rejects_and_locates_the_violation(capsys, tmp_path):
    xf, sf, uf, af, _, _ = lift_files(tmp_path, liftable=False)
    code, got = run_json(capsys, "lift-check", xf, sf, uf, af,
                         "--format", "json")
    assert code == 1
    v = got["violations"][0]
    assert (v["m"], v["u"], v["v"]) == (0, 1, 3)


def test_lift_check_interval_flag(capsys, tmp_path):
    xf, sf, uf, af, _, _ = lift_files(tmp_path, liftable=False)
    code, out, _ = run(capsys, "lift-check", xf, sf, uf, af, "--interval")
    assert code == 1
    assert "(m, u, v) = (0, 1, 3)" in out


def test_lift_emits_the_lifted_module(capsys, tmp_path):
    xf, sf, uf, af, a, x = lift_files(tmp_path)
    code, got = run_json(capsys, "lift", xf, sf, uf, af, "--format", "json")
    assert code == 0
    lifted = module_from_json(got)
    b = kill_support_algebra(lifted.over, U3)
    assert modules_equal(kill_support_module(lifted, U3, U3, b), x)


def test_lift_full_report_embeds_the_module(capsys, tmp_path):
    xf, sf, uf, af, _, _ = lift_files(tmp_path)
    code, got = run_json(capsys, "lift", xf, sf, uf, af,
                         "--full-report", "--format", "json")
    assert code == 0
    assert got["liftable"] is True and got["isomorphism_certified"] is True
    assert "module" in got


def test_lift_text_mode_reports_the_certificate(capsys, tmp_path):
    xf, sf, uf, af, _, _ = lift_files(tmp_path)
    code, out, _ = run(capsys, "lift", xf, sf, uf, af)
    assert code == 0
    assert "liftable: yes" in out
    assert "certified" in out


@pytest.mark.parametrize("command", ["lift", "lift-check"])
@pytest.mark.parametrize("h, witness", [
    (0, "('unit', 0, 0)"), (1, "('assoc', (0, 1, 3), (0, 0, 0))")])
def test_lift_commands_refuse_a_module_that_fails_validation(
        capsys, tmp_path, command, h, witness):
    # the CI round-trip inputs with entry [0][0] of the (0, h) action map
    # set to 1000000: lift ended in a traceback, lift-check in "liftable"
    a = truncated_polynomial(8, 1, window=(0, 7), field=GF(101))
    obj = module_to_json(regular_module(kill_support_algebra(a, U3)))
    [item] = [m for m in obj["action"] if (m["g"], m["h"]) == (0, h)]
    item["matrix"]["entries"][0][0] = 1000000
    xf = write_json(tmp_path / "x.json", obj)
    uf = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    af = write_json(tmp_path / "a.json", algebra_to_json(a))
    code, out, err = run(capsys, command, xf, uf, uf, af, "--format", "json")
    assert (code, out) == (2, "")
    assert f"not a module: {xf}, witness {witness}" in err


@pytest.mark.parametrize("command", ["lift", "lift-check"])
def test_lift_commands_refuse_an_ambient_product_escaping_its_tags(
        capsys, tmp_path, command):
    # both ended in InternalConsistencyError, exit 1, read as "not liftable"
    a, x = tag_escaping_lift_inputs()
    xf = write_json(tmp_path / "x.json", module_to_json(x))
    uf = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    af = write_json(tmp_path / "a.json", algebra_to_json(a))
    code, out, err = run(capsys, command, xf, uf, uf, af, "--format", "json")
    assert (code, out) == (2, "")
    assert ("error: not an algebra: the ambient product escapes its tag "
            "block, witness ('tags', 1, 2, 0, 1, 1)") in err


def test_loaders_are_looked_up_at_each_call(monkeypatch, capsys, tmp_path):
    # a tracer rebinds cli's names after import; the lift path must call
    # the rebound reader and validator, not the ones bound at import
    xf, sf, uf, af, _, _ = lift_files(tmp_path)
    calls = []
    for name in ("module_from_json", "validate_module"):
        def counted(*args, _f=getattr(cli, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run(capsys, "lift-check", xf, sf, uf, af)
    assert code == 0
    assert calls == ["module_from_json", "validate_module"]


@pytest.mark.parametrize("value", ["1e20000000", "1e-20000000"])
def test_a_rational_in_exponent_form_is_refused_at_once(capsys, tmp_path,
                                                          value):
    # Fraction expands the exponent: Fraction("1e20000000") alone runs for
    # about half a minute
    obj = algebra_to_json(truncated_polynomial(4))
    obj["mult"][1]["matrix"]["entries"][0][0] = value
    alg = write_json(tmp_path / "a.json", obj)
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    start = time.perf_counter()
    code, out, err = run(capsys, "kill", alg, u, "--format", "json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"mult[1].matrix.entries[0][0]: bad rational '{value}'" in err


# ---------------------------------------------------------------------------
# the harness and pipeline commands


def test_verify_equivalence_small_run(capsys):
    code, got = run_json(capsys, "verify-equivalence", "--samples", "4",
                         "--seed", "9", "--n", "3", "--format", "json")
    assert code == 0
    assert got["holds"] is True
    assert len(got["samples"]) == 4
    assert all(r["equal"] for r in got["samples"])


@pytest.mark.parametrize("seed, dim", [(3, 10), (6, 0), (12, 8)])
def test_verify_equivalence_heavy_hom_systems(capsys, seed, dim):
    # the largest sampled hom systems over Q: seed 12 has 538 unknowns
    code, got = run_json(capsys, "verify-equivalence", "--samples", "1",
                         "--seed", str(seed), "--n", "3", "--format", "json")
    assert code == 0
    [sample] = got["samples"]
    assert (sample["hom_dim_ambient"], sample["hom_dim_killed"]) == (dim, dim)


VERIFY_SEED_9_TEXT = """\
sample  dim Hom(M,N)  dim Hom(M_S,N_S)
     0             5                 5
     1             0                 0
     2             9                 9
     3             0                 0
holds: True
"""

VERIFY_SEED_9_JSON = """\
{
  "holds": true,
  "samples": [
    {
      "equal": true,
      "hom_dim_ambient": 5,
      "hom_dim_killed": 5,
      "index": 0
    },
    {
      "equal": true,
      "hom_dim_ambient": 0,
      "hom_dim_killed": 0,
      "index": 1
    },
    {
      "equal": true,
      "hom_dim_ambient": 9,
      "hom_dim_killed": 9,
      "index": 2
    },
    {
      "equal": true,
      "hom_dim_ambient": 0,
      "hom_dim_killed": 0,
      "index": 3
    }
  ],
  "seed": 9
}
"""


@pytest.mark.parametrize("fmt, want", [("text", VERIFY_SEED_9_TEXT),
                                       ("json", VERIFY_SEED_9_JSON)],
                         ids=["text", "json"])
def test_verify_equivalence_golden_stdout(capsys, fmt, want):
    code, out, err = run(capsys, "verify-equivalence", "--samples", "4",
                         "--seed", "9", "--n", "3", "--format", fmt)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_equivalence_refuses_no_samples(capsys, samples):
    # no sample is no evidence: "holds": true on [] would certify nothing
    code, out, err = run(capsys, "verify-equivalence", "--samples", samples,
                         "--format", "json")
    assert (code, out) == (2, "")
    assert "--samples" in err


def test_verify_equivalence_text_table(capsys):
    code, out, _ = run(capsys, "verify-equivalence", "--samples", "2")
    assert code == 0
    assert "holds: True" in out


def _non_associative_x8(tmp_path):
    """K[x]/(x^8) over Q with x * x^2 = 2 x^3, which is not associative."""
    obj = algebra_to_json(truncated_polynomial(8))
    [item] = [x for x in obj["mult"] if (x["g"], x["h"]) == (1, 2)]
    item["matrix"]["entries"] = [["2"]]
    return write_json(tmp_path / "a.json", obj)


def test_verify_equivalence_refuses_an_algebra_that_fails_validation(
        capsys, tmp_path):
    # the harness would report "holds": false, a falsification of the
    # equivalence, for an input that is not an algebra
    alg = _non_associative_x8(tmp_path)
    code, out, err = run(capsys, "verify-equivalence", "--alg", alg,
                         "--samples", "2", "--format", "json")
    assert (code, out) == (2, "")
    assert "not an algebra" in err and "('assoc', (1, 1, 1)" in err


@pytest.mark.parametrize("u", [U3, DegreeSet.periodic(4, (0, 1, 2, 3))])
def test_kill_refuses_an_algebra_that_fails_validation(capsys, tmp_path, u):
    # killing off 3Z + {0, 1} printed a "killed algebra"; killing off all
    # of Z reported "not associative" with exit 1, a falsification for an
    # input that is not an algebra
    alg = _non_associative_x8(tmp_path)
    sets = write_json(tmp_path / "u.json", degree_set_to_json(u))
    code, out, err = run(capsys, "kill", alg, sets)
    assert (code, out) == (2, "")
    assert "not an algebra" in err and "('assoc', (1, 1, 1)" in err


def test_koszul_pipeline_refuses_an_algebra_that_fails_validation(
        capsys, tmp_path):
    a = n_homogeneous_dual(1, [[(1, (0, 0, 0, 0))]], 8)
    good = write_json(tmp_path / "good.json", algebra_to_json(a))
    code, _, _ = run(capsys, "koszul-pipeline", "--alg", good, "--n", "4")
    assert code == 0
    obj = algebra_to_json(a)
    obj["unit"] = ["2"]
    bad = write_json(tmp_path / "bad.json", obj)
    # the regraded algebra fails validation too, which is a bug when the
    # input is an algebra, so the input is checked first
    code, out, err = run(capsys, "koszul-pipeline", "--alg", bad, "--n", "4")
    assert (code, out) == (2, "")
    assert "not an algebra" in err and "unit-left" in err


def test_a_map_with_another_field_exits_2(capsys, tmp_path):
    obj = algebra_to_json(truncated_polynomial(3))
    obj["mult"][0]["matrix"]["field"] = -1
    alg = write_json(tmp_path / "a.json", obj)
    u = write_json(tmp_path / "u.json", degree_set_to_json(U3))
    code, out, err = run(capsys, "kill", alg, u)
    assert (code, out) == (2, "")
    assert "mult[0].matrix: field differs" in err


def test_koszul_pipeline_text_report(capsys):
    code, out, _ = run(capsys, "koszul-pipeline", "--n", "3",
                       "--window", "6")
    assert code == 0
    assert "regraded algebra on window (0, 4), dims 0:1 1:1 2:1 3:1 4:1" \
        in out
    assert "preimage of the period subgroup: {0, 2, 4}" in out
    assert "membership condition at degree 0: ok" in out
    assert "holds: True" in out


def test_koszul_pipeline_json_report(capsys):
    code, got = run_json(capsys, "koszul-pipeline", "--n", "3",
                         "--window", "6", "--format", "json")
    assert code == 0
    assert got["holds"] is True
    assert got["regraded_window"] == [0, 4]
    assert got["regraded_dims"] == {str(d): 1 for d in range(5)}
    assert got["even_preimage_members"] == [0, 2, 4]
    assert all(v["holds"] for v in got["vanishing_pairs"])
    assert all(c["holds"] for c in got["conditions"])


def test_koszul_pipeline_needs_period_at_least_3(capsys):
    # the membership conditions use r = 1, so the period must exceed 2r
    code, out, err = run(capsys, "koszul-pipeline", "--n", "2")
    assert code == 2
    assert out == ""
    assert "period n >= 3" in err
    assert "2r" not in err


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_koszul_pipeline_checks_the_period_before_building_the_dual(capsys,
                                                                    n):
    # the default algebra is the dual of K[x]/(x^n), which needs n >= 2
    code, out, err = run(capsys, "koszul-pipeline", "--n", n)
    assert code == 2 and out == ""
    assert "need period n >= 3" in err
    assert "relations must have degree" not in err


def test_koszul_pipeline_window_too_small(capsys):
    code, _, err = run(capsys, "koszul-pipeline", "--n", "3",
                       "--window", "4")
    assert code == 2
    assert "too small" in err


# ---------------------------------------------------------------------------
# make


def test_make_group_algebra(capsys):
    code, got = run_json(capsys, "make", "group-zn", "--n", "4",
                         "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got), group_algebra(4))


def test_make_truncated_polynomial_over_a_prime_field(capsys):
    code, got = run_json(capsys, "make", "trunc-poly", "--k", "3",
                         "--field", "GFp", "--p", "7", "--format", "json")
    assert code == 0
    a = algebra_from_json(got)
    assert a.field is GF(7)
    assert algebras_equal(a, truncated_polynomial(3, 1, field=GF(7)))


def test_make_witness_cases(capsys):
    code, got = run_json(capsys, "make", "witness", "--case", "iii",
                         "--g", "2", "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got), zero_sum_pair_algebra(2))
    code, got = run_json(capsys, "make", "witness", "--case", "iv",
                         "--g", "1", "--h", "2", "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got), generic_pair_algebra(1, 2))


def test_make_witness_iii_rejects_mismatched_degrees(capsys):
    code, _, err = run(capsys, "make", "witness", "--case", "iii",
                       "--g", "2", "--h", "3")
    assert code == 2
    assert "opposite degrees" in err


def test_make_dual(capsys):
    code, got = run_json(capsys, "make", "dual", "--vdim", "1", "--n", "3",
                         "--rel", "x*x*x", "--window", "6",
                         "--format", "json")
    assert code == 0
    assert algebras_equal(algebra_from_json(got),
                          n_homogeneous_dual(1, [[(1, (0, 0, 0))]], 6))


def test_make_dual_needs_a_relation(capsys):
    code, _, err = run(capsys, "make", "dual", "--vdim", "1", "--n", "2",
                       "--window", "4")
    assert code == 2
    assert "--rel" in err


def test_make_quiver(capsys):
    code, got = run_json(capsys, "make", "quiver", "--vertices", "1",
                         "--arrows", "0:0,0:0", "--rel", "y*x",
                         "--top", "3", "--format", "json")
    assert code == 0
    want = quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 3)
    assert algebras_equal(algebra_from_json(got), want)


def test_make_quiver_rejects_malformed_arrows(capsys):
    code, _, err = run(capsys, "make", "quiver", "--vertices", "1",
                       "--arrows", "0-0", "--top", "2")
    assert code == 2
    assert "src:tgt" in err


def test_make_quiver_rejects_a_relation_through_a_missing_arrow(capsys):
    # y is arrow 1 of a one-arrow quiver
    code, out, err = run(capsys, "make", "quiver", "--vertices", "1",
                         "--arrows", "0:0", "--rel", "x*y", "--top", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "out of range" in err


def test_monomials_parse_by_name_or_index():
    assert parse_monomial("x*y*x") == (0, 1, 0)
    assert parse_monomial("0*1*0") == (0, 1, 0)
    with pytest.raises(PreconditionError):
        parse_monomial("x**y")
    with pytest.raises(PreconditionError):
        parse_monomial("q")


@pytest.mark.parametrize("p", ["4", "1", "3317044064679887385961981"])
def test_unusable_prime_exits_2(capsys, p):
    code, out, err = run(capsys, "verify-equivalence", "--samples", "1",
                         "--field", "GFp", "--p", p)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_make_rejects_a_composite_prime(capsys):
    code, out, err = run(capsys, "make", "group-zn", "--n", "3",
                         "--field", "GFp", "--p", "4")
    assert code == 2
    assert "not a prime" in err


# ---------------------------------------------------------------------------
# the quiver caps


@pytest.mark.parametrize("argv", [
    ["verify-equivalence", "--window", "60"],
    ["make", "quiver", "--vertices", "1", "--arrows", "0:0,0:0",
     "--rel", "y*x", "--top", "60"],
])
def test_quiver_path_cap_refuses_before_enumerating(capsys, argv):
    # the relation-avoiding paths x^a y^b are few; the mult table they span
    # is what the cap refuses, before any of it is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "over the cap of" in err
    assert "mult table entries" in err


@pytest.mark.parametrize("argv", [
    ["--window", "16"],
    ["--n", "8"],
])
def test_equivalence_harness_runs_past_the_old_path_cap(capsys, argv):
    code, got = run_json(capsys, "verify-equivalence", "--samples", "1",
                         "--seed", "0", "--format", "json", *argv)
    assert code == 0 and got["holds"]


def test_make_dual_refuses_long_relations_before_listing_words(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "make", "dual", "--vdim", "2", "--n", "22",
                         "--rel", "*".join(["x"] * 22), "--window", "22")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "over the cap of" in err


def test_make_dual_counts_only_its_relation_words_against_the_cap(capsys):
    # the 2^18 - 1 paths over the two loops up to the window top are never
    # listed: only the four words of degree 2 are, and the dual is monomial
    code, out, err = run(capsys, "make", "dual", "--vdim", "2", "--n", "2",
                         "--rel", "x*y", "--window", "17")
    assert code == 0 and err == ""
    assert "degree   1: dim 2" in out


@pytest.mark.parametrize("argv", [
    ["make", "group-zn", "--n", "100000"],
    ["make", "trunc-poly", "--k", "100000"],
])
def test_table_cap_counts_the_maps_of_the_stock_algebras(capsys, argv):
    # n^2 and k(k + 1)/2 maps of one entry each: refused before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "over the cap of" in err
