import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spindex import cli, torus_index
from spindex.clifford import QuadraticForm
from spindex.spin_groups import covering_map, lift_rotation

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cl_classify_dim_two(capsys):
    code, out, _ = run(capsys, "cl-classify", "--dim", "2")
    assert code == 0
    assert json.loads(out) == {"factors": [["C", 2]]}


def test_cl_classify_real(capsys):
    code, out, _ = run(capsys, "cl-classify", "--dim", "2", "--real")
    assert code == 0
    assert json.loads(out) == {"factors": [["H", 1]]}


def test_cl_table_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "cl-table", "--dim", "2")
    assert code == 0
    code, out2, _ = run(capsys, "cl-table", "--dim", "2")
    assert out1 == out2
    data = json.loads(out1)
    assert data["blades"] == ["1", "e1", "e2", "e12"]
    assert data["table"][1][1] == "-1"
    assert data["table"][1][2] == "e12"
    assert data["table"][2][1] == "-e12"


def test_cl_table_human(capsys):
    code, out, _ = run(capsys, "cl-table", "--dim", "2", "--format", "human")
    assert code == 0
    assert "e12" in out


def test_abs_group(capsys):
    code, out, _ = run(capsys, "abs-group", "--k", "1")
    assert code == 0
    assert json.loads(out)["group"] == "0"
    code, out, _ = run(capsys, "abs-group", "--k", "4")
    assert json.loads(out)["group"] == "Z"


def test_abs_winding(capsys):
    windings = {}
    for module in ("s2", "s2-flip", "s2+s2", "thom1"):
        code, out, _ = run(capsys, "abs-winding", "--k", "2", "--module", module)
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2 and data["samples"] == 4096
        windings[module] = data["winding"]
    w = windings["s2"]
    assert abs(w) == 1
    assert windings["s2-flip"] == -w
    assert windings["s2+s2"] == 2 * w
    assert abs(windings["thom1"]) == 1


def test_abs_winding_bad_k(capsys):
    code, _, err = run(capsys, "abs-winding", "--k", "4")
    assert code == 2
    assert "k 2" in err or "--k 2" in err


def test_symbol_command(capsys):
    code, out, _ = run(capsys, "symbol", "--op", "laplacian", "--dim", "3")
    assert code == 0
    assert json.loads(out)["elliptic"] is True
    code, out, _ = run(capsys, "symbol", "--op", "dalembert", "--dim", "2")
    data = json.loads(out)
    assert data["elliptic"] is False and data["witness"] is not None
    code, out, _ = run(capsys, "symbol", "--op", "dirac")
    assert json.loads(out)["elliptic"] is True


def test_index_torus(capsys):
    code, out, _ = run(capsys, "index-torus", "--N", "12", "--d", "1")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 1 and data["N"] == 12 and data["d"] == 1
    assert data["dim_ker_plus"] == 1 and data["dim_ker_minus"] == 0
    assert data["gap"] > 0


def test_index_torus_validation_error(capsys):
    code, _, err = run(capsys, "index-torus", "--N", "3", "--d", "0")
    assert code == 2 and "lattice" in err


def test_index_torus_refuses_mass_past_the_first_doubler(capsys):
    code, out, err = run(capsys, "index-torus", "--N", "6", "--d", "1",
                         "--r", "0.5", "--mass", "1.2")
    assert code == 2 and out == "" and "2r" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_index_torus_refuses_non_finite_wilson_r(capsys, monkeypatch, value):
    # refused by validation, before any assembly
    monkeypatch.setattr(torus_index, "build_torus_dirac", None)
    code, out, err = run(capsys, "index-torus", "--N", "8", "--d", "2", "--r", value)
    assert code == 2 and out == "" and f"wilson_r must be finite, got {value}" in err


def test_spectral_flow_refuses_non_finite_endpoint(capsys):
    code, out, err = run(capsys, "spectral-flow", "--t0", "nan", "--t1", "1.5")
    assert code == 2 and out == "" and "t_start must be finite" in err


def test_spectral_flow_cli(capsys):
    code, out, _ = run(capsys, "spectral-flow", "--family", "shift",
                       "--t0", "0.001", "--t1", "1.001")
    assert code == 0
    assert json.loads(out)["flow"] == 1


def test_spectral_flow_endpoint_error_is_exit_three(capsys):
    code, _, err = run(capsys, "spectral-flow", "--family", "shift",
                       "--t0", "0", "--t1", "1")
    assert code == 3
    assert "endpoint" in err


def test_spin_lift_and_cover_round_trip(capsys):
    code, lifted, _ = run(capsys, "spin-lift", "--i", "1", "--j", "2",
                          "--theta", "0", "--dim", "3")
    assert code == 0
    code, out, _ = run(capsys, "spin-cover", "--element", lifted.strip())
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_spin_lift_and_cover_round_trip_generic_angle(capsys):
    theta = math.pi / 3
    code, lifted, _ = run(capsys, "spin-lift", "--i", "1", "--j", "3",
                          "--theta", str(theta), "--dim", "3")
    assert code == 0
    code, out, _ = run(capsys, "spin-cover", "--element", lifted.strip())
    assert code == 0
    rows = [[Fraction(x) for x in r] for r in json.loads(out)["rows"]]
    assert abs(rows[0][0] - math.cos(theta)) < 1e-15
    assert abs(rows[2][0] - math.sin(theta)) < 1e-15
    assert sum(r[0] * r[0] for r in rows) == 1


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_spin_lift_refuses_a_non_finite_angle(capsys, theta):
    code, out, err = run(capsys, "spin-lift", "--i", "1", "--j", "2", f"--theta={theta}")
    assert code == 2 and out == ""
    assert "theta must be finite" in err


@pytest.mark.parametrize("theta", ["-1e-3", "-2.5E+0", "-0.5"])
def test_spin_lift_reads_a_negative_angle_as_a_separate_value(capsys, theta):
    code, separate, _ = run(capsys, "spin-lift", "--i", "1", "--j", "2", "--theta", theta)
    assert code == 0
    code, attached, _ = run(capsys, "spin-lift", "--i", "1", "--j", "2", f"--theta={theta}")
    assert code == 0 and separate == attached
    code, abbreviated, _ = run(capsys, "spin-lift", "--i", "1", "--j", "2", "--th", theta)
    assert code == 0 and abbreviated == attached


def test_spin_lift_refuses_a_separate_negative_infinite_angle(capsys):
    code, out, err = run(capsys, "spin-lift", "--i", "1", "--j", "2", "--theta", "-inf")
    assert code == 2 and out == ""
    assert "theta must be finite" in err


def test_spectral_flow_reads_negative_endpoints_in_exponent_notation(capsys):
    code, out, _ = run(capsys, "spectral-flow", "--t0", "-1e-3", "--t1", "-2e-1")
    assert code == 0
    assert json.loads(out) == {"family": "shift", "flow": 0, "t0": -0.001, "t1": -0.2}
    # an option name after a float option is still read as an option
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["spectral-flow", "--t0", "--t1", "1"])
    assert exit_info.value.code == 2
    assert "argument --t0: expected one argument" in capsys.readouterr().err


def test_spin_cover_integral_element_output(capsys):
    element = json.dumps({"dim": 3, "signs": [1, 1, 1],
                          "terms": [{"blade": [1, 2], "re": "1", "im": "0"}]})
    code, out, _ = run(capsys, "spin-cover", "--element", element)
    assert code == 0
    assert out == ('{"dim": 3, "rows": [["-1", "0", "0"], ["0", "-1", "0"], '
                   '["0", "0", "1"]]}\n')


def test_spin_cover_rejects_non_spin(capsys):
    element = json.dumps({"dim": 2, "signs": [1, 1],
                          "terms": [{"blade": [1], "re": "1", "im": "0"}]})
    code, _, err = run(capsys, "spin-cover", "--element", element)
    assert code == 2 and "odd" in err


@pytest.mark.parametrize("terms,norm", [
    ([{"blade": [], "re": "2", "im": "0"}], 4),
    ([{"blade": [], "re": "1", "im": "0"}, {"blade": [1, 2], "re": "1", "im": "0"}], 2),
])
def test_spin_cover_reports_the_exact_norm(capsys, terms, norm):
    element = json.dumps({"dim": 3, "signs": [1, 1, 1], "terms": terms})
    code, _, err = run(capsys, "spin-cover", "--element", element)
    assert code == 2 and f"norm is {norm}, not 1" in err


@pytest.mark.parametrize("element, field", [
    ("[1]", "must be an object"),
    ("null", "must be an object"),
    ('{"dim": 2, "signs": [1, 1], "terms": 5}', "'terms'"),
    ('{"dim": 2, "signs": [1, 1], "terms": [5]}', "'terms'"),
    ('{"dim": 2, "signs": [1, 1], "terms": [{"blade": [1, 2]}]}', "'terms'"),
    ('{"dim": 2, "signs": [1, 1], "terms": [{"blade": ["1"], "re": "1"}]}', "'terms'"),
    ('{"dim": "2", "signs": [1, 1], "terms": []}', "'dim'"),
    ('{"dim": true, "signs": [1], "terms": []}', "'dim'"),
    ('{"dim": 2, "terms": []}', "'signs'"),
    ('{"dim": 2, "signs": [1, 1]}', "'terms'"),
])
def test_spin_cover_refuses_malformed_json(capsys, element, field):
    code, out, err = run(capsys, "spin-cover", "--element", element)
    assert code == 2 and out == ""
    assert err.startswith("error: multivector JSON") and field in err


def test_spin_cover_names_a_zero_denominator(capsys):
    element = '{"dim":2,"signs":[1,1],"terms":[{"blade":[],"re":"1/0"}]}'
    code, out, err = run(capsys, "spin-cover", "--element", element)
    assert (code, out, err) == (2, "", "error: coefficient '1/0' has a zero denominator\n")


def test_spin_cover_certifies_serialized_float_product(capsys):
    """The product of the lifts of three float angles is exact, so its JSON
    certifies to the same exact rotation."""
    f4 = QuadraticForm.euclidean(4)
    u = (lift_rotation(1, 2, 0.3, f4) * lift_rotation(2, 3, 1.1, f4)
         * lift_rotation(3, 4, -0.7, f4))
    code, out, _ = run(capsys, "spin-cover", "--element", json.dumps(u.to_json()))
    assert code == 0
    assert json.loads(out) == covering_map(u).to_json()


def test_spin_cover_refuses_a_legacy_float_lift(capsys):
    """A float lift of pi/2 written as dyadic fractions has a norm an ulp
    off 1, so it is not a Spin element."""
    element = json.dumps({"dim": 2, "signs": [1, 1], "terms": [
        {"blade": [], "im": "0", "re": "6369051672525773/9007199254740992"},
        {"blade": [1, 2], "im": "0", "re": "1592262918131443/2251799813685248"}]})
    code, out, err = run(capsys, "spin-cover", "--element", element)
    assert code == 2 and out == ""
    assert "not a Spin element: norm is" in err and "not 1" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "cl-classify", "--dim", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"factors": [["C", 2]]}


def test_acceptance_exit_logic(capsys, monkeypatch):
    from spindex import acceptance as acc

    def fake_run_all(seed=0):
        return [acc.CriterionResult("x", True, "ok", 0.0)]

    monkeypatch.setattr(acc, "run_all", fake_run_all)
    code, out, _ = run(capsys, "acceptance", "--format", "human")
    assert code == 0 and out.startswith("PASS")

    def fake_run_all_fail(seed=0):
        return [acc.CriterionResult("x", False, "boom", 0.0)]

    monkeypatch.setattr(acc, "run_all", fake_run_all_fail)
    code, out, _ = run(capsys, "acceptance", "--format", "human")
    assert code == 1 and out.startswith("FAIL")


def test_acceptance_lines_show_budget_use():
    from spindex import acceptance as acc

    assert (acc.CriterionResult("torus", True, "ok", 0.414, 120.0).line()
            == "PASS torus: ok [0.41s / 120s]")
    assert acc.CriterionResult("flow", False, "boom", 0.0).line() == "FAIL flow: boom [0.00s]"
    assert acc._run("slow", 10.0, lambda: "done").line().endswith("s / 10s]")
    assert acc._run("free", 0.0, lambda: "done").budget == 0.0


def _cl_table_by_products(dim, signs):
    """cl-table's JSON and human output, with every entry from a full
    multivector product."""
    from spindex.clifford import Multivector, blade_name

    form = QuadraticForm(dim, signs)
    size = 1 << dim
    blades = [blade_name(m) for m in range(size)]
    table = []
    for a in range(size):
        row = []
        for b in range(size):
            ((mask, coeff),) = (Multivector(form, {a: 1}) * Multivector(form, {b: 1})).terms().items()
            name = blade_name(mask)
            row.append(name if coeff == 1 else f"-{name}" if coeff == -1 else f"{coeff}*{name}")
        table.append(row)
    as_json = json.dumps({"dim": dim, "signs": list(signs), "blades": blades,
                          "table": table}, sort_keys=True) + "\n"
    width = max(len(s) for row in table for s in row) + 1
    human = ["".rjust(width) + "".join(b.rjust(width) for b in blades)]
    for name, row in zip(blades, table):
        human.append(name.rjust(width) + "".join(s.rjust(width) for s in row))
    return {"json": as_json, "human": "\n".join(human) + "\n"}


@pytest.mark.parametrize("dim", range(9))
def test_cl_table_matches_products_byte_for_byte(capsys, dim):
    signatures = [tuple((-1) ** i for i in range(dim)), (1,) * dim,
                  (-1,) * dim, (1,) * (dim // 2) + (-1,) * (dim - dim // 2)]
    # the product oracle takes about a second per signature at dim 8
    for signs in signatures[:{7: 2, 8: 1}.get(dim, 4)]:
        # "--" would be read as argparse's end-of-options marker
        text = ",".join("+" if s == 1 else "-" for s in signs)
        expected = _cl_table_by_products(dim, signs)
        for fmt in ("json", "human"):
            code, out, _ = run(capsys, "cl-table", "--dim", str(dim), f"--signs={text}",
                               "--format", fmt)
            assert code == 0
            assert out == expected[fmt]


@pytest.mark.parametrize("command", [("cl-table",), ("cl-classify", "--real")])
@pytest.mark.parametrize("signs", ["--signs=--", "--signs=-x"])
def test_bad_signs_exit_two_with_an_error_line(capsys, command, signs):
    code, out, err = run(capsys, *command, "--dim", "2", signs)
    assert code == 2 and out == ""
    assert err.startswith("error: signs must be a string of '+' and '-'")
    assert err.count("\n") == 1


def test_exact_paths_do_not_load_numpy():
    """The exact core, cl-table and an exact spin-cover run without numpy."""
    element = json.dumps({"dim": 3, "signs": [1, 1, 1], "terms": [
        {"blade": [], "re": "3/5", "im": "0"}, {"blade": [1, 2], "re": "4/5", "im": "0"}]})
    script = "\n".join([
        "import io, sys, contextlib",
        "import spindex",
        "spindex.Multivector, spindex.SpinElement, spindex.covering_map",
        "from spindex import cli",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    assert cli.main(['cl-table', '--dim', '3']) == 0",
        f"    assert cli.main(['spin-cover', '--element', {element!r}]) == 0",
        "assert 'e123' in out.getvalue() and '-7/25' in out.getvalue()",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr


def test_lazy_package_exports():
    import spindex

    assert len(spindex.__all__) == 71 and "index" in spindex.__all__
    for name in spindex.__all__:
        assert getattr(spindex, name) is not None
    assert spindex.torus_index.index is spindex.index
    assert spindex.Multivector is spindex.clifford.Multivector
    with pytest.raises(AttributeError):
        spindex.no_such_name
