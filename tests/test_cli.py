import json

import numpy as np
import pytest

from spindex import cli
from spindex.clifford import QuadraticForm
from spindex.spin_groups import FLOAT_TOL, covering_map, lift_rotation


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
    monkeypatch.setattr(cli.torus_index, "build_torus_dirac", None)
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
    import math
    theta = math.pi / 3
    code, lifted, _ = run(capsys, "spin-lift", "--i", "1", "--j", "3",
                          "--theta", str(theta), "--dim", "3")
    assert code == 0
    code, out, _ = run(capsys, "spin-cover", "--element", lifted.strip())
    assert code == 0
    rows = [[float(x) for x in r] for r in json.loads(out)["rows"]]
    assert abs(rows[0][0] - math.cos(theta)) < 1e-12
    assert abs(rows[2][0] - math.sin(theta)) < 1e-12


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


def test_spin_cover_certifies_serialized_float_product(capsys):
    f4 = QuadraticForm.euclidean(4)
    u = (lift_rotation(1, 2, 0.3, f4) * lift_rotation(2, 3, 1.1, f4)
         * lift_rotation(3, 4, -0.7, f4))
    code, out, _ = run(capsys, "spin-cover", "--element", json.dumps(u.to_json()))
    assert code == 0
    rows = np.array([[float(x) for x in r] for r in json.loads(out)["rows"]])
    assert np.max(np.abs(rows - covering_map(u).to_numpy())) <= FLOAT_TOL


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
