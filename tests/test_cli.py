import json
import math

import numpy as np
import pytest

from ncstat.algebra import AlgebraSpec, State
from ncstat.cli import main
from ncstat.generators import (
    GeneratorConfig,
    gen_composable_pair,
    gen_morphism,
    gen_optimal_morphism,
    rng_for,
)
from ncstat.serialize import (
    hom_to_json,
    matrix_to_json,
    morphism_to_json,
    read_json,
    state_to_json,
    write_json,
)

CFG = GeneratorConfig(seed=31, trials=4)


@pytest.fixture
def workdir(tmp_path):
    m = gen_morphism(CFG, rng_for(CFG, 0), faithful=True)
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 1))
    opt = gen_optimal_morphism(CFG, rng_for(CFG, 2))
    paths = {}

    def put(name, doc):
        p = str(tmp_path / name)
        write_json(p, doc)
        paths[name] = p

    put("m.json", morphism_to_json(m))
    put("inner.json", morphism_to_json(inner))
    put("outer.json", morphism_to_json(outer))
    put("hom.json", hom_to_json(opt.hom))
    put("omega.json", state_to_json(opt.target.state))
    put("s1.json", state_to_json(State(AlgebraSpec((2,)), (np.diag([1.0, 0.0]),))))
    put("s2.json", state_to_json(State(AlgebraSpec((2,)), (np.eye(2) / 2,))))
    put("rho.json", matrix_to_json(np.eye(8) / 8))
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_morphism_ok(workdir, capsys):
    assert main(["validate", workdir["m.json"]]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_flags_bad_state(workdir, tmp_path, capsys):
    bad = state_to_json(State(AlgebraSpec((2,)), (np.eye(2) / 2,)))
    bad["densities"][0]["re"][0][0] = 5.0
    p = str(tmp_path / "bad.json")
    write_json(p, bad)
    assert main(["validate", p]) == 1
    assert "normalization" in capsys.readouterr().out


def test_validate_rejects_nan_entry(tmp_path, capsys):
    bad = state_to_json(State(AlgebraSpec((2,)), (np.eye(2) / 2,)))
    bad["densities"][0]["re"][0][1] = math.nan
    p = str(tmp_path / "nan.json")
    write_json(p, bad)
    assert main(["validate", p]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: ") and out.count("\n") == 1
    assert "non-finite" in out


def test_rel_entropy_finite_and_infinite(workdir, capsys):
    assert main(["rel-entropy", workdir["s1.json"], workdir["s2.json"]]) == 0
    first = capsys.readouterr().out.strip()
    assert abs(float(first) - math.log(2)) < 1e-12
    assert main(["rel-entropy", workdir["s2.json"], workdir["s1.json"]]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_re_command(workdir, capsys):
    assert main(["re", workdir["m.json"]]) == 0
    float(capsys.readouterr().out.strip())  # parses as a number


def test_rectify_output(workdir, tmp_path, capsys):
    out = str(tmp_path / "rect.json")
    assert main(["rectify", workdir["m.json"], "-o", out]) == 0
    doc = read_json(out)
    assert set(doc) == {"u", "morphism"}
    # rectified morphism revalidates
    p = str(tmp_path / "rect_m.json")
    write_json(p, doc["morphism"])
    assert main(["validate", p]) == 0


def test_compose_command(workdir, tmp_path):
    out = str(tmp_path / "comp.json")
    assert main(["compose", workdir["inner.json"], workdir["outer.json"], "-o", out]) == 0
    p = read_json(out)
    assert "hom" in p and "cpu" in p


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ncstat: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_compose_rejects_mismatch(workdir, capsys):
    assert main(["compose", workdir["m.json"], workdir["outer.json"]]) == 2
    assert "differ" in _one_error_line(capsys)


def _bad_file(tmp_path, kind: str, matrix: bool = False) -> str:
    """A file the command cannot use: missing, NaN-valued, unclassifiable or
    a valid document of the wrong kind.

    The NaN file holds a state, or a bare matrix if ``matrix`` is set; the
    wrong-kind file holds a bare matrix, or a state if ``matrix`` is set.
    """
    p = str(tmp_path / f"{kind}.json")
    if kind == "nan":
        rho = np.eye(2) / 2
        rho[0, 1] = math.nan
        bad = matrix_to_json(rho) if matrix else state_to_json(
            State(AlgebraSpec((2,)), (rho,))
        )
        write_json(p, bad)
    elif kind == "unclassifiable":
        write_json(p, {"colour": "blue"})
    elif kind == "wrong-kind":
        rho = np.eye(2) / 2
        state = state_to_json(State(AlgebraSpec((2,)), (rho,)))
        write_json(p, state if matrix else matrix_to_json(rho))
    return p


# Each command with the bad file in the first input position; the other
# inputs are well formed.
BAD_INPUT_COMMANDS = {
    "rel-entropy": lambda bad, w: ["rel-entropy", bad, w["s2.json"]],
    "re": lambda bad, w: ["re", bad],
    "rectify": lambda bad, w: ["rectify", bad],
    "compose": lambda bad, w: ["compose", bad, w["outer.json"]],
    "disintegrate": lambda bad, w: ["disintegrate", bad, w["omega.json"]],
    "chain-rule": lambda bad, w: ["chain-rule", bad, "--dims", "2,2,2"],
}


@pytest.mark.parametrize("kind", ["missing", "nan", "unclassifiable", "wrong-kind"])
@pytest.mark.parametrize("command", sorted(BAD_INPUT_COMMANDS))
def test_unloadable_input_is_one_line_and_exit_2(
    workdir, tmp_path, capsys, command, kind
):
    bad = _bad_file(tmp_path, kind, matrix=command == "chain-rule")
    argv = BAD_INPUT_COMMANDS[command](bad, workdir)
    assert main(argv) == 2
    message = _one_error_line(capsys)
    expected = {
        "missing": "No such file",
        "nan": "non-finite",
        "unclassifiable": "cannot classify",
        "wrong-kind": "expected a ",
    }[kind]
    assert expected in message


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", _bad_file(tmp_path, "missing")]) == 2
    assert "No such file" in _one_error_line(capsys)


def test_bad_input_in_second_position_exits_2(workdir, tmp_path, capsys):
    assert main(["rel-entropy", workdir["s1.json"], _bad_file(tmp_path, "nan")]) == 2
    _one_error_line(capsys)
    assert main(["disintegrate", workdir["hom.json"], str(tmp_path / "none")]) == 2
    _one_error_line(capsys)


def test_malformed_document_and_dims_exit_2(workdir, tmp_path, capsys):
    # a state whose algebra lacks "blocks", a matrix whose rows are not
    # numbers, a file that is not JSON, and dims that are not integers
    broken = str(tmp_path / "broken.json")
    write_json(broken, {"algebra": {}, "densities": []})
    assert main(["re", broken]) == 2
    assert "lacks the key 'blocks'" in _one_error_line(capsys)
    write_json(broken, {"re": [[{"x": 1}]]})
    assert main(["chain-rule", broken, "--dims", "2,2,2"]) == 2
    _one_error_line(capsys)
    with open(broken, "w") as fh:
        fh.write("{not json")
    assert main(["rectify", broken]) == 2
    _one_error_line(capsys)
    assert main(["chain-rule", workdir["rho.json"], "--dims", "2,x,2"]) == 2
    _one_error_line(capsys)


def test_disintegrate_success(workdir, tmp_path, capsys):
    out = str(tmp_path / "dis.json")
    assert main(["disintegrate", workdir["hom.json"], workdir["omega.json"], "-o", out]) == 0
    p = str(tmp_path / "dis_check.json")
    write_json(p, read_json(out))
    assert main(["validate", p]) == 0
    assert "optimal" in capsys.readouterr().out


def test_disintegrate_obstruction(tmp_path, capsys):
    hom = {
        "source": {"blocks": [1, 1]},
        "target": {"blocks": [2]},
        "mult": [[1], [1]],
        "conjugators": [matrix_to_json(np.eye(2))],
    }
    omega = state_to_json(
        State(AlgebraSpec((2,)), (np.array([[0.5, 0.2], [0.2, 0.5]]),))
    )
    ph = str(tmp_path / "hom.json")
    po = str(tmp_path / "omega.json")
    write_json(ph, hom)
    write_json(po, omega)
    assert main(["disintegrate", ph, po]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["no_disintegration"] is True
    assert abs(doc["residual"] - 0.2 * math.sqrt(2)) < 1e-12


def test_chain_rule_command(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims", "2,2,2"]) == 0
    out = capsys.readouterr().out
    assert "chain rule" in out
    assert "RE composite" in out
    assert "vs H + ln(dA dB)" in out


def test_chain_rule_rejects_bad_dims(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims", "2,2"]) == 1


def test_check_command(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["check", "--trials", "3", "--seed", "5", "--json", out]) == 0
    doc = read_json(out)
    assert doc["ok"] is True
    assert "all laws pass" in capsys.readouterr().out


def test_env_tolerance_override(workdir, monkeypatch, capsys):
    monkeypatch.setenv("NCSTAT_TOL", "1e3")
    # with an absurdly loose tolerance even a defective state validates
    bad = state_to_json(State(AlgebraSpec((2,)), (np.eye(2),)))
    p = workdir["dir"] + "/loose.json"
    write_json(p, bad)
    assert main(["validate", p]) == 0
    capsys.readouterr()
    monkeypatch.setenv("NCSTAT_TOL", "not-a-number")
    assert main(["validate", p]) == 2
    assert "NCSTAT_TOL is not a number" in _one_error_line(capsys)
