import json
import math

import numpy as np
import pytest

from ncstat.algebra import AlgebraSpec, State
from ncstat.cli import main
from ncstat.entropy import chain_rule_report, tensor_inclusion_morphism
from ncstat.generators import (
    GeneratorConfig,
    gen_composable_pair,
    gen_density,
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


def test_validate_flags_a_morphism_whose_states_are_not_states(tmp_path, capsys):
    p = str(tmp_path / "trace8.json")
    write_json(p, morphism_to_json(tensor_inclusion_morphism(np.eye(8), 2)))
    assert main(["validate", p]) == 1
    out = capsys.readouterr().out
    assert "normalization at source state total trace" in out
    assert "normalization at target state total trace" in out


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


@pytest.mark.parametrize("message", ["Unable to allocate 256. MiB for an array", ""])
def test_memory_error_is_one_line_naming_the_command_and_exit_2(
    workdir, monkeypatch, capsys, message
):
    import ncstat.cli as cli

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "construct_optimal_hypothesis", exhausted)
    assert main(["disintegrate", workdir["hom.json"], workdir["omega.json"]]) == 2
    err = _one_error_line(capsys)
    assert err.startswith("ncstat: error: disintegrate: out of memory")
    assert message in err


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


def _dropping_hom(mult) -> dict:
    return {
        "source": {"blocks": [1, 1]},
        "target": {"blocks": [1]},
        "mult": mult,
        "conjugators": [matrix_to_json(np.eye(1))],
    }


def test_disintegrate_hom_dropping_a_source_block_is_obstruction(tmp_path, capsys):
    ph, po = str(tmp_path / "hom.json"), str(tmp_path / "omega.json")
    write_json(ph, _dropping_hom([[1], [0]]))
    write_json(po, state_to_json(State(AlgebraSpec((1,)), (np.eye(1),))))
    assert main(["disintegrate", ph, po]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["no_disintegration"] is True
    assert math.isfinite(doc["residual"])
    assert "source block 1" in doc["detail"]


def test_non_integral_multiplicity_and_side_are_rejected(workdir, tmp_path, capsys):
    p = str(tmp_path / "hom.json")
    write_json(p, _dropping_hom([[1.9], [0]]))
    assert main(["validate", p]) == 1
    assert capsys.readouterr().out == "invalid: malformed mult: 1.9 is not an integer\n"
    bad = state_to_json(State(AlgebraSpec((2,)), (np.eye(2) / 2,)))
    bad["algebra"]["blocks"] = [2.7]
    write_json(p, bad)
    assert main(["disintegrate", workdir["hom.json"], p]) == 2
    assert "algebra block side: 2.7" in _one_error_line(capsys)


def test_chain_rule_command(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims", "2,2,2"]) == 0
    out = capsys.readouterr().out
    assert "chain rule" in out
    assert "RE composite" in out
    assert "vs H + ln(dA dB)" in out


def test_chain_rule_prints_the_report_right_hand_sides(tmp_path, capsys):
    rho = gen_density(np.random.default_rng(7), 8, faithful=True)
    path = str(tmp_path / "rho.json")
    write_json(path, matrix_to_json(rho))
    assert main(["chain-rule", path, "--dims", "2,2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rhs = chain_rule_report(rho, (2, 2, 2)).re_rhs
    assert [line.split(" = ")[-1] for line in lines[4:7]] == [repr(v) for v in rhs]


def test_chain_rule_rejects_a_density_that_is_not_a_state(tmp_path, capsys):
    path = str(tmp_path / "eye.json")
    write_json(path, matrix_to_json(np.eye(8)))
    assert main(["chain-rule", path, "--dims", "2,2,2"]) == 2
    assert "density is not a state" in _one_error_line(capsys)


def test_chain_rule_names_a_factor_below_one(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims=2,-2,-2"]) == 2
    assert "tensor factor must be >= 1, got -2" in _one_error_line(capsys)


def test_chain_rule_rejects_bad_dims(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims", "2,2"]) == 2
    assert "three tensor factors" in _one_error_line(capsys)


def test_chain_rule_names_dims_on_a_non_integer_factor(workdir, capsys):
    assert main(["chain-rule", workdir["rho.json"], "--dims", "1.5,2,2"]) == 2
    assert "--dims" in _one_error_line(capsys)


def test_chain_rule_reads_integers_wider_than_64_bits(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    # 1e20 loads and then fails only as a state, not as a matrix entry
    write_json(path, {"re": [[10**20]]})
    assert main(["chain-rule", path, "--dims", "1,1,1"]) == 2
    assert "not a state" in _one_error_line(capsys)
    write_json(path, {"re": [[10**400]]})
    assert main(["chain-rule", path, "--dims", "1,1,1"]) == 2
    assert "too large" in _one_error_line(capsys)


def test_check_command(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["check", "--trials", "3", "--seed", "5", "--json", out]) == 0
    doc = read_json(out)
    assert doc["ok"] is True
    assert "all laws pass" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_tolerance_must_be_finite_and_nonnegative(workdir, capsys, value):
    # a state with eigenvalue -0.5, which a NaN or infinite atol would pass
    bad = state_to_json(State(AlgebraSpec((2,)), (np.diag([1.5, -0.5]),)))
    p = workdir["dir"] + "/negative.json"
    write_json(p, bad)
    orthogonal = [workdir["s2.json"], workdir["s1.json"]]
    disintegrate = ["disintegrate", workdir["hom.json"], workdir["omega.json"]]
    for argv, flag in [
        (["validate", p, f"--atol={value}"], "--atol"),
        ([*disintegrate, f"--atol={value}"], "--atol"),
        (["rel-entropy", *orthogonal, f"--cutoff={value}"], "--cutoff"),
        (["re", workdir["m.json"], f"--cutoff={value}"], "--cutoff"),
    ]:
        assert main(argv) == 2
        assert f"{flag} must be finite and >= 0" in _one_error_line(capsys)
