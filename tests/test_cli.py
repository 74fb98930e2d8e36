"""JSON wire format and the command-line surface.

The CLI promises byte-identical output for identical invocations and the
stable exit-code contract 0 / 2 (validation) / 3 (I/O), so most tests here
drive main() directly and compare captured stdout as strings.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import systolic
from systolic import GramMatrix, LatticeBasis, SchemaError
from systolic.cli import main
from systolic.io import (
    basis_to_obj,
    gram_to_obj,
    lattice_from_obj,
    load_lattice,
    metric_from_obj,
    parse_rational,
)

HEX_OBJ = {"dim": 2, "gram": [["1", "1/2"], ["1/2", "1"]]}
FCC_OBJ = {"dim": 3, "gram": [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]]}


@pytest.fixture
def hex_file(tmp_path):
    p = tmp_path / "hex.json"
    p.write_text(json.dumps(HEX_OBJ))
    return str(p)


@pytest.fixture
def fcc_file(tmp_path):
    p = tmp_path / "fcc.json"
    p.write_text(json.dumps(FCC_OBJ))
    return str(p)


# ---------------------------------------------------------------------------
# parsing layer
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(7) == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("0") == 0


def test_parse_rational_rejects_floats_and_bools():
    with pytest.raises(SchemaError):
        parse_rational(0.5)
    with pytest.raises(SchemaError):
        parse_rational(True)
    with pytest.raises(SchemaError):
        parse_rational("0.5")


def test_lattice_from_obj_requires_exactly_one_matrix():
    with pytest.raises(SchemaError):
        lattice_from_obj({"dim": 2})
    both = dict(HEX_OBJ, basis=[["1", "0"], ["0", "1"]])
    with pytest.raises(SchemaError):
        lattice_from_obj(both)


def test_lattice_from_obj_rejects_unknown_keys_and_bad_shape():
    with pytest.raises(SchemaError):
        lattice_from_obj(dict(HEX_OBJ, extra=1))
    with pytest.raises(SchemaError):
        lattice_from_obj({"dim": 3, "gram": HEX_OBJ["gram"]})


def test_gram_and_basis_roundtrip_through_objects():
    g = GramMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert lattice_from_obj(gram_to_obj(g)).gram == g
    b = LatticeBasis([[1, 0], [100, 1]])
    assert lattice_from_obj(basis_to_obj(b)).basis == b


def test_load_lattice_propagates_oserror(tmp_path):
    with pytest.raises(OSError):
        load_lattice(str(tmp_path / "missing.json"))


def test_load_lattice_wraps_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_lattice(str(p))


def test_metric_from_obj_checks_shape():
    good = metric_from_obj({"n": 2, "dist": [[0.0, 1.0], [1.0, 0.0]]})
    assert good.n == 2
    with pytest.raises(SchemaError):
        metric_from_obj({"n": 3, "dist": [[0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(SchemaError):
        metric_from_obj({"dist": [[0.0]]})


# ---------------------------------------------------------------------------
# CLI happy paths
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_minima_json(capsys, hex_file):
    code, out, err = run_cli(capsys, "lattice", "minima", "--in", hex_file)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["lambda_sq"] == ["1", "1"]
    assert payload["gamma_approx"] == 1.1547005383792515
    assert payload["witnesses"] == [[0, 1], [1, -1]]


def test_lattice_hermite_json(capsys, fcc_file):
    code, out, _ = run_cli(capsys, "lattice", "hermite", "--in", fcc_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["gamma_pow"] == "2"
    assert payload["critical"] is True
    assert payload["det"] == "4"


def test_lattice_bm_and_critical(capsys, hex_file):
    code, out, _ = run_cli(capsys, "lattice", "bm", "--in", hex_file)
    assert code == 0 and json.loads(out)["bm_sq"] == "4/3"
    code, out, _ = run_cli(capsys, "lattice", "critical", "--in", hex_file)
    payload = json.loads(out)
    assert payload["critical"] and payload["dual_critical"]
    assert payload["gap_to_constant"] == "0"


def test_lattice_dual_and_reduce_roundtrip(capsys, tmp_path):
    p = tmp_path / "skew.json"
    p.write_text(json.dumps({"dim": 2, "basis": [["1", "0"], ["100", "1"]]}))
    code, out, _ = run_cli(capsys, "lattice", "dual", "--in", str(p))
    assert code == 0
    assert json.loads(out)["basis"] == [["1", "-100"], ["0", "1"]]
    code, out, _ = run_cli(capsys, "lattice", "reduce", "--in", str(p))
    payload = json.loads(out)
    assert payload["basis"] == [["1", "0"], ["0", "1"]]
    assert payload["transform"] == [[1, 0], [-100, 1]]


def test_torus_systoles_and_verifiers(capsys, fcc_file):
    code, out, _ = run_cli(capsys, "torus", "systoles", "--in", fcc_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["systole_sq"] == "2"
    assert payload["codim1_systole_sq"] == "3"
    code, out, _ = run_cli(capsys, "torus", "verify-gromov", "--in", fcc_file)
    rep = json.loads(out)
    assert rep["equality"] is True
    assert set(rep) == {
        "name", "satisfied", "equality", "tightness",
        "lhs_power", "rhs_power", "power", "constants_derived",
    }


def test_torus_pu_round(capsys):
    code, out, _ = run_cli(capsys, "torus", "pu-round", "--curvature", "4")
    rep = json.loads(out)
    assert code == 0 and rep["equality"] is True and rep["lhs_power"] == "1/4"


def test_filling_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "filling", "catalog", "--space", "circle",
                           "--length", "6")
    assert code == 0 and json.loads(out)["value"] == 1.0
    code, out, _ = run_cli(capsys, "filling", "extrema", "--i", "2", "--length", "1")
    assert json.loads(out)["value"] == 0.4
    code, out, _ = run_cli(capsys, "filling", "check-91b", "--space", "rp",
                           "--i", "3", "--curvature", "1")
    assert json.loads(out)["equality"] is True

    from systolic import circle_points

    m = circle_points(24, 6.0)
    p = tmp_path / "circle24.json"
    p.write_text(json.dumps({"n": 24, "dist": [list(r) for r in m.dist]}))
    code, out, _ = run_cli(capsys, "filling", "bound", "--in", str(p),
                           "--max-subset", "3", "--mode", "exhaustive")
    payload = json.loads(out)
    assert payload["R"] == 1.0 and payload["witness"] == [0, 8, 16]


def test_bundle_report(capsys):
    code, out, _ = run_cli(capsys, "bundle", "--euler", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["h1"] == {"free_rank": 2, "torsion": [2]}
    assert payload["linking"]["magnitude"] == "1/2"
    assert payload["lambda"] == "-1"
    assert payload["corollary93"] is True


# ---------------------------------------------------------------------------
# determinism, formats, exit codes
# ---------------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys, fcc_file):
    _, out1, _ = run_cli(capsys, "torus", "systoles", "--in", fcc_file)
    _, out2, _ = run_cli(capsys, "torus", "systoles", "--in", fcc_file)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "bundle", "--euler", "-7")
    _, out4, _ = run_cli(capsys, "bundle", "--euler", "-7")
    assert out3 == out4


def test_json_keys_are_sorted(capsys, hex_file):
    _, out, _ = run_cli(capsys, "lattice", "hermite", "--in", hex_file)
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_table_format_is_flat_key_value_lines(capsys, hex_file):
    code, out, _ = run_cli(capsys, "lattice", "bm", "--in", hex_file,
                           "--format", "table")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(len(ln.split(None, 1)) == 2 for ln in lines)
    as_dict = dict(ln.split(None, 1) for ln in lines)
    assert as_dict["bm_sq"] == '"4/3"'


def test_exit_code_two_on_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "gram": [["1", "2"], ["2", "1"]]}))
    code, out, err = run_cli(capsys, "lattice", "minima", "--in", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("NotPositiveDefinite:")
    code, _, err = run_cli(capsys, "bundle", "--euler", "0")
    assert code == 2 and err.startswith("TrivialBundle:")


def test_exit_code_three_on_missing_file(capsys):
    code, out, err = run_cli(capsys, "lattice", "minima", "--in", "/no/such/file.json")
    assert code == 3 and err.startswith("IOError:")


def test_exit_code_two_on_malformed_json(capsys, tmp_path):
    p = tmp_path / "mangled.json"
    p.write_text("[1, 2,")
    code, _, err = run_cli(capsys, "lattice", "minima", "--in", str(p))
    assert code == 2 and err.startswith("SchemaError:")


def test_missing_required_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, "filling", "catalog", "--space", "circle")
    assert code == 2  # no --length


def test_argparse_errors_surface_as_exit_two(capsys):
    code = main(["torus", "no-such-action"])
    capsys.readouterr()
    assert code == 2


def test_module_entry_point_roundtrip(tmp_path):
    p = tmp_path / "hex.json"
    p.write_text(json.dumps(HEX_OBJ))
    # the child imports the same package as this test, installed or not
    src = str(Path(systolic.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "systolic.cli", "lattice", "hermite", "--in", str(p)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma_pow"] == "4/3"
