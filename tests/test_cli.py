import json
import os

import numpy as np
import pytest

from bandflow.cli import main
from bandflow.serialize import fmt_float, read_csv, write_csv, write_json

FIG_TWO_BAND_PARAMS = {"delta": 3.0, "d": 1.0, "gamma_re": 1.0, "gamma_im": 2.0,
                       "L": 5, "S": 0.5}
LADDER_PARAMS = {"delta": 1.0, "d": 0.0, "gamma_re": 1.0, "gamma_im": 0.0,
                 "L": 5, "S": 0.5}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", config_path, "--out", str(out_dir), *extra])


# ---------------------------------------------------------------- serialize

def test_fmt_float_round_trips():
    rng = np.random.default_rng(123)
    for x in rng.normal(scale=1e3, size=200):
        assert float(fmt_float(x)) == x


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1, 3, True, None), (-1.0 / 3.0, -2, False, "x")]
    write_csv(path, ["a", "b", "c", "d"], rows)
    header, data = read_csv(path)
    assert header == ["a", "b", "c", "d"]
    assert float(data[0][0]) == 0.1
    assert float(data[1][0]) == -1.0 / 3.0
    assert data[0][2] == "true" and data[1][2] == "false"
    assert data[0][3] == ""


def test_json_atomic_write(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"x": 1.0 / 3.0})
    assert json.loads(path.read_text())["x"] == 1.0 / 3.0
    assert list(tmp_path.iterdir()) == [path]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_leftover_tmp_directory_does_not_block_writes(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": FIG_TWO_BAND_PARAMS,
        "a_grid": [20.0],
    })
    out = tmp_path / "out"
    (out / "spectrum.csv.tmp").mkdir(parents=True)
    assert run("spectrum", config, out) == 0
    assert len(read_csv(out / "spectrum.csv")[1]) == 22
    assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv",
                                                     "spectrum.csv.tmp"]


# ---------------------------------------------------------------- spectrum

def test_cmd_spectrum(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": FIG_TWO_BAND_PARAMS,
        "a_grid": [-60.0, -25.0, 20.0],
    })
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["A", "jz", "n", "energy", "band", "is_edge"]
    assert len(rows) == 3 * 22
    mid = [r for r in rows if float(r[0]) == -25.0]
    upper = [r for r in mid if r[4] == "1"]
    assert len(upper) == 12
    edges = {r[1] for r in mid if r[5] == "true"}
    assert edges == {"-5.5", "5.5"}
    # emitted energies round-trip to the exact in-memory floats
    from bandflow.params import PhysParams
    from bandflow.spectrum import joint_spectrum
    p = PhysParams(A=-25.0, delta=3.0, d=1.0, gamma=1.0 + 2.0j, L=5, S=0.5)
    spec = {(lv.jz, lv.n): lv.energy for lv in joint_spectrum(p).levels}
    for r in mid:
        assert float(r[3]) == spec[(float(r[1]), int(r[2]))]


def test_cmd_spectrum_empty_grid_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": FIG_TWO_BAND_PARAMS,
        "a_grid": [],
    })
    assert run("spectrum", config, tmp_path / "out") == 2
    assert "a_grid" in capsys.readouterr().err


# ---------------------------------------------------------------- chern

def test_cmd_chern_with_wall_refusal(tmp_path, capsys):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": LADDER_PARAMS,
        "a_grid": [-2.0, -1.0, 0.0, 2.0],
        "mesh": {"n_theta": 16, "n_phi": 16},
    })
    out = tmp_path / "out"
    assert run("chern", config, out) == 3
    header, rows = read_csv(out / "chern.csv")
    assert header == ["A", "ch_0", "ch_1", "min_gap", "valid", "message"]
    by_a = {float(r[0]): r for r in rows}
    assert (by_a[-2.0][1], by_a[-2.0][2]) == ("0", "0")
    assert (by_a[0.0][1], by_a[0.0][2]) == ("1", "-1")
    assert by_a[-1.0][4] == "false" and by_a[-1.0][1] == ""
    assert by_a[2.0][4] == "true"


def test_cmd_chern_all_valid_exit_zero(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": LADDER_PARAMS,
        "a_grid": [-2.0, 0.0, 2.0],
        "mesh": {"n_theta": 16, "n_phi": 16},
    })
    out = tmp_path / "out"
    assert run("chern", config, out) == 0
    _, rows = read_csv(out / "chern.csv")
    assert [r[4] for r in rows] == ["true"] * 3


def test_cmd_chern_coarse_mesh_is_refusal(tmp_path, capsys):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"delta": 1.0, "d": 0.0, "gamma_re": 1.0, "gamma_im": 0.0,
                   "L": 5, "S": 3.0},
        "a_grid": [0.0],
        "mesh": {"n_theta": 4, "n_phi": 4},
    })
    assert run("chern", config, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("refusal:") and "refine the mesh" in err
    assert "Traceback" not in err


def test_cmd_chern_eigensolver_failure_is_refusal(tmp_path, monkeypatch, capsys):
    import bandflow.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli_mod, "chern_numbers", boom)
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": LADDER_PARAMS,
        "a_grid": [0.0],
    })
    assert run("chern", config, tmp_path / "out") == 3
    assert capsys.readouterr().err.startswith("refusal:")


# ---------------------------------------------------------------- emmap / dh

def test_cmd_emmap(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"A": 0.0, "delta": 0.0, "d": 0.0, "gamma_re": 1.0,
                   "gamma_im": 0.0, "L": 5, "S": 2.0},
        "jz_grid": {"start": -7.0, "stop": 7.0, "num": 29},
    })
    out = tmp_path / "out"
    assert run("emmap", config, out) == 0
    header, rows = read_csv(out / "emmap.csv")
    assert header == ["jz", "e_min", "e_max"]
    assert len(rows) == 29
    sidecar = json.loads((out / "critical_values.json").read_text())
    locations = {(cv["jz"], cv["location"]) for cv in sidecar["critical_values"]}
    assert (3.0, "interior") in locations and (-3.0, "interior") in locations
    assert (7.0, "boundary") in locations and (-7.0, "boundary") in locations


def test_cmd_dh(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"delta": 0.0, "d": 0.0, "gamma_re": 1.0, "gamma_im": 0.0,
                   "L": 5, "S": 2.0},
        "jz_grid": {"values": [-7.0, -3.0, 0.0, 3.0, 7.0]},
    })
    out = tmp_path / "out"
    assert run("dh", config, out) == 0
    _, rows = read_csv(out / "dh.csv")
    volumes = [float(r[1]) for r in rows]
    assert volumes == [0.0, 4.0, 4.0, 4.0, 0.0]


# ---------------------------------------------------------------- monodromy

def monodromy_config(loop, start):
    return {
        "schema_version": 1,
        "params": {"A": 0.0, "delta": 0.0, "d": 0.0, "gamma_re": 1.0,
                   "gamma_im": 0.0, "L": 16, "S": 5.0},
        "monodromy": {"start": start, "loop": loop},
    }


def test_cmd_monodromy_single_defect(tmp_path):
    loop = [[6, 30], [16, 30], [16, -30], [6, -30], [6, 30]]
    config = write_config(tmp_path, monodromy_config(
        loop, {"jz": 6.0, "n": 6, "dn": None}))
    out = tmp_path / "out"
    assert run("monodromy", config, out) == 0
    doc = json.loads((out / "monodromy.json").read_text())
    assert doc["matrix"] == [[1, 0], [-1, 1]]
    assert doc["det"] == 1
    assert doc["trace"][0] == doc["start"]
    assert len(doc["trace"]) > 10


def test_cmd_monodromy_ambiguity_exit_code(tmp_path, monkeypatch):
    import bandflow.cli as cli_mod
    from bandflow.monodromy import TransportAmbiguityError

    def boom(*args, **kwargs):
        raise TransportAmbiguityError("forced tie")

    monkeypatch.setattr(cli_mod, "transport_cell", boom)
    loop = [[6, 30], [16, 30], [16, -30], [6, -30], [6, 30]]
    config = write_config(tmp_path, monodromy_config(
        loop, {"jz": 6.0, "n": 6}))
    assert run("monodromy", config, tmp_path / "out") == 4


def test_cmd_monodromy_open_loop_is_config_error(tmp_path):
    loop = [[6, 30], [16, 30], [16, -30]]
    config = write_config(tmp_path, monodromy_config(
        loop, {"jz": 6.0, "n": 6}))
    assert run("monodromy", config, tmp_path / "out") == 2


# ---------------------------------------------------------------- flow

def test_cmd_flow(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"delta": 1.0, "d": 0.5, "gamma_re": 1.0, "gamma_im": 2.0,
                   "L": 5, "S": 1.0},
        "flow": {"a_points": [-30.0, -12.5, 0.0]},
    })
    out = tmp_path / "out"
    assert run("flow", config, out) == 0
    doc = json.loads((out / "flow.json").read_text())
    assert doc["local_flows"][0]["delta_n_by_band"] == {"0": -2, "1": 0, "2": 2}
    assert doc["local_flows"][1]["delta_n_by_band"] == {"0": 2, "1": 0, "2": -2}
    assert doc["global_delta_n_by_band"] == {"0": 0, "1": 0, "2": 0}
    assert doc["local_flows"][0]["redistributions"] == {
        "0->1": 1, "0->2": 1, "1->2": 1}


def test_cmd_flow_wall_point_refused(tmp_path, capsys):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"delta": 1.0, "d": 0.5, "gamma_re": 1.0, "gamma_im": 2.0,
                   "L": 5, "S": 1.0},
        "flow": {"a_points": [-30.0, -30.0]},
    })
    assert run("flow", config, tmp_path / "out") == 2


# ---------------------------------------------------------------- config

def test_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path):
    config = write_config(tmp_path, {"schema_version": 99, "params": {}})
    assert run("spectrum", config, tmp_path / "out") == 2


def test_missing_param_key(tmp_path, capsys):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {"delta": 1.0, "d": 0.0, "gamma_re": 1.0, "gamma_im": 0.0,
                   "L": 5},
        "a_grid": [0.0],
    })
    assert run("spectrum", config, tmp_path / "out") == 2
    assert "params.S" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("L", True), ("S", "1"), ("A", None),
                                       ("gamma_im", "2")])
def test_invalid_param_value_is_config_error(tmp_path, capsys, key, value):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": {**LADDER_PARAMS, "A": 0.0, key: value},
        "a_grid": [0.0],
    })
    assert run("spectrum", config, tmp_path / "out") == 2
    assert key in capsys.readouterr().err


def test_spectrum_deterministic_outputs(tmp_path):
    config = write_config(tmp_path, {
        "schema_version": 1,
        "params": FIG_TWO_BAND_PARAMS,
        "a_grid": [-60.0, 20.0],
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("spectrum", config, out1) == 0
    assert run("spectrum", config, out2) == 0
    assert (out1 / "spectrum.csv").read_text() == (out2 / "spectrum.csv").read_text()
