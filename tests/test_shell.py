import hashlib
import json
import os
from fractions import Fraction as F

import pytest

from saet.cli import main
from saet.complexes import PLSet, build_complex, eta
from saet.errors import DimensionTooHigh, ParseError, PreconditionViolated, SaetError
from saet.export import export_carved, export_mesh, export_tube
from saet.fixtures import (
    fix_a,
    fix_c,
    fix_t,
    punctured_square,
    scaled_slope_function_c,
    square_complex,
    step_function_a,
    wedge_complex,
)
from saet.germs import PathGerm
from saet.io import (
    complex_from_dict,
    complex_to_dict,
    function_from_dict,
    function_to_dict,
    load_complex,
    load_function,
    load_path,
    path_from_dict,
    path_to_dict,
    save_complex,
    save_function,
    save_path,
)
from saet.verify import default_corpus, run_suite


def test_complex_roundtrip(tmp_path, square):
    m = fix_a(square)
    path = tmp_path / "fixa.json"
    save_complex(str(path), square, m)
    k2, m2 = load_complex(str(path))
    assert [s.vertex_ids for s in k2.simplices] == [
        s.vertex_ids for s in square.simplices
    ]
    assert k2.vertices == square.vertices
    assert m2.members == m.members


def test_rational_strings_and_shorthand():
    data = {
        "n": 1,
        "vertices": [["0"], ["1/2"], [1]],
        "simplices": [[0, 1], [1, 2]],
        "in_M": [0, 3],
    }
    k, m = complex_from_dict(data)
    assert k.vertices[1] == (F(1, 2),)
    assert m.members == {0, 3}


def test_floats_rejected():
    with pytest.raises(ParseError):
        complex_from_dict({"n": 1, "vertices": [[0.5], [1]], "simplices": [[0, 1]]})


def test_bad_member_ids_rejected():
    with pytest.raises(ParseError):
        complex_from_dict(
            {"n": 1, "vertices": [["0"], ["1"]], "simplices": [[0, 1]], "in_M": [99]}
        )


def test_function_roundtrip(wedge, fix_c):
    g = scaled_slope_function_c(fix_c)
    data = function_to_dict(g)
    g2 = function_from_dict(data, fix_c, validate_continuity=False)
    assert set(g2.pieces) == set(g.pieces)
    for sid, piece in g.pieces.items():
        assert g2.pieces[sid].den == piece.den
        assert g2.pieces[sid].factors == piece.factors


@pytest.mark.parametrize("piece", [
    pytest.param({"t_end": 1, "c": "00", "v": "11"}, id="string-c-and-v"),
    pytest.param({"t_end": 1, "c": [0, 0], "v": {"1": 0, "2": 1}}, id="object-v"),
])
def test_path_rejects_strings_and_objects_for_lists(tmp_path, capsys, piece):
    # "c": "00", "v": "11" was read as c = (0, 0), v = (1, 1)
    with pytest.raises(ParseError, match="path piece 0 [cv] must be a JSON list"):
        path_from_dict({"pieces": [piece]})
    k, m, data = _fix_b_x_function()
    save_complex(str(tmp_path / "fixb.json"), k, m)
    (tmp_path / "f.json").write_text(json.dumps(data))
    (tmp_path / "path.json").write_text(json.dumps({"pieces": [piece]}))
    assert main(["eval", str(tmp_path / "fixb.json"), str(tmp_path / "f.json"),
                 "--path", str(tmp_path / "path.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a JSON list" in err and err.count("\n") == 1


@pytest.mark.parametrize("data, message", [
    pytest.param({"pieces": [{"t_end": 1, "c": [0, 0], "v": [0, 1], "w": [1, 0]}]},
                 "path piece 0 has the key 'w'", id="unknown-piece-key"),
    pytest.param({"pieces": [{"t_end": 1, "c": [0, 0], "v": [0, 1]}], "piece": []},
                 "path data has the key 'piece'", id="unknown-key"),
    pytest.param({"pieces": [[1, [0, 0], [0, 1]]]}, "path piece 0 must be a JSON object",
                 id="list-piece"),
])
def test_path_rejects_keys_it_does_not_read(tmp_path, capsys, data, message):
    with pytest.raises(ParseError, match=message):
        path_from_dict(data)
    k, m, function = _fix_b_x_function()
    save_complex(str(tmp_path / "fixb.json"), k, m)
    (tmp_path / "f.json").write_text(json.dumps(function))
    (tmp_path / "path.json").write_text(json.dumps(data))
    assert main(["eval", str(tmp_path / "fixb.json"), str(tmp_path / "f.json"),
                 "--path", str(tmp_path / "path.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_path_roundtrip():
    alpha = PathGerm(
        [(F(1, 2), (0, 0), (1, F(1, 2))), (1, (F(1, 4), F(1, 8)), (F(1, 2), F(1, 4)))]
    )
    assert path_from_dict(path_to_dict(alpha)) == alpha


def test_verify_deterministic_manifests():
    m1 = run_suite("complex,metric")
    m2 = run_suite("complex,metric")
    assert m1.to_json() == m2.to_json()
    assert m1.ok


def test_verify_empty_suite_noop():
    m = run_suite("none")
    assert m.ok and not m.checks


def test_verify_detects_corruption(square):
    corpus = default_corpus()
    bad = set(corpus["fix_a"].members)
    bad.discard(square.id_of((0,)))  # flip the origin membership bit
    corpus["fix_a"] = PLSet(corpus["fix_a"].complex, bad)
    m = run_suite("complex", corpus=corpus)
    assert not m.ok
    failed = [c["name"] for c in m.checks if not c["pass"]]
    assert "rho_fix_a" in failed or "eta_fix_a" in failed


def test_export_mesh_and_tube(tmp_path, square):
    m = fix_a(square)
    obj = tmp_path / "a.obj"
    export_mesh(square, m, str(obj))
    text = obj.read_text().splitlines()
    assert sum(1 for line in text if line.startswith("v ")) == 9
    assert any(line.startswith("f ") for line in text)
    off = tmp_path / "a.off"
    export_mesh(square, m, str(off), fmt="off")
    assert off.read_text().startswith("OFF")
    lens = tmp_path / "lens.obj"
    export_tube(fix_t(), str(lens), resolution=24)
    assert any(line.startswith("l ") for line in lens.read_text().splitlines())


def test_export_tube_box_holds_a_long_tube(tmp_path, monkeypatch):
    # the raster box is the tube's reach box, which holds the whole closed
    # tube: over a base of length 10 it reaches beyond the height 14/5
    from saet import export
    from saet.tubes import INSIDE_OPEN, Tube, membership, reach_bounds

    tube = Tube([(0, 0), (10, 0)], F(1, 4))
    x = (5, F(14, 5))
    assert membership(tube, x) == INSIDE_OPEN
    boxes = []
    monkeypatch.setattr(export, "_grid_raster", lambda member, bbox, *_: boxes.append(bbox))
    export_tube(tube, str(tmp_path / "long.obj"))
    assert boxes == [reach_bounds(tube)]
    q, lo, hi = boxes[0]
    assert all(F(a, q) <= c <= F(b, q) for c, a, b in zip(x, lo, hi))


def test_export_carved(tmp_path, fix_a_embedded):
    out = tmp_path / "carved.obj"
    export_carved(fix_a_embedded.carved, str(out), resolution=20)
    assert out.exists() and out.stat().st_size > 0


def test_export_refuses_bad_resolutions(tmp_path, fix_a_embedded):
    # a resolution must be an int of at least 1, as the CLI's --resolution;
    # nothing is written for a refused one
    out = tmp_path / "bad.obj"
    for export, target in ((export_tube, fix_t()), (export_carved, fix_a_embedded.carved)):
        for bad in (0, -4):
            with pytest.raises(PreconditionViolated):
                export(target, str(out), resolution=bad)
        for bad in (True, 2.0, "8"):
            with pytest.raises(TypeError):
                export(target, str(out), resolution=bad)
        assert not out.exists()
    export_tube(fix_t(), str(out), resolution=1)
    assert out.exists()


def test_export_dimension_guard(tmp_path):
    k = build_complex(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(0, 1, 2, 3, 4)],
    )
    with pytest.raises(DimensionTooHigh):
        export_mesh(k, None, str(tmp_path / "x.obj"))


def _write_fixtures(tmp_path):
    k = square_complex()
    save_complex(str(tmp_path / "fixa.json"), k, fix_a(k))
    save_function(str(tmp_path / "step.json"), step_function_a(fix_a(k)))
    kc = wedge_complex()
    save_complex(str(tmp_path / "fixc.json"), kc, fix_c(kc))
    save_function(str(tmp_path / "g.json"), scaled_slope_function_c(fix_c(kc)))
    save_path(str(tmp_path / "path.json"), PathGerm.linear((0, 0, 1), (2, 1, 0)))


def test_cli_analyze(tmp_path, capsys):
    _write_fixtures(tmp_path)
    rc = main(["analyze", str(tmp_path / "fixa.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["appropriately_embedded"] is False
    assert report["eta"] == [1, 5, 9, 13]
    rc = main(["analyze", str(tmp_path / "fixc.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["appropriately_embedded"] is True


def test_cli_analyze_closed_set(tmp_path, capsys):
    k = square_complex()
    save_complex(str(tmp_path / "closed.json"), k, PLSet(k, range(len(k.simplices))))
    rc = main(["analyze", str(tmp_path / "closed.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["appropriately_embedded"] is True
    assert report["rho"] == []


def test_cli_eval(tmp_path, capsys):
    _write_fixtures(tmp_path)
    rc = main(
        [
            "eval",
            str(tmp_path / "fixc.json"),
            str(tmp_path / "g.json"),
            "--path",
            str(tmp_path / "path.json"),
            "--allow-jumps",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "(1/2, 0)"


def test_cli_verify_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["verify", "complex", "--out", str(out1)]) == 0
    assert main(["verify", "complex", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_precision(tmp_path):
    out = tmp_path / "m.json"
    assert main(["verify", "complex", "--precision", "80", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["precision_bits"] == 80


def test_cli_verify_unknown_suite(capsys):
    with pytest.raises(SaetError, match="'bogus', 'nope'"):
        run_suite("bogus, tube,nope")
    assert main(["verify", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "'bogus'" in captured.err


@pytest.mark.parametrize("bits", ["-3", "0"])
def test_cli_verify_rejects_nonpositive_precision(capsys, bits):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "none", "--precision", bits])
    assert exc.value.code == 2
    assert "--precision: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["export", "fixa.json", "tubes", "--resolution", "0"], "--resolution: must be at least 1"),
    (["export", "fixa.json", "carved", "--resolution", "-4"], "--resolution: must be at least 1"),
    (["carve", "fixa.json", "--probe", "-2"], "--probe: must be at least 0"),
    (["carve", "fixa.json", "--probe", "two"], "--probe: invalid"),
])
def test_cli_rejects_bad_counts(tmp_path, capsys, argv, message):
    # a count out of range is a usage error, before any work is done
    _write_fixtures(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(tmp_path / argv[1]), *argv[2:], "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_carve_probe_zero_runs_no_probe(tmp_path, capsys):
    _write_fixtures(tmp_path)
    rc = main(["carve", str(tmp_path / "fixa.json"), "--out", str(tmp_path / "d"), "--probe", "0"])
    assert rc == 0 and "probe" not in json.loads(capsys.readouterr().out)


def test_cli_has_no_jobs_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "verify"])
    assert exc.value.code == 2


def test_full_manifest_pinned():
    # any change to a certificate, a check or its wording shows up here
    text = run_suite("full").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d263fd17d243736453d59414371864ed4de0f02cd20a541dfab3cf59ae69024c"
    )


def test_cli_extend(tmp_path, capsys):
    _write_fixtures(tmp_path)
    rc = main(
        ["extend", str(tmp_path / "fixc.json"), str(tmp_path / "g.json"),
         "--allow-jumps"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["Y"] == [3, 6, 11, 14]
    assert report["hypothesis_ok"] is True


def test_cli_carve(tmp_path, capsys):
    _write_fixtures(tmp_path)
    out = tmp_path / "carved"
    rc = main(["carve", str(tmp_path / "fixa.json"), "--out", str(out), "--probe", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["units"] == 4
    assert [lv["dim"] for lv in summary["levels"]] == [1, 0]
    assert "Disconnected" not in summary["probe"]["statuses"]
    carved = json.loads((out / "carved.json").read_text())
    assert len(carved["units"]) == 4
    assert (out / "certificates.json").exists()


def test_cli_carve_probe_triangle_wall(tmp_path, capsys):
    # the wedge prism cut along z = 0: the first tube has a triangle base,
    # which has no segment wall points to probe
    k = wedge_complex()
    cut = PLSet(k, {i for i, s in enumerate(k.simplices)
                    if any(k.vertices[v][2] != 0 for v in s.vertex_ids)})
    save_complex(str(tmp_path / "cut.json"), k, cut)
    rc = main(["carve", str(tmp_path / "cut.json"), "--out", str(tmp_path / "carved"),
               "--probe", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert [lv["dim"] for lv in summary["levels"]] == [2, 1, 0]


def test_cli_export(tmp_path):
    _write_fixtures(tmp_path)
    out = tmp_path / "mesh.obj"
    rc = main(["export", str(tmp_path / "fixa.json"), "mesh", "--out", str(out)])
    assert rc == 0 and out.exists()


def test_cli_export_tubes_draws_the_carved_unit(tmp_path):
    # the exported tube is the first unit carve certifies, at its snapped
    # eps^2 = 4/17; an obstruction of vertices only exports its collar ball
    from saet.tubes import Tube

    _write_fixtures(tmp_path)
    out = tmp_path / "tube.obj"
    rc = main(["export", str(tmp_path / "fixa.json"), "tubes", "--out", str(out),
               "--resolution", "24"])
    assert rc == 0
    k = square_complex()
    first = min(t for t in eta(fix_a(k)).members if k.dim_of(t) == 1)
    export_tube(Tube(k.coords(first), F(4, 17)), str(tmp_path / "expected.obj"), resolution=24)
    assert out.read_bytes() == (tmp_path / "expected.obj").read_bytes()
    save_complex(str(tmp_path / "punctured.json"), k, punctured_square(k))
    out = tmp_path / "ball.obj"
    rc = main(["export", str(tmp_path / "punctured.json"), "tubes", "--out", str(out),
               "--resolution", "24"])
    assert rc == 0 and out.stat().st_size > 0


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_TRIANGLE = [[0, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize("data", [
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 3]]}, id="id-out-of-range"),
    pytest.param({"vertices": [[0, 0], [1, 0], [1, 0]], "simplices": [[0, 1]]},
                 id="duplicate-coordinates"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 1]]}, id="duplicate-id"),
    pytest.param({"vertices": [], "simplices": []}, id="no-vertices"),
    pytest.param({"vertices": [[0, 0], [1, 0, 0], [0, 1]], "simplices": [[0, 1, 2]]},
                 id="mixed-dimensions"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 2.9]]}, id="float-id"),
    pytest.param({"vertices": [[True, 0], [0, 1], [0, 0]], "simplices": [[0, 1, 2]]},
                 id="bool-coordinate"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, -1]]}, id="negative-id"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, True, 2]]}, id="bool-id"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[]]}, id="empty-simplex"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 2]], "in_M": [True]},
                 id="bool-member"),
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 2]], "in_M": 3},
                 id="members-not-a-list"),
    pytest.param({"n": 3, "vertices": _TRIANGLE, "simplices": [[0, 1, 2]]}, id="wrong-n"),
    pytest.param({"n": True, "vertices": _TRIANGLE, "simplices": [[0, 1, 2]]}, id="bool-n"),
    pytest.param({"n": "2", "vertices": _TRIANGLE, "simplices": [[0, 1, 2]]}, id="string-n"),
    # a string or an object where a list belongs was read by its characters
    # or keys: these two built the unit triangle
    pytest.param({"vertices": ["00", "10", "01"], "simplices": [[0, 1, 2]]},
                 id="string-vertices"),
    pytest.param({"vertices": {"00": 0, "10": 1, "01": 2}, "simplices": [[0, 1, 2]]},
                 id="object-vertices"),
    pytest.param({"vertices": _TRIANGLE, "simplices": "012"}, id="string-simplices"),
    # keys the loader does not read
    pytest.param({"vertices": _TRIANGLE, "simplices": [[0, 1, 2]], "in_m": [0]},
                 id="unknown-key"),
    pytest.param({"vertices": _TRIANGLE, "simplex": [[0, 1, 2]], "simplices": [[0, 1, 2]]},
                 id="misspelt-key"),
])
def test_cli_rejects_malformed_complex(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"in_M": [0], **data}))
    with pytest.raises(ParseError):
        complex_from_dict(json.loads(path.read_text()))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_names_a_non_object_file_by_its_type(tmp_path, capsys):
    # a file that holds a list, not an object, is refused on one short line,
    # without echoing the file
    path = tmp_path / "list.json"
    path.write_text(json.dumps(_TRIANGLE * 10000))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: complex data must be a JSON object, got list\n"


def test_non_list_field_is_named_by_its_type():
    # a field that should be a list is refused on a short line, without
    # echoing its value
    data = {"vertices": {str(i): [i, 0] for i in range(100000)}, "simplices": [[0, 1]]}
    with pytest.raises(ParseError, match="must be a JSON list") as info:
        complex_from_dict(data)
    assert len(str(info.value)) < 200


def _fix_b_pieces(sid):
    k, m, data = _fix_b_x_function()
    data["pieces"][0]["simplex"] = sid
    return data, m


@pytest.mark.parametrize("load, message", [
    pytest.param(lambda: complex_from_dict(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [list(range(100000))]}),
        "simplex 0 must list vertex ids", id="long-simplex"),
    pytest.param(lambda: complex_from_dict(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2], [[9] * 100000]]}),
        "simplex 1 must list vertex ids", id="nested-simplex"),
    pytest.param(lambda: complex_from_dict(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]], "n": [2] * 100000}),
        "declared dimension n = list", id="list-dimension"),
    pytest.param(lambda: complex_from_dict(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]], "n": 10 ** 5000}),
        "declared dimension n = int", id="huge-dimension"),
    pytest.param(lambda: function_from_dict(*_fix_b_pieces({str(i): i for i in range(100000)})),
                 "piece simplex dict must be", id="object-piece-simplex"),
    pytest.param(lambda: function_from_dict(*_fix_b_pieces("x" * 100000)),
                 "piece simplex str must be", id="long-piece-simplex"),
])
def test_bad_ids_are_named_on_a_short_line(load, message):
    # a bad simplex, piece simplex or dimension is named by its first bad
    # id or its JSON type, not echoed whole
    with pytest.raises(ParseError, match=message) as info:
        load()
    assert len(str(info.value)) < 200


def test_short_bad_ids_are_echoed():
    data = {"vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 7, 2]]}
    with pytest.raises(ParseError, match=r"simplex 0 must .* \[0, 3\); got 7$"):
        complex_from_dict(data)
    with pytest.raises(ParseError, match="got no id"):
        complex_from_dict({"vertices": [[0, 0]], "simplices": [[]]})
    with pytest.raises(ParseError, match="n = 3 does not"):
        complex_from_dict({"vertices": [[0, 0], [1, 0]], "simplices": [[0, 1]], "n": 3})
    with pytest.raises(ParseError, match='piece simplex "a" must'):
        function_from_dict(*_fix_b_pieces("a"))


def test_cli_carve_probe_cut_grid(tmp_path, capsys):
    # the 6x6 grid minus y = 1/2: every probe shell stays clear of the cut
    n = 6
    verts = [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]
    tops = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tops += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    k = build_complex(verts, tops, validate=False)
    cut = PLSet(k, [sid for sid, s in enumerate(k.simplices)
                    if any(k.vertices[v][1] != F(1, 2) for v in s.vertex_ids)])
    save_complex(str(tmp_path / "cut.json"), k, cut)
    rc = main(["carve", str(tmp_path / "cut.json"), "--out", str(tmp_path / "carved"),
               "--probe", "4"])
    probe = json.loads(capsys.readouterr().out)["probe"]
    assert len(probe["statuses"]) == 48
    assert probe["disconnected"] == 0 and set(probe["statuses"]) == {"Connected"}
    assert rc == 0


def test_cli_missing_marked_set(tmp_path, capsys):
    k = square_complex()
    save_complex(str(tmp_path / "bare.json"), k)
    rc = main(["analyze", str(tmp_path / "bare.json")])
    assert rc == 1


def _fix_b_x_function():
    """fix_b with f = x, as written by save_function."""
    from saet.fixtures import fix_b, interpolated_pl_function

    k = square_complex()
    m = fix_b(k)
    f = interpolated_pl_function(m, {v: k.vertices[v][0] for v in range(len(k.vertices))})
    return k, m, function_to_dict(f)


def _set_piece(key, value, sid=0):
    def edit(data, k):
        entry = next(e for e in data["pieces"] if e["simplex"] == k.id_of(sid))
        entry[key] = value
    return edit


def _drop_piece(data, k):
    data["pieces"].pop()


def _add_non_member_piece(data, k):
    data["pieces"].append({"simplex": k.id_of((1,)), "num": [0, 1, 0], "den": [1, 0, 0]})


def _duplicate_piece(data, k):
    # an exact copy: the function it gives is the same, but the entry is not
    data["pieces"].append(dict(data["pieces"][0]))


def _den_after_int_den(den):
    # the first piece's den is the int list [1, 0, 0], and the last piece's
    # den equals it in value, so a cache keyed by value would hand it over
    def edit(data, k):
        data["pieces"][0]["den"] = [1, 0, 0]
        data["pieces"][-1]["den"] = den
    return edit


def _num_and_factors(data, k):
    entry = data["pieces"][0]
    entry["num_factors"], entry["num"] = [entry["num"]], [5, 0, 0]


@pytest.mark.parametrize("edit", [
    pytest.param(_set_piece("simplex", 0.9), id="float-simplex"),
    pytest.param(_set_piece("simplex", "x"), id="string-simplex"),
    pytest.param(_set_piece("simplex", -1), id="negative-simplex"),
    pytest.param(_set_piece("simplex", True), id="bool-simplex"),
    pytest.param(_set_piece("simplex", 99), id="simplex-out-of-range"),
    pytest.param(_drop_piece, id="missing-piece"),
    pytest.param(_add_non_member_piece, id="non-member-piece"),
    pytest.param(_set_piece("den", ["-1/2", 0, 1], (0, 2, 3)), id="den-changes-sign"),
    pytest.param(_set_piece("num", [5, 0, 0], (0, 2, 3)), id="discontinuous"),
    pytest.param(_set_piece("num_factors", [], (0, 2, 3)), id="no-factors"),
    # a string reads character by character ("123" as 1 + 2 x0 + 3 x1) and
    # an object by its keys: both pieces read as the piece of x they replace
    pytest.param(_set_piece("num", "010", (0, 2, 3)), id="string-num"),
    pytest.param(_set_piece("den", {"1": 0, "0": 1, "00": 2}, (0, 2, 3)), id="object-den"),
    pytest.param(_duplicate_piece, id="duplicate-piece"),
    pytest.param(_den_after_int_den([1.0, 0, 0]), id="float-coefficient"),
    pytest.param(_den_after_int_den([True, 0, 0]), id="bool-coefficient"),
    # keys the loader does not read: num beside num_factors was dropped and
    # typo_den ignored, so each of these loaded as the piece x
    pytest.param(_num_and_factors, id="num-and-num-factors"),
    pytest.param(_set_piece("typo_den", [7, 0, 0]), id="unknown-piece-key"),
    pytest.param(lambda data, k: data.update(piece=[]), id="unknown-key"),
    pytest.param(lambda data, k: data["pieces"].append([0, [0, 1, 0]]), id="list-piece"),
])
def test_cli_rejects_malformed_function(tmp_path, capsys, edit):
    k, m, data = _fix_b_x_function()
    edit(data, k)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        function_from_dict(json.loads(path.read_text()), m)
    save_complex(str(tmp_path / "fixb.json"), k, m)
    save_path(str(tmp_path / "path.json"), PathGerm.linear((0, 0), (0, 1)))
    for argv in (["extend", str(tmp_path / "fixb.json"), str(path)],
                 ["eval", str(tmp_path / "fixb.json"), str(path),
                  "--path", str(tmp_path / "path.json")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("c, v", [
    pytest.param([0, 0, 1], [2, 1, 0], id="3d-path"),
    pytest.param([0], [1], id="1d-path"),
    pytest.param([0, 0], [0, 1, 0], id="3d-velocity"),
])
def test_cli_eval_rejects_path_of_other_dimension(tmp_path, capsys, c, v):
    k, m, data = _fix_b_x_function()
    save_complex(str(tmp_path / "fixb.json"), k, m)
    (tmp_path / "f.json").write_text(json.dumps(data))
    (tmp_path / "path.json").write_text(json.dumps({"pieces": [{"t_end": 1, "c": c, "v": v}]}))
    argv = ["eval", str(tmp_path / "fixb.json"), str(tmp_path / "f.json"),
            "--path", str(tmp_path / "path.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    save_path(str(tmp_path / "path.json"), PathGerm.linear((0, 0), (0, 1)))
    assert main(argv) == 0 and capsys.readouterr().out.strip() == "(0, 0)"


@pytest.mark.parametrize("load, argv", [
    pytest.param(load_complex, ["analyze", "{missing}"], id="complex"),
    pytest.param(lambda p: load_function(p, _fix_b_x_function()[1]),
                 ["extend", "{fixb}", "{missing}"], id="function"),
    pytest.param(load_path, ["eval", "{fixb}", "{f}", "--path", "{missing}"], id="path"),
])
def test_loaders_reject_unreadable_input(tmp_path, capsys, load, argv):
    k, m, data = _fix_b_x_function()
    save_complex(str(tmp_path / "fixb.json"), k, m)
    (tmp_path / "f.json").write_text(json.dumps(data))
    (tmp_path / "truncated.json").write_text('{"pieces": [')
    (tmp_path / "latin1.json").write_bytes(b'\xff\xfe{}')
    names = {"missing": str(tmp_path / "missing.json"),
             "fixb": str(tmp_path / "fixb.json"), "f": str(tmp_path / "f.json")}
    for unreadable in (names["missing"], str(tmp_path)):  # absent file, directory
        with pytest.raises(ParseError, match="cannot read"):
            load(unreadable)
    for undecodable in ("truncated.json", "latin1.json"):
        with pytest.raises(ParseError, match="invalid JSON"):
            load(str(tmp_path / undecodable))
    assert main([a.format(**names) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
