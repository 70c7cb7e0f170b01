"""Hostile solution files through load_solution and every verb that reads one.

A solution file records a solve, {"p", "F0", "blowup_x", "nodes"}, and
loading solves again for its p.  One seeded pass over files that are not
that record: text that is not JSON, JSON that is no object, a missing or
invalid p, a NaN or edited field, the node-list format the record
replaced, and extra keys.  Each is refused: in process a ValueError that
names the file, and through `tubeke eval/metric/curvature/sweep --sol`
exit 2 with one line on stderr and nothing on stdout.  The files that
answer (the record itself, reformatted) answer with the bits of the
in-process solve.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from tubeke import TubeParams, load_solution, solve_potential
from tubeke.cli import main


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _verbs(path, tmp_path):
    return {
        "eval": ["eval", "--sol", str(path), "--x=0.37", "--derivs"],
        "metric": ["metric", "--sol", str(path), "--point=0.01,0.2,0.5,-0.1"],
        "curvature": ["curvature", "--sol", str(path), "--point=0.01,0.2,0.5,-0.1",
                      "--v=1,0,0.5,-1", "--w=0,1,2,0"],
        "sweep": ["sweep", "--sol", str(path), "--n", "3", "--out", str(tmp_path / "rows.csv")],
    }


def _hostile_texts(sol):
    """(name, file text) of files that are not the record of sol's solve."""
    rng = np.random.default_rng(27)
    record = sol.to_dict()

    def edited(**changes):
        return json.dumps({**record, **changes})

    yield "not JSON", "{not json"
    yield "empty", ""
    # json's decoder recurses per level and raises RecursionError here
    yield "deeply nested", "[" * 100_000
    for name, value in (("a list", [record]), ("a number", 2), ("a string", "p2.json"),
                        ("null", None)):
        yield name, json.dumps(value)
    yield "no p", json.dumps({k: v for k, v in record.items() if k != "p"})
    for p in (True, 2.0, "2", 0, -1, 10 ** 30, None, [2]):
        yield f"p = {p!r}", edited(p=p)
    yield "another p", edited(p=3)
    for key in ("F0", "blowup_x", "nodes"):
        yield f"{key} NaN", edited(**{key: math.nan})
        yield f"{key} inf", edited(**{key: math.inf})
    yield "F0 one ulp up", edited(F0=math.nextafter(record["F0"], math.inf))
    yield "F0 edited", edited(F0=record["F0"] * (1.0 + rng.uniform(1e-12, 1e-6)))
    yield "blowup_x edited", edited(blowup_x=record["blowup_x"] - rng.uniform(1e-13, 1e-6))
    yield "nodes edited", edited(nodes=record["nodes"] + int(rng.integers(1, 100)))
    yield "nodes as a string", edited(nodes=str(record["nodes"]))
    for key in ("F0", "blowup_x", "nodes"):
        yield f"no {key}", json.dumps({k: v for k, v in record.items() if k != key})
    # the node-list format that the record replaced
    yield "node list", json.dumps({
        "p": sol.params.p, "K": str(sol.params.K), "F0": sol.F0, "tolerance": 1e-12,
        "blowup_x": sol.achieved_blowup_x,
        "nodes": [{"x": x, "F": F, "f": f}
                  for x, F, f in zip(sol.xs.tolist(), sol.Fs.tolist(), sol.fs.tolist())]})
    yield "extra key", edited(K="5/3")
    yield "extra stats", edited(stats=sol.stats)


def test_hostile_solution_files_are_refused(sol_p2, tmp_path):
    texts = list(_hostile_texts(sol_p2))
    assert len(texts) >= 30
    for i, (name, text) in enumerate(texts):
        path = tmp_path / f"hostile{i}.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^solution file {re.escape(str(path))}: ") as info:
            load_solution(path)
        message = str(info.value)
        # one line, which never carries the node list
        assert "\n" not in message and len(message) < 300, (name, message)
        for verb, argv in _verbs(path, tmp_path).items():
            code, out, err = _cli(argv)
            assert (code, out) == (2, ""), (name, verb)
            assert err == f"error: {message}\n", (name, verb)
        assert not (tmp_path / "rows.csv").exists()


def test_a_file_that_answers_answers_with_the_solve(sol_p2, tmp_path):
    # the record, and the record reformatted, load as the solve itself; each
    # verb prints what the in-process solve gives
    record = sol_p2.to_dict()
    texts = [json.dumps(record), json.dumps(dict(reversed(record.items())), indent=2),
             " " + json.dumps(record) + "\n\n"]
    expected = {}
    reference = tmp_path / "reference.json"
    sol_p2.save(reference)
    for verb, argv in _verbs(reference, tmp_path).items():
        code, out, err = _cli(argv)
        assert (code, err) == (0, ""), verb
        expected[verb] = out.replace(str(reference), "{path}")
    for i, text in enumerate(texts):
        path = tmp_path / f"answer{i}.json"
        path.write_text(text)
        loaded = load_solution(path)
        assert loaded.to_dict() == record
        for key in ("xs", "Fs", "fs"):
            assert getattr(loaded, key).tobytes() == getattr(sol_p2, key).tobytes()
        for verb, argv in _verbs(path, tmp_path).items():
            code, out, err = _cli(argv)
            assert (code, err) == (0, ""), (i, verb)
            assert out.replace(str(path), "{path}") == expected[verb], (i, verb)
    # eval's stdout holds the in-process evaluators' bits
    f, f1, f2, f3 = sol_p2.eval_f_derivs(0.37, 3)
    assert json.loads(expected["eval"]) == {
        "x": 0.37, "F": sol_p2.eval_F(0.37), "f": f, "f1": f1, "f2": f2, "f3": f3,
        "Z": sol_p2.eval_Z(0.37, 0)[0]}
    assert solve_potential(TubeParams(p=2)).to_dict() == record
