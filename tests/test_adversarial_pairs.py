"""Hard tangent vectors through every door that takes a pair: right or refused.

One seeded pass over vectors built from hard floats (signed zeros, the
smallest subnormal, the largest finite scale in both parts, infinities
and NaN) and over the containers they can come in.  Each call either
returns a finite value equal to its clean equivalent, or raises
ValueError or DomainError with a message; the CLI exits 2 with one line
on stderr.  The clean equivalent of a vector is its exact rescaling by
the power of two that brings its largest part into [0.5, 1), under which
Bis and the boundary limit are invariant; a stacked row is held to the
one-pair call.
"""

import math

import numpy as np
import pytest

from tubeke import (
    DomainError,
    Point,
    TangentPair,
    bisectional,
    bisectional_batch,
    bisectional_from_jet,
    boundary_limit_bis,
    metric_jet,
    tensor_from_jet,
)
from tubeke.cli import main

HARD = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)
PLAIN = (1.0, -0.3, 2.5, 1e-3)
Z = Point(0.01 + 0.2j, 0.5 - 0.1j)


def draw_vector(rng):
    parts = [HARD[rng.integers(len(HARD))] if rng.random() < 0.4
             else PLAIN[rng.integers(len(PLAIN))] for _ in range(4)]
    return np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])


def clean(v):
    """v rescaled exactly into the binade [0.5, 1), or None for a refused vector."""
    parts = np.array([v.real, v.imag])
    if not np.isfinite(parts).all() or not parts.any():
        return None
    e = np.frexp(np.abs(parts).max())[1]
    scaled = np.ldexp(parts, -e)
    return scaled[0] + 1j * scaled[1]


def outcome(call):
    """The call's value, or the ValueError/DomainError it raised (which must say why)."""
    try:
        return call()
    except (ValueError, DomainError) as exc:
        assert str(exc)
        return exc


def doors(sol, jet, tensor):
    """Every door that takes a pair, as name -> call(pair)."""
    return {
        "tube": lambda pair: bisectional(sol, Z, pair),
        "tube_raw": lambda pair: bisectional(sol, Z, pair, normalize=False),
        "direct": lambda pair: bisectional(sol, Z, pair, formula="direct"),
        "direct_raw": lambda pair: bisectional(sol, Z, pair, normalize=False, formula="direct"),
        "from_jet": lambda pair: bisectional_from_jet(jet, tensor, pair),
        "from_jet_direct": lambda pair: bisectional_from_jet(jet, tensor, pair, formula="direct"),
        "boundary_limit": lambda pair: boundary_limit_bis(jet, pair),
        "batch": lambda pair: bisectional_batch(sol, Z, pair.v, pair.w),
    }


def test_hard_vectors_are_right_or_refused(sol_p2, tmp_path, capsys):
    rng = np.random.default_rng(2024)
    jet = metric_jet(sol_p2, Z)
    calls = doors(sol_p2, jet, tensor_from_jet(jet))
    pairs = [(draw_vector(rng), draw_vector(rng)) for _ in range(200)]
    kept = []
    for v, w in pairs:
        cv, cw = clean(v), clean(w)
        built = outcome(lambda: TangentPair(v=v, w=w))
        if cv is None or cw is None:
            assert isinstance(built, ValueError), (v, w)
            continue
        assert isinstance(built, TangentPair), (v, w, built)
        kept.append((v, w))
        reference = TangentPair(v=cv, w=cw)
        for name, call in calls.items():
            value, expected = outcome(lambda: call(built)), call(reference)
            assert np.isfinite(expected).all(), (name, v, w)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), (name, v, w)
    assert 40 <= len(kept) <= 160   # the draw mixes kept and refused pairs
    # the kept pairs stacked: row i is the one-pair call with pair i (the
    # 16-term sum's complex products round differently on arrays)
    stacked = TangentPair(v=[v for v, _ in kept], w=[w for _, w in kept])
    for name, call in calls.items():
        if "direct" in name:
            continue
        rows = call(stacked)
        single = [call(TangentPair(v=v, w=w)) for v, w in kept]
        assert rows.shape == (len(kept),)
        assert rows.tobytes() == np.array(single).tobytes(), name
    # the CLI on the first pairs: exit 0 with the library's value, or exit 2
    # with one line on stderr and nothing on stdout
    sol_file = tmp_path / "p2.json"
    sol_p2.save(sol_file)
    for v, w in pairs[:40]:
        reals = [",".join(repr(float(x)) for x in (u[0].real, u[0].imag, u[1].real, u[1].imag))
                 for u in (v, w)]
        code = main(["curvature", "--sol", str(sol_file), "--point=0.01,0.2,0.5,-0.1",
                     f"--v={reals[0]}", f"--w={reals[1]}"])
        captured = capsys.readouterr()
        if clean(v) is None or clean(w) is None:
            assert code == 2 and captured.out == "" and captured.err.count("\n") == 1, (v, w)
        else:
            assert code == 0, captured.err
            assert f'"bis": {calls["tube"](TangentPair(v=v, w=w))!r}' in captured.out


@pytest.mark.parametrize("container", ["list", "complex64", "0-d", "(1, 2)", "(2, 1)",
                                       "(0, 2)", "3-d"])
def test_containers_are_right_or_refused(sol_p2, container):
    rng = np.random.default_rng(7)
    jet = metric_jet(sol_p2, Z)
    calls = doors(sol_p2, jet, tensor_from_jet(jet))
    for _ in range(10):
        v, w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # one entry subnormal or at the 1.7e308 scale in both parts
        v[int(rng.integers(2))] = complex(*(HARD[int(k)] for k in rng.integers(2, 6, 2)))
        single = TangentPair(v=v, w=w)
        if container == "list":
            pair = TangentPair(v=list(v), w=list(w))
            expected = {name: call(single) for name, call in calls.items()}
        elif container == "complex64":
            with np.errstate(over="ignore"):
                v32, w32 = v.astype(np.complex64), w.astype(np.complex64)
            pair = outcome(lambda: TangentPair(v=v32, w=w32))
            if clean(v32.astype(complex)) is None:
                assert isinstance(pair, ValueError)
                continue
            cast = TangentPair(v=v32.astype(complex), w=w32.astype(complex))
            expected = {name: call(cast) for name, call in calls.items()}
        elif container in ("0-d", "(2, 1)", "3-d"):
            shaped = {"0-d": lambda u: np.asarray(u[0]), "(2, 1)": lambda u: u.reshape(2, 1),
                      "3-d": lambda u: u.reshape(1, 1, 2)}[container]
            for v_, w_ in ((shaped(v), shaped(w)), (shaped(v), w), (v, shaped(w))):
                with pytest.raises(ValueError, match="one pair of shape"):
                    TangentPair(v=v_, w=w_)
            continue
        elif container == "(1, 2)":
            pair = TangentPair(v=v[None], w=w[None])
            expected = {name: np.array([call(single)]) for name, call in calls.items()
                        if "direct" not in name}
        else:
            pair = TangentPair(v=np.empty((0, 2)), w=np.empty((0, 2)))
            expected = {name: np.empty(0) for name in calls}
        for name, value in expected.items():
            got = calls[name](pair)
            assert np.isfinite(got).all()
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), (container, name)
