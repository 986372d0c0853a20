import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skeinlab
from skeinlab.charvar import TWO_BRIDGE_MAX_LENGTH
from skeinlab.cli import run
from skeinlab.exactpoly import poly_from_dict, poly_pretty


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_pretty_output(capsys):
    code, out, _ = invoke(capsys, ["reduce", "--rank", "2", "a b^-1"])
    assert code == 0
    assert out.strip() == "t1*t2 - t[1,2]"


def test_reduce_rank_zero_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["reduce", "--rank", "0", "a"])
    assert code == 2
    assert "rank" in err


def test_reduce_bad_word_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["reduce", "--rank", "2", "q"])
    assert code == 2
    assert "generator" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = invoke(capsys, ["reduce", "--rank", "2", "--nope", "a"])
    assert code == 2


def test_reduce_json_round_trips(capsys):
    code, out, _ = invoke(
        capsys, ["reduce", "--rank", "3", "--mode", "dyadic", "--json", "a c b"]
    )
    assert code == 0
    payload = json.loads(out)
    poly = poly_from_dict(payload["poly"])
    assert poly_pretty(poly) == payload["pretty"]
    assert payload["mode"] == "dyadic"


def test_reduce_stats_flag(capsys):
    code, out, _ = invoke(
        capsys, ["reduce", "--rank", "3", "--stats", "--json", "a c b"]
    )
    assert code == 0
    payload = json.loads(out)
    assert "stats" in payload and payload["stats"]


def test_byte_identical_output_across_runs(capsys):
    argv = ["reduce", "--rank", "4", "--mode", "dyadic", "--json", "a b c d"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_multiply(capsys):
    code, out, _ = invoke(capsys, ["multiply", "--rank", "2", "a", "b"])
    assert code == 0
    assert out.strip() == "t1*t2"


def test_abelian_dyadic_and_integral(capsys):
    code, out, _ = invoke(
        capsys, ["abelian", "--rank", "3", "--vector", "1,-1,2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "dyadic"
    assert payload["laurent"]["rank"] == 3
    code, out, _ = invoke(
        capsys,
        ["abelian", "--rank", "3", "--vector", "1,1,1", "--mode", "integral"],
    )
    assert code == 0
    assert out.strip() == "w[1,2,3]"


def test_abelian_bad_vector(capsys):
    code, _, err = invoke(capsys, ["abelian", "--rank", "2", "--vector", "1,x"])
    assert code == 2


def test_two_bridge_preset_and_epsilons_agree(capsys):
    _, out1, _ = invoke(capsys, ["two-bridge", "--knot", "fig8", "--json"])
    _, out2, _ = invoke(capsys, ["two-bridge", "--epsilons", "+1,-1", "--json"])
    assert json.loads(out1)["Phi"] == json.loads(out2)["Phi"]
    payload = json.loads(out1)
    assert payload["phi_square_free"] is True
    assert payload["phi_at_22"] == "-1"


def test_fuzz_cli(capsys):
    code, out, _ = invoke(
        capsys,
        [
            "fuzz",
            "--count",
            "60",
            "--max-rank",
            "3",
            "--max-len",
            "8",
            "--mode",
            "dyadic",
            "--seed",
            "7",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failure_count"] == 0
    assert payload["seed"] == 7


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SKEINLAB_SEED", "123")
    code, out, _ = invoke(
        capsys,
        ["fuzz", "--count", "10", "--max-rank", "2", "--max-len", "6", "--json"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_harvest_tangent_file_round_trip(capsys, tmp_path):
    code, out, _ = invoke(
        capsys,
        [
            "harvest",
            "--group",
            "abelian:2",
            "--degree",
            "3",
            "--samples",
            "auto",
            "--seed",
            "11",
        ],
    )
    assert code == 0
    blob = tmp_path / "harvest.json"
    blob.write_text(out)
    payload = json.loads(out)
    assert payload["relation_count"] == 1
    code, out, _ = invoke(capsys, ["tangent", "--from", str(blob)])
    assert code == 0
    report = json.loads(out)
    assert report == {
        "group": "abelian:2",
        "ambient_dim": 3,
        "jacobian_rank_at_chi0": 0,
        "tangent_dim": 3,
    }


def _relation(*terms):
    return {
        "terms": [
            {"coeff": c, "monomial": [{"var": v, "power": e} for v, e in mono]}
            for c, mono in terms
        ]
    }


def test_tangent_rational_relation_matches_its_double(capsys, tmp_path):
    # Gradient at chi_0: (2, 1/2, -3/4), and twice that for the double.
    half = _relation(
        ("1/2", [("u1", 2)]),
        ("1/2", [("u2", 1)]),
        ("-3/4", [("v[1,2]", 1)]),
        ("-1/4", []),
    )
    double = _relation(
        ("1", [("u1", 2)]),
        ("1", [("u2", 1)]),
        ("-3/2", [("v[1,2]", 1)]),
        ("-1/2", []),
    )
    reports = []
    for relations in ([half], [double], [half, double]):
        path = tmp_path / "harvest.json"
        blob = {"group": "abelian:2", "degree_bound": 2, "relations": relations}
        path.write_text(json.dumps(blob))
        code, out, err = invoke(capsys, ["tangent", "--from", str(path)])
        assert code == 0, err
        reports.append(json.loads(out))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["jacobian_rank_at_chi0"] == 1
    assert reports[0]["tangent_dim"] == 2


def test_tangent_missing_file(capsys):
    code, _, err = invoke(capsys, ["tangent", "--from", "/nonexistent.json"])
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "content",
    [
        None,  # no file at all
        b'{"group": "free:2", "degree_bound": "x", "relations": []}',
        b"[1, 2]",
        b'{"group": "free:2", "degree_bound": 3, "relations": 5}',
        b'{"group": "free:2", "relations": []}',
        b'{"group": 2, "degree_bound": 3, "relations": []}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [7]}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1/0", "monomial": []}]}]}',
        b'{"group": "abelian:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"var": 5, "power": 1}]}]}]}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"subset": [1, 2, 3], "power": 1}]}]}]}',
        b"{not json",
        b"\xff\xfe",
        b'{"group": "free:2", "degree_bound": 2, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"subset": [1], "power": 100000000000}]}]}]}',
        b'{"group": "free:3", "degree_bound": 100, "relations": []}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"subset": [1], "power": 1.5}]}]}]}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"subset": [1], "power": true}]}]}]}',
        b'{"group": "abelian:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"var": "u1", "power": 1}, '
        b'{"var": "u1", "power": -1}]}]}]}',
        b'{"group": "free:2", "degree_bound": 3, "relations": [{"terms": '
        b'[{"coeff": "1", "monomial": [{"subset": [true, 2.0], "power": 1}]}]}]}',
    ],
    ids=[
        "missing",
        "degree-not-int",
        "top-level-list",
        "relations-not-list",
        "no-degree",
        "group-not-str",
        "relation-not-object",
        "zero-denominator",
        "var-not-str",
        "foreign-variable",
        "not-json",
        "not-utf8",
        "degree-past-bound",
        "bound-past-harvest-size",
        "fractional-power",
        "bool-power",
        "repeated-variable",
        "subset-entries-not-int",
    ],
)
def test_tangent_corrupt_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "harvest.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = invoke(capsys, ["tangent", "--from", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("skeinlab: error: ")
    assert "Traceback" not in err


def test_harvest_insufficient_samples(capsys):
    code, _, err = invoke(
        capsys,
        ["harvest", "--group", "abelian:2", "--degree", "3", "--samples", "4"],
    )
    assert code == 2
    assert "insufficient" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["harvest", "--group", "free:2", "--degree", "-1"],
    ],
)
def test_harvest_bad_input_is_usage_error(capsys, argv):
    code, _, err = invoke(capsys, argv)
    assert code == 2
    assert err.startswith("skeinlab: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, degree, samples",
    [("free:64", "1", "auto"), ("free:3", "40", "auto"), ("free:2", "2", str(10**12))],
)
def test_oversized_harvest_is_refused_up_front(capsys, group, degree, samples):
    # Building 2^64 - 1 variables, C(47, 7) monomials or 10^12 samples would
    # exhaust memory; the size check runs before any of them is built.
    argv = ["harvest", "--group", group, "--degree", degree, "--samples", samples]
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("skeinlab: error: harvest too large")
    assert err.count("skeinlab: error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_harvest_abelian_3_degree_5_certifies(capsys):
    # Its certification bound needs more primes than a fixed list once held.
    code, out, err = invoke(
        capsys, ["harvest", "--group", "abelian:3", "--degree", "5", "--seed", "11"]
    )
    assert code == 0, err
    assert json.loads(out)["relation_count"] == 161


def test_closed_stdout_exits_zero_quietly():
    # Writing to a pipe whose reader is gone, as after `| head -c 100`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src_dir = Path(skeinlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", "reduce", "--rank", "2", "a^300 b"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )
    os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_is_one_error_line():
    # Every write to /dev/full fails with ENOSPC.
    src_dir = Path(skeinlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", "reduce", "--rank", "2", "a b"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("skeinlab: error: cannot write output")
    assert len(err.splitlines()) == 1


def test_deep_word_has_no_traceback(capsys):
    # The engine evaluates on an explicit stack, so depth is not an error.
    code, out, err = invoke(capsys, ["reduce", "--rank", "2", "a^1000 b"])
    assert code == 0, err
    assert err == ""
    assert out.startswith("t1^999*t[1,2] - ")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.slow
def test_selftest_quick_exits_zero(capsys):
    code, out, _ = invoke(capsys, ["selftest", "--quick"])
    assert code == 0, out
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 10
    assert all(l.startswith(("PASS", "SKIP")) for l in lines)
    assert _sha256(out) == (
        "abdb7adba64d90cdf3b7dcd5e138e19e1526a54c6d175f1979d237a81f5eacc6"
    )


# SHA-256 of stdout, pinned at commit 408e7ba.  Stdout is byte-identical
# across runs and refactors, so any change here is a change of behaviour.
_HARVEST_ABELIAN_3 = ["harvest", "--group", "abelian:3", "--degree", "4", "--seed", "11"]
_STDOUT_DIGESTS = [
    (["reduce", "--rank", "3", "--mode", "dyadic", "a c b"],
     "8d3da442b985d5d3196dd79492ffb257a3d0306cdb91072cc49072df37103d6c"),
    (["reduce", "--rank", "2", "a b^-1"],
     "5f265f2fe614592e5e075a8e12c61231f07de0742f0c6201f790fddf715ae8d5"),
    (["multiply", "--rank", "2", "--mode", "dyadic", "a", "b"],
     "f53413d686a645c7ca528641c8f427c6bb27172ccc1e8f9ff7a61a564d2c6d72"),
    (["abelian", "--rank", "3", "--vector", "1,-1,2"],
     "7d062928fe3e38decf5a48b97615c1a6f0cbe68622f7713c1b1e566b810c04a7"),
    (["abelian", "--rank", "3", "--vector", "1,1,1", "--mode", "integral"],
     "a742eda1e7c50bb01a61062386fcff6bea0bb36b4cf00092826404687612c2ea"),
    (["two-bridge", "--knot", "trefoil"],
     "544437ef4fe96ba9efc0c5f5127d6ea764075ea03619f736b9b829d31f93d2e7"),
    (["two-bridge", "--epsilons=1,1,-1,-1,1,-1,1", "--json"],
     "f147515befdb1ccc05664d77934fa5a107239df79640ab55e23371ec47ed8368"),
    (["harvest", "--group", "free:4", "--degree", "3", "--seed", "11"],
     "a65e7aabaa406c57a894065fa17daaa892c31a67e01e8dd99faa0e582989bb37"),
    (["harvest", "--group", "abelian:2", "--degree", "6", "--seed", "11"],
     "795e117f4191b6b082b9a3e609338be19fa34fc70b0338514c08fc5ee7ec328f"),
    (["harvest", "--group", "free:2", "--degree", "4", "--seed", "11"],
     "b4a8a97d745be133f1ca923e5c93b67a679f007598c2f78eb251ef93108debb6"),
    (_HARVEST_ABELIAN_3,
     "7197a9c24ab412d686ba2924ddd4d0a2337bc6275805f49b3999d306e9ec5cf2"),
]
_TANGENT_DIGEST = "18f0bac1c74148a7f9b1522db54b7158b42b436cf0ffafe31331854d394d27e8"
# These print the session engine's rule counters, so each runs in a fresh
# interpreter, as from the shell.
_FRESH_STDOUT_DIGESTS = [
    (["fuzz", "--count", "300", "--mode", "integral", "--seed", "7", "--json"],
     "bb4629a5155aab65a61afe2c5a413639c9ce1bd5b172478e18ac537dd49ef7ed"),
    (["fuzz", "--count", "300", "--mode", "dyadic", "--seed", "7", "--json"],
     "e411370412135f23724d21440f796bb63583f1fc5f893572fd4ac6f3bc20bb75"),
    (["reduce", "--rank", "4", "--mode", "dyadic", "--stats", "--json",
      "a b^2 c^-1 d a^-1 c"],
     "fa19804b8edf872fac7f6de96436ca38495c808a31184e67960739a81e948267"),
]


def test_stdout_digests_are_pinned(capsys, tmp_path):
    for argv, digest in _STDOUT_DIGESTS:
        code, out, err = invoke(capsys, argv)
        assert (code, _sha256(out)) == (0, digest), (argv, err)
        if argv is _HARVEST_ABELIAN_3:
            harvest = tmp_path / "harvest.json"
            harvest.write_text(out)
    code, out, err = invoke(capsys, ["tangent", "--from", str(harvest)])
    assert (code, _sha256(out)) == (0, _TANGENT_DIGEST), err
    src_dir = Path(skeinlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    for argv, digest in _FRESH_STDOUT_DIGESTS:
        proc = subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", *argv],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


_HUGE = "99999999999"

# (argv, exit code): deep and long words, huge sizes, malformed lists.
_EDGE_CASES = [
    (["reduce", "--rank", "1", f"a^{_HUGE}"], 2),
    (["multiply", "--rank", "1", f"a^{_HUGE}", "a"], 2),
    (["abelian", "--rank", "1", "--vector", _HUGE], 2),
    (["abelian", "--rank", "1", "--vector", _HUGE, "--mode", "integral"], 2),
    (["reduce", "--rank", "2", "a^512 b^512"], 2),
    (["reduce", "--rank", "2", "--mode", "dyadic", "a^2000 b a^-2000"], 0),
    (["reduce", "--rank", "2", " ".join(["a b^-1"] * 30)], 0),
    (["reduce", "--rank", "2", "a^"], 2),
    (["abelian", "--rank", "2", "--vector", "512,512"], 2),
    (["reduce", "--rank", _HUGE, f"g1 g{_HUGE}"], 0),
    (["multiply", "--rank", _HUGE, "a", "b"], 0),
    (["abelian", "--rank", _HUGE, "--vector", "1"], 2),
    (["fuzz", "--count", _HUGE], 2),
    (["fuzz", "--count", "1", "--max-rank", _HUGE], 2),
    (["fuzz", "--count", "1", "--max-len", _HUGE], 2),
    (["harvest", "--group", "free:2", "--degree", _HUGE], 2),
    (["harvest", "--group", "abelian:2", "--degree", _HUGE], 2),
    (["abelian", "--rank", "2", "--vector", ""], 2),
    (["abelian", "--rank", "2", "--vector", " "], 2),
    (["abelian", "--rank", "2", "--vector", "1,,2"], 2),
    (["abelian", "--rank", "2", "--vector", "a,b"], 2),
    (["abelian", "--rank", "2", "--vector", "1.5,2"], 2),
    (["abelian", "--rank", "2", "--vector", "1,2,3"], 2),
    (["two-bridge", "--epsilons", ""], 2),
    (["two-bridge", "--epsilons", "1,,-1"], 2),
    (["two-bridge", "--epsilons", "1,2"], 2),
    (["two-bridge", "--epsilons", "x"], 2),
    (["two-bridge", "--epsilons", "+1,-1"], 0),
    (["two-bridge", "--epsilons=-1,1"], 0),
    (["two-bridge", "--epsilons", "-1,1"], 2),
    (["two-bridge", "--epsilons", ",".join(["1", "1", "-1", "-1"] * 16)], 0),
    (["two-bridge", "--epsilons", ",".join(["1"] * (TWO_BRIDGE_MAX_LENGTH + 1))], 2),
]


@pytest.mark.parametrize(
    "argv, expected", _EDGE_CASES, ids=[" ".join(a)[:48] for a, _ in _EDGE_CASES]
)
def test_cli_edge_case_sweep(capsys, argv, expected):
    start = time.perf_counter()
    code, _, err = invoke(capsys, argv)
    assert code in (0, 1, 2) and code == expected, err
    assert err.count("skeinlab: error:") <= 1
    assert "Traceback" not in err
    if code == 2:
        assert time.perf_counter() - start < 1.0  # refused up front
        assert err.startswith("skeinlab: error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["abelian", "--rank", "4", "--vector", "3,-2,1,2", "--json"],
        ["two-bridge", "--knot", "trefoil"],
        ["reduce", "--rank", "1", f"a^{_HUGE}"],
    ],
)
def test_cli_edge_case_sweep_closed_stdout(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src_dir = Path(skeinlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )
    os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode in (0, 1, 2)
    assert err.count("skeinlab: error:") <= 1
    assert "Traceback" not in err
