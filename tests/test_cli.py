import json

import pytest

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


def test_tangent_missing_file(capsys):
    code, _, err = invoke(capsys, ["tangent", "--from", "/nonexistent.json"])
    assert code == 2
    assert err


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
        ["harvest", "--group", "abelian:3", "--degree", "5", "--seed", "11"],
    ],
)
def test_harvest_bad_input_is_usage_error(capsys, argv):
    code, _, err = invoke(capsys, argv)
    assert code == 2
    assert err.startswith("skeinlab: error: ")
    assert "Traceback" not in err


def test_deep_word_has_no_traceback(capsys):
    # Exit 0 is allowed for an engine that no longer recurses per letter.
    code, _, err = invoke(capsys, ["reduce", "--rank", "2", "a^400 b"])
    assert code in {0, 2}
    if code == 2:
        assert err.startswith("skeinlab: error: ")
        assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.slow
def test_selftest_quick_exits_zero(capsys):
    code, out, _ = invoke(capsys, ["selftest", "--quick"])
    assert code == 0, out
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 10
    assert all(l.startswith(("PASS", "SKIP")) for l in lines)
