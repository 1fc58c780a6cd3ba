import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qhplane import classifier, degeneration, minus_one
from qhplane.cli import main
from qhplane.core import L, Status
from qhplane.oracle import DEFAULT_CONFIG


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_dim_json(capsys):
    code, out = run(capsys, "dim", "6", "0", "5", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["dim"] == 0
    assert payload["v"] == -3
    assert payload["status"] == "SpecialProved"


def test_dim_plain(capsys):
    code, out = run(capsys, "dim", "5", "0", "6", "2")
    assert code == 0
    assert "dim=2" in out and "NonSpecialProved" in out


@pytest.mark.parametrize("n", ["10", "2003"])
def test_dim_at_m_1000_answers(capsys, n):
    # the search meets (-1)-classes of degree above the input cap, such as
    # L(1001000,999999,2003,1000); the user typed none of them
    code, out = run(capsys, "dim", "2000", "0", n, "1000", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == -1


def test_classify_reports_decomposition(capsys):
    code, out = run(capsys, "classify", "4", "0", "5", "2")
    assert code == 0
    assert "SPECIAL" in out
    assert "2 x L(2,0,5,1)" in out


def test_classify_json_non_special(capsys):
    code, out = run(capsys, "classify", "5", "0", "4", "2", "--json")
    payload = json.loads(out)
    assert payload["special"] is False
    assert payload["decomposition"] is None


def test_classify_searches_once(capsys, monkeypatch):
    # a Conjectural cell: dimension() searches and stores None, and classify
    # reports that None without searching again
    search = minus_one.find_special_decomposition
    calls = []

    def counted(L):
        calls.append(L)
        return search(L)

    monkeypatch.setattr(minus_one, "find_special_decomposition", counted)
    monkeypatch.setattr(classifier, "find_special_decomposition", counted)
    code, out = run(capsys, "classify", "20", "5", "6", "5", "--json")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out) == {
        "schema": 1, "system": [20, 5, 6, 5], "special": False, "dim": 125,
        "v": 125, "e": 125, "self_int": 225, "genus": 101,
        "status": "Conjectural", "decomposition": None,
    }


def test_classify_skips_the_search_when_not_special(capsys, monkeypatch):
    # a proved non-special system has no fixed-part decomposition, so classify
    # answers L(1000,0,100000,3) without searching the (-1)-curve orbits
    def search(L):
        raise AssertionError(f"searched {L}")

    monkeypatch.setattr(minus_one, "find_special_decomposition", search)
    code, out = run(capsys, "classify", "1000", "0", "100000", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["special"] is False and payload["decomposition"] is None


def test_classify_searches_a_special_base_case(capsys):
    # the few-points certificate of L(4,0,2,3) carries no decomposition
    assert classifier.dimension(L(4, 0, 2, 3)).certificate == {"base": "few-points"}
    code, out = run(capsys, "classify", "4", "0", "2", "3")
    assert code == 0
    assert "SPECIAL" in out and "x L(1,0,2,1)" in out


def test_proved_non_special_systems_have_no_decomposition():
    # the cells classify no longer searches: a decomposition would force
    # dim >= v(residual) > e, against the proof
    cells = 0
    for d in range(21):
        for m0 in range(d + 2):
            for n in range(1, 21):
                for m in range(1, 8):
                    system = L(d, m0, n, m)
                    result = classifier.dimension(system)
                    if (
                        result.status is Status.NON_SPECIAL_PROVED
                        and "decomposition" not in result.certificate
                    ):
                        cells += 1
                        assert minus_one.find_special_decomposition(system) is None, system
    assert cells == 27134


def test_enumerate_csv(capsys):
    code, out = run(capsys, "enumerate", "--m-max", "2", "--e-max", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,m0,n,m,x,y,family,irreducible"
    assert "6,3,7,2,5,1,Hyperbola,True" in lines


def test_enumerate_configurations(capsys):
    code, out = run(
        capsys, "enumerate", "--m-max", "5", "--configurations", "--e-max", "3", "--json"
    )
    rows = json.loads(out)["rows"]
    assert {"d": 12, "m0": 0, "n": 6, "m": 5, "delta": 2, "mu0": 0, "mu1": 0,
            "mu2": 1, "compound": True} in rows


def test_oracle_subcommand(capsys):
    code, out = run(capsys, "oracle", "4", "0", "5", "2", "--trials", "2")
    assert code == 0
    assert "dim=0" in out and "special=True" in out


def test_oracle_options_default_to_the_config(capsys):
    argv = ["oracle", "4", "0", "5", "2", "--json"]
    assert json.loads(run(capsys, *argv)[1])["oracle"] == DEFAULT_CONFIG.as_dict()
    given = json.loads(run(capsys, *argv, "--seed", "5")[1])["oracle"]
    assert given == {**DEFAULT_CONFIG.as_dict(), "seed": 5}


def test_certify_subcommand(capsys, tmp_path):
    cache = str(tmp_path / "memo.json")
    code, out = run(capsys, "certify", "10", "0", "11", "3", "--cache", cache)
    assert code == 0
    assert "EmptyProved" in out
    # cache file written and reused
    code, out = run(capsys, "certify", "10", "0", "11", "3", "--cache", cache)
    assert code == 0 and "EmptyProved" in out


def test_verify_small_sweep(capsys):
    code, out = run(capsys, "verify", "--d-max", "5", "--n-max", "5")
    assert code == 0
    assert "0 mismatches" in out


def test_table_qh1list(capsys):
    code, out = run(capsys, "table", "qh1list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 11  # header + 10 rows
    assert lines[-1].split() == ["27", "17", "9", "7", "30", "3"]


def test_table_csv_and_json(capsys):
    code, out = run(capsys, "table", "compound", "--csv")
    assert out.splitlines()[0] == "d,m0,n,m,delta,mu0,mu1,mu2"
    assert len(out.strip().splitlines()) == 10
    code, out = run(capsys, "table", "obirreg23", "--json")
    assert len(json.loads(out)["rows"]) == 11


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "1", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "6", "0", "5", "3", "--prime", "10"], "10 is not prime"),
        (["oracle", "6", "0", "5", "3", "--prime", "4294967311"], "exceeds 2^31 - 1"),
        (["dim", "3", "0", "-1", "2"], "n must be non-negative"),
        (["certify", "12", "0", "13", "3", "--budget", "-5"], "budget must be at least 1"),
        (["enumerate", "--m-max", "3", "--e-max", "-2"], "e_max must be >= 0"),
        (["verify", "--d-max", "-1", "--n-max", "3"], "--d-max must be at least 0"),
        (["verify", "--d-max", "3", "--n-max", "-1"], "--n-max must be at least 0"),
        (["verify", "--d-max", "3", "--n-max", "3", "--m-max", "0"], "--m-max must be at least 1"),
        (["verify", "--d-max", "3", "--n-max", "3", "--workers", "0"], "--workers must be at least 1"),
        (["oracle", "100", "0", "60", "5"], "would be 855 x 5151"),
        # with two points nothing is sampled, so only the config check sees the seed
        (["oracle", "4", "0", "2", "2", "--seed", "-1"], "seed must be >= 0"),
        (["oracle", "4", "0", "5", "2", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--d-max", "2", "--n-max", "2", "--seed", "-1"], "seed must be >= 0"),
        # the first class above the cap, before any class is built
        (["enumerate", "--m-max", "1000"], "the class L(1001000,999999,2003,1000), whose degree"),
        (["enumerate", "--m-max", "1", "--e-max", "500001"], "L(500001,500000,1000002,1), whose n"),
    ],
)
def test_invalid_value_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qhplane: error: ")
    assert message in captured.err


def test_certify_rejects_tampered_cache(capsys, tmp_path):
    cache = tmp_path / "memo.json"
    assert main(["certify", "10", "0", "11", "3", "--cache", str(cache)]) == 0
    data = json.loads(cache.read_text())
    key = "10,0,11,3"
    data["entries"][key] = -2  # below e = -1
    cache.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["certify", "10", "0", "11", "3", "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert str(cache) in err and key in err


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("memo.json", "[]", "not a JSON object with an object of entries"),
        ("memo.json", "not json", "not a JSON cache file"),
        (".", None, "Is a directory"),  # tmp_path itself
        ("missing/x.json", None, "missing is not a writable directory"),
    ],
    ids=["not-an-object", "not-json", "a-directory", "in-a-missing-directory"],
)
def test_certify_rejects_untrusted_cache_file(capsys, monkeypatch, tmp_path, name, text, named):
    cache = tmp_path / name
    if text is not None:
        cache.write_text(text)

    def certify(self, L):
        raise AssertionError(f"{L} certified before the cache file was checked")

    monkeypatch.setattr(degeneration.Certifier, "certify", certify)
    assert main(["certify", "10", "0", "5", "3", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qhplane: error: {cache}: ")
    assert named in captured.err


@pytest.mark.parametrize(
    "entries, named",
    [
        ({"10,0,5,3": -1}, "untrusted cache entry '10,0,5,3': "),  # e is 35
        ({"10,0,11,3": 66}, "untrusted cache entry '10,0,11,3': dim 66 is not null or an "
                            "integer from e = -1 to 65, the dim of L(10,0)"),
    ],
    ids=["dim-below-e", "dim-above-L-d-m0"],
)
def test_check_rejects_untrusted_cache_entry(capsys, tmp_path, entries, named):
    cache = tmp_path / "memo.json"
    cache.write_text(json.dumps({"version": degeneration.CACHE_VERSION, "entries": entries}))
    assert main(["check", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qhplane: error: {cache}: {named}")
    if "10,0,5,3" in entries:
        # the target's own key: certify reads it first and stops there
        assert main(["certify", "10", "0", "5", "3", "--cache", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qhplane: error: {cache}: {named}")


def test_check_subcommand(capsys, tmp_path):
    cache = str(tmp_path / "memo.json")
    assert run(capsys, "certify", "10", "0", "11", "3", "--cache", cache)[0] == 0
    entries = len(json.loads(Path(cache).read_text())["entries"])
    assert run(capsys, "check", cache) == (0, f"{cache}: {entries} entries checked\n")
    code, out = run(capsys, "check", cache, "--json")
    assert code == 0 and json.loads(out) == {"schema": 1, "cache": cache, "entries": entries}


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("missing.json", None, "missing.json: No such file or directory"),
        (".", None, "Is a directory"),
        ("memo.json", "not json", "not a JSON cache file"),
        ("memo.json", '{"version": 2, "entries": {}}', "cache version 2 is not 3"),
    ],
    ids=["missing", "a-directory", "not-json", "another-version"],
)
def test_check_rejects_a_file_it_cannot_check(capsys, tmp_path, name, text, named):
    cache = tmp_path / name
    if text is not None:
        cache.write_text(text)
    assert main(["check", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"qhplane: error: {cache}: ")
    assert named in captured.err


def test_an_unread_bad_entry_survives_a_rewrite_and_check_names_it(capsys, tmp_path):
    cache = tmp_path / "memo.json"
    assert main(["certify", "10", "0", "11", "3", "--cache", str(cache)]) == 0
    data = json.loads(cache.read_text())
    key = "30,0,0,0"
    data["entries"][key] = 500  # above 495, the dim of L(30,0)
    cache.write_text(json.dumps(data))
    before = os.stat(cache).st_ino
    capsys.readouterr()
    fresh = run(capsys, "certify", "12", "0", "13", "3", "--json")
    assert run(capsys, "certify", "12", "0", "13", "3", "--json", "--cache", str(cache)) == fresh
    assert os.stat(cache).st_ino != before  # rewritten, with new entries
    rewritten = json.loads(cache.read_text())["entries"]
    assert rewritten[key] == 500 and len(rewritten) > len(data["entries"])
    assert main(["check", str(cache)]) == 2
    assert capsys.readouterr().err.startswith(
        f"qhplane: error: {cache}: untrusted cache entry {key!r}: "
    )


def test_certify_through_a_cache_names_the_system_asked_for(capsys, tmp_path):
    # L(2,0,1,2) has the canonical key "2,2,0,0"; it is also the first
    # subsystem of L(4,0,3,2), whose one split is (2, 2).  Through a cache
    # written by other runs, each system prints what a fresh run prints.
    fresh = {
        argv: run(capsys, "certify", *argv, "--json")
        for argv in (("2", "0", "1", "2"), ("4", "0", "3", "2"), ("10", "0", "11", "3"))
    }
    assert json.loads(fresh["4", "0", "3", "2"][1])["tree"]["subsystems"][0]["system"] == [2, 0, 1, 2]
    cache = str(tmp_path / "memo.json")
    for argv in (("4", "0", "3", "2"), ("10", "0", "11", "3")):
        assert run(capsys, "certify", *argv, "--cache", cache)[0] == 0
    for argv, out in fresh.items():
        assert out[0] == 0
        assert run(capsys, "certify", *argv, "--json", "--cache", cache) == out


@pytest.mark.parametrize("cpus, workers, named", [(2, 3, "2"), (None, 2, "1")])
def test_verify_refuses_more_workers_than_cpus(capsys, monkeypatch, cpus, workers, named):
    def pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    argv = ["verify", "--d-max", "3", "--n-max", "3", "--workers", str(workers)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"qhplane: error: --workers must be at most the CPU count {named}, got {workers}\n"
    )


def test_verify_worker_pool_matches_serial(capsys):
    argv = ["verify", "--d-max", "4", "--n-max", "4", "--json"]
    serial = run(capsys, *argv, "--workers", "1")
    pooled = run(capsys, *argv, "--workers", "2")
    assert serial[0] == 0 and json.loads(serial[1])["cells"] > 0
    assert pooled == serial


def _module_call(*argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return {"args": [sys.executable, "-m", "qhplane", *argv], "cwd": root, "env": env}


def _run_module(*argv):
    return subprocess.run(**_module_call(*argv), capture_output=True, text=True, timeout=60)


def test_python_dash_m_entry_point():
    proc = _run_module("table", "qh1list")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:6] == ["d", "m0", "n", "m", "x", "y"]


# cli.main on argv[2:] in a fresh interpreter where importing the module
# argv[1] raises ImportError, in a forked verify worker too
_REFUSING = """
import sys
sys.modules[sys.argv[1]] = None
from qhplane.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["dim", "20", "0", "10", "3"], "numpy"),
        (["classify", "4", "0", "5", "2"], "numpy"),  # special: the search runs
        (["certify", "20", "0", "10", "3"], "numpy"),
        (["certify", "12", "0", "13", "3", "--cache", "{cache}"], "numpy"),
        (["check", "{cache}"], "numpy"),
        (["enumerate", "--m-max", "3"], "numpy"),
        (["table", "qh1list"], "numpy"),
        (["oracle", "4", "0", "5", "2"], "numpy.random"),
        (["verify", "--d-max", "3", "--n-max", "3", "--workers", "1"], "numpy.random"),
        pytest.param(
            ["verify", "--d-max", "3", "--n-max", "3", "--workers", "2"], "numpy.random",
            marks=pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU"),
        ),
    ],
)
def test_only_the_oracle_loads_numpy(tmp_path, argv, refused):
    # numpy is for the oracle's matrices, and it samples no numpy.random
    cache = str(tmp_path / "memo.json")
    degeneration.certify(L(10, 0, 11, 3), cache_path=cache)
    call = _module_call(refused, *[arg.format(cache=cache) for arg in argv])
    call["args"][1:3] = ["-c", _REFUSING]  # in place of -m qhplane
    proc = subprocess.run(**call, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_certify_budget_exhausted_exits_1_without_traceback():
    proc = _run_module("certify", "12", "0", "13", "3", "--budget", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "qhplane: error: node budget 3 exhausted at L(5,0,3,3)\n"


def test_closed_pipe_exits_1_without_traceback():
    proc = subprocess.Popen(
        **_module_call("enumerate", "--m-max", "17", "--configurations"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader leaves before the first line is written
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_certify_too_deep_exits_1_without_traceback():
    # the m = 2 chain of L(2000,0,667666,2) has about d/2 = 1000 levels of
    # one frame each, which with the CLI's own frames pass CPython's
    # default recursion limit of 1000
    proc = _run_module("certify", "2000", "0", "667666", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "qhplane: error: recursion limit 1000 reached certifying L(2000,0,667666,2)\n"
    )
