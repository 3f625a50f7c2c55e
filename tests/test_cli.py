"""CLI contract: exit codes, output formats, determinism."""

import json
import subprocess
import sys

import pytest

import qhopf.cli as cli
from conftest import INSTANCES
from qhopf.verify import AxiomReport, Failure


def fixture(name):
    return str(INSTANCES / f"{name}.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("a_2_z3"))
    assert code == 0
    assert "PASS" in out


def test_verify_structured_is_valid_sorted_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", fixture("c_2"), "--format", "structured", "--seed", "9"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"]["passed"] is True
    assert doc["seed"] == 9
    assert doc["tool"]["name"] == "qhopf"
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_verify_structured_is_byte_identical_across_runs(capsys):
    args = ("verify", fixture("b_1_123_z6"), "--format", "structured")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_c3_window_3_is_byte_identical_across_worker_counts(capsys):
    """C(3) takes each pair off lead exponent 0 from its model pair; each
    worker of --jobs 2 keeps its own models' residuals, and the report
    is the same bytes as with --jobs 1."""
    args = ("verify", fixture("c_3"), "--window", "3", "--format", "structured")
    code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_1_on_axiom_failure(capsys, monkeypatch):
    broken = AxiomReport(window=3)
    broken.checked["counit"] = 1
    broken.failures.append(Failure("counit", "y", "left: y"))

    monkeypatch.setattr(cli, "verify_axioms", lambda *a, **k: broken)
    code, out, _ = run_cli(capsys, "verify", fixture("a_2_z3"))
    assert code == 1
    assert "FAIL" in out


def test_exit_4_on_internal_error(capsys, monkeypatch):
    """An uncaught exception is a bug, not an axiom failure (exit 1)."""

    def crash(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "verify_axioms", crash)
    code, out, err = run_cli(capsys, "verify", fixture("a_2_z3"))
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert err.endswith("internal error: RuntimeError: injected fault\n")


@pytest.mark.parametrize(
    "name,fragment",
    [
        ("bad_not_coprime", "p not pairwise coprime: gcd(2, 4) > 1"),
        ("bad_syntax", "invalid JSON at line 2"),
        ("bad_missing_n", "/n: missing field"),
    ],
)
def test_exit_2_on_malformed_specs(capsys, name, fragment):
    code, out, err = run_cli(capsys, "verify", fixture(name))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert fragment in err


def test_exit_2_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", str(INSTANCES / "nope.json"))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ({"family": ["A"]}, "/family: unknown family tag ['A']"),
        ({"family": {}}, "/family: unknown family tag {}"),
        (
            {"family": "A", "n": 2, "q": {"order": 3, "power": True}},
            "root spec needs integer order/power",
        ),
        (
            {"family": "A", "n": 2, "q": {"order": True}},
            "root spec needs integer order/power",
        ),
        (
            {"family": "B", "n": 1, "p": [True, 2, 3], "q": {"order": 6, "power": 1}},
            "B divisor data must be positive integers",
        ),
    ],
)
def test_exit_2_on_ill_typed_fields(capsys, tmp_path, spec, fragment):
    """Lists, objects and booleans where a tag or an integer belongs."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert fragment in err


def test_exit_2_on_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "not UTF-8 text at byte 0" in err


def test_exit_2_on_deeply_nested_json(capsys, tmp_path):
    """json.load recurses once per bracket and gives up with RecursionError."""
    path = tmp_path / "spec.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "JSON nested too deeply" in err


def test_exit_2_on_bad_window(capsys):
    code, _, err = run_cli(capsys, "verify", fixture("c_2"), "--window", "0")
    assert code == 2
    assert "--window" in err

    # every subcommand checks the options before its handler runs, iso too
    for flag in ("--window", "--jobs"):
        code, out, err = run_cli(
            capsys, "iso", flag, "0", fixture("c_2"), fixture("c_3")
        )
        assert code == 2
        assert out == ""
        assert err == f"input error: {flag} must be >= 1, got 0\n"


def test_iso_exit_codes_and_explanations(capsys):
    code, out, _ = run_cli(capsys, "iso", fixture("clift_3_z4"), fixture("a_2_z4p3"))
    assert code == 0
    assert "isomorphic" in out and "lift collapse" in out

    code, out, _ = run_cli(capsys, "iso", fixture("c_3"), fixture("c_4"))
    assert code == 3
    assert "non-isomorphic" in out and "distinguished by" in out

    code, out, _ = run_cli(
        capsys, "iso", fixture("a_1_z5"), fixture("a_1_z5p4"), "--format", "structured"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["isomorphic"] is False
    assert "canonical parameters" in doc["explanation"]


def test_invariants_output(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", fixture("group_z2"), "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["is_commutative"] is True
    assert doc["invariants"]["grouplike_rank"] == 2
    assert doc["invariants"]["abelianization_goldie_rank"]["rank"] is None


def test_comodule_laurent_and_poly(capsys):
    code, out, _ = run_cli(
        capsys, "comodule", fixture("a_2_1"), "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient"]["kind"] == "laurent"
    assert doc["bigrades"]["y"] == {"lam": 2, "rho": 0}
    assert all(row["spans"] for row in doc["strong_grading"])

    code, out, _ = run_cli(
        capsys, "comodule", fixture("env_nonabelian"), "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient"]["kind"] == "poly"
    assert doc["derivations"]["x"] == {"delta_l": "1", "delta_r": "1"}
    assert doc["taylor"] == {"x": True, "y": True}


def test_comodule_rejects_twisted_lift(capsys):
    code, _, err = run_cli(capsys, "comodule", fixture("clift_3_z4"))
    assert code == 2
    assert "no built-in quotient" in err


def test_comodule_rejects_unknown_quotient_name(capsys):
    code, _, err = run_cli(capsys, "comodule", fixture("c_2"), "--quotient", "zero")
    assert code == 2
    assert "unknown quotient" in err


def test_report_pi_policy(capsys):
    code, out, _ = run_cli(
        capsys, "report", fixture("b_1_123_z6"), "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pi"] == {"pi_degree": 6, "integral_order": 6}

    code, out, _ = run_cli(capsys, "report", fixture("a_1_2"), "--format", "structured")
    assert json.loads(out)["pi"] == "infinite"

    code, out, _ = run_cli(capsys, "report", fixture("c_2"), "--format", "structured")
    assert json.loads(out)["pi"] == "infinite"

    code, out, _ = run_cli(
        capsys, "report", fixture("group_z2"), "--format", "structured"
    )
    assert "pi" not in json.loads(out)

    code, out, _ = run_cli(
        capsys, "report", fixture("a_2_z3"), "--format", "structured"
    )
    assert "pi" not in json.loads(out)


def test_instance_echo_is_canonical(capsys):
    """Two spellings of one scalar produce identical structured output."""
    code, out, _ = run_cli(
        capsys, "invariants", fixture("a_2_z3"), "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["instance"]["q"] == {"order": 3, "power": 1}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qhopf", "iso", fixture("clift_2_1"), fixture("c_2")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "isomorphic" in proc.stdout
