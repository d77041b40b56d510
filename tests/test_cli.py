import copy
import functools
import json
import operator
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forking import (assert_no_child_left, block_buffered_stdout, count_forks,
                     fail_in_workers, patch_cpus)
from spinaccess.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def run(args):
    return main([str(a) for a in args])


def test_classify_identity_ray(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    assert run(["classify", "--input", inp, "--output", out]) == 0
    data = json.loads(out.read_text())
    assert data["case"] == "3c"
    assert data["n_p"] == data["n_cp"] == 1
    assert data["certificate"] == "none"
    assert not data["ambiguous"]


def test_classify_spin_field_pattern(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {"basis": [
        [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]})
    # boundary-contained admissible set: conservative classification, exit 2
    assert run(["classify", "--input", inp, "--output", out]) == 2
    data = json.loads(out.read_text())
    assert data["case"] == "3b"
    assert data["certificate"] == "condition1"
    assert (data["n_p"], data["n_cp"]) == (5, 3)
    assert data["ambiguous"]


def test_classify_rejects_empty_basis(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": []})
    assert run(["classify", "--input", inp]) == 1


def test_classify_rejects_unknown_key(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]], "bogus": 1})
    assert run(["classify", "--input", inp]) == 1
    assert "bogus" in capsys.readouterr().err


def test_classify_rejects_malformed_json(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text("{not json")
    assert run(["classify", "--input", inp]) == 1


def test_lie_report(tmp_path):
    # the README input, and the same subspace at basis scales where each
    # row's squared norm under- or overflows: the verdicts are the same
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    for scale in (1.0, 1e-170, 1e200):
        write_json(inp, {
            "basis": (scale * np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                        [0, 0, 0, 0, 0, 1]])).tolist(),
            "h": [0, 0, 1.0],
            "theta_p": [1.0, 1.0, 0.7],
            "theta_cp": [1.0, 1.0, 0.0],
        })
        assert run(["lie", "--input", inp, "--output", out]) == 0
        data = json.loads(out.read_text())
        assert (data["dim_p"], data["dim_cp"]) == (9, 2), scale
        assert data["accessible_p"] and not data["accessible_cp"]
        assert data["differ"]
        assert len(data["basis_p"]) == 9
        assert len(data["basis_cp"]) == 2


def bench_frame():
    """Rotation by 0.7 rad about (1, 2, 3)/sqrt(14), the benchmark's fixed frame."""
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(0.7) * k + (1.0 - np.cos(0.7)) * (k @ k)


@pytest.mark.parametrize("s", [1.0, 1e4, 1e6])
def test_lie_equal_rates_in_a_rotated_frame_at_strong_damping(tmp_path, s):
    # C = s diag(1, 1, 0) with h along z, both in the same generic frame: the
    # CP algebra stays two-dimensional however strong the damping
    q = bench_frame()
    c = s * (q @ np.diag([1.0, 1.0, 0.0]) @ q.T)
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {
        "basis": [[c[0, 0], c[1, 1], c[2, 2], c[0, 1], c[0, 2], c[1, 2]]],
        "h": (q @ [0.0, 0.0, 1.0]).tolist(),
        "theta_p": [1.0],
        "theta_cp": [1.0],
    })
    assert run(["lie", "--input", inp, "--output", out]) == 0
    data = json.loads(out.read_text())
    assert data["dim_cp"] == 2
    assert not data["accessible_cp"]


def test_lie_infeasible_coordinates_exit_domain(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {
        "basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
        "h": [0, 0, 1.0],
        "theta_p": [1.0, 1.0, 0.7],
        "theta_cp": [1.0, 1.0, 0.7],
    })
    assert run(["lie", "--input", inp]) == 2


def test_evolve_empty_schedule_single_row(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "traj.csv"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                     "schedule": [], "dt": 0.1})
    assert run(["evolve", "--input", inp, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,rho1,rho2,rho3,purity,u"
    assert len(lines) == 2


def test_evolve_csv_round_trips_bit_exactly(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "traj.csv"
    write_json(inp, {"c": [0.3, 0.4, 0.5, 0.05, 0, 0], "h": [0.2, 0, 1],
                     "v0": [0.4, 0.1, -0.2], "schedule": [[1.0, 1.0], [0.5, 0.0]],
                     "dt": 0.07})
    assert run(["evolve", "--input", inp, "--output", out]) == 0

    from spinaccess import ControlSchedule, evolve_schedule, vec6_to_sym
    from spinaccess.generator import dissipation_from_kossakowski

    d = dissipation_from_kossakowski(vec6_to_sym([0.3, 0.4, 0.5, 0.05, 0, 0]))
    traj = evolve_schedule([0.2, 0, 1], d, ControlSchedule([(1.0, 1.0), (0.5, 0.0)]),
                           [0.4, 0.1, -0.2], 0.07)
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    parsed = np.array([[float(x) for x in row] for row in rows])
    assert parsed.shape[0] == len(traj.times)
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:4], traj.states)
    assert np.array_equal(parsed[:, 4], traj.purities)


def test_evolve_flags_ball_exit_without_aborting(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "traj.csv"
    write_json(inp, {"c": [1, 1, -2.5, 0, 0, 0], "h": [0, 0, 0], "v0": [0.5, 0, 0],
                     "schedule": [[2.0, 0.0]], "dt": 0.05})
    assert run(["evolve", "--input", inp, "--output", out]) == 0
    assert "Bloch ball" in capsys.readouterr().err


def test_evolve_json_format(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "traj.json"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                     "schedule": [[1.0, 1.0]], "dt": 0.1})
    assert run(["evolve", "--input", inp, "--output", out, "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert not data["exited_ball"]
    assert len(data["times"]) == len(data["states"])


def test_evolve_rejects_unbounded_schedule_at_once(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                     "schedule": [[1e9, 1]], "dt": 1e-3})
    start = time.perf_counter()
    assert run(["evolve", "--input", inp]) == 1
    assert time.perf_counter() - start < 1.0
    assert "samples" in capsys.readouterr().err


def test_evolve_rejects_non_finite_fields(tmp_path, capsys):
    inp = tmp_path / "in.json"
    for field, value in (("dt", float("nan")), ("schedule", [[1.0, float("inf")]]),
                         ("h", [0, 0, float("nan")])):
        data = {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                "schedule": [[1.0, 1.0]], "dt": 0.1}
        data[field] = value
        write_json(inp, data)
        assert run(["evolve", "--input", inp]) == 1, field
        assert "finite" in capsys.readouterr().err, field


def test_spin_field_zero_family(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {"family": "zero", "b3": 1.0})
    assert run(["spin-field", "--input", inp, "--output", out]) == 0
    data = json.loads(out.read_text())
    coeffs = data["coefficients"]
    assert all(coeffs[k] == 0.0 for k in ("c11", "c12", "c13", "c23", "c33"))
    assert data["cp_admissible"]


def test_spin_field_exponential(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {"family": "exponential", "w11": 1.0, "w13": 0.2,
                     "w33": 1.0, "tau": 0.5, "b3": 1.0})
    assert run(["spin-field", "--input", inp, "--output", out]) == 0
    data = json.loads(out.read_text())
    assert not data["cp_admissible"]
    assert data["positivity_admissible"]
    assert abs(data["coefficients"]["c11"] - 0.5) < 1e-12


def test_spin_field_rejects_an_overflowing_dissipation_matrix(tmp_path, capsys):
    # finite amplitudes whose D11 = 2 (c22 + c33) = 2e308 is not a double:
    # refused, where it used to print Infinity, which is not JSON
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 1e308, "w13": 0.0, "w33": 1e308,
                     "b3": 1.0})
    assert run(["spin-field", "--input", inp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dissipation matrix overflows" in captured.err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["spin-field", "montecarlo"])
@pytest.mark.parametrize("b3, tau", [(1e300, 0.5), (-1e300, 0.5), (1e155, 0.5), (1e153, 0.5),
                                     (1.0, 1e200)])
def test_exponential_family_past_the_squaring_limit_exits_cleanly(tmp_path, capsys, command,
                                                                  b3, tau):
    # (2 b3 tau)^2 or tau^2 is not a double: the coefficients raised
    # OverflowError out of main.  Now strict JSON on exit 0, or one error line
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    data = {"family": "exponential", "w11": 1.0, "w13": 0.2, "w33": 1.0, "tau": tau, "b3": b3}
    if command == "montecarlo":
        data.update(v0=[0.5, 0, 0], dt=0.01, t_final=0.05, n_samples=100)
    write_json(inp, data)
    code = run([command, "--input", inp, "--output", out])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out.read_text(), parse_constant=refuse_constant)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_spin_field_rejects_an_overflowing_hamiltonian(tmp_path, capsys):
    # 2 u b3 = 2e308 is not a double: refused, where it printed Infinity
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 1.0, "w13": 0.0, "w33": 1.0, "b3": 1e308})
    assert run(["spin-field", "--input", inp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Hamiltonian matrix overflows\n"


@pytest.mark.parametrize("command", ["spin-field", "montecarlo"])
@pytest.mark.parametrize("family", [3, ["white"], {"a": 1}, "pink", None])
def test_family_outside_the_three_names_is_input_error(tmp_path, capsys, command, family):
    inp = tmp_path / "in.json"
    data = {"family": family, "w11": 0.2, "b3": 1.0}
    if command == "montecarlo":
        data.update(v0=[0.5, 0, 0], dt=0.01, t_final=1.0, n_samples=100)
    write_json(inp, data)
    assert run([command, "--input", inp, "--output", tmp_path / "out.json"]) == 1
    assert "field 'family'" in capsys.readouterr().err


def test_montecarlo_charges_each_sample_a_noise_chunk(tmp_path, capsys):
    # 200,000 one-step samples: 2e5 sample-steps, but 1.28e7 as charged
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
                     "dt": 0.01, "t_final": 0.01, "n_samples": 200_000})
    start = time.perf_counter()
    assert run(["montecarlo", "--input", inp]) == 1
    assert time.perf_counter() - start < 1.0
    assert "sample-steps" in capsys.readouterr().err


def test_montecarlo_zero_samples_is_input_error(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
                     "dt": 0.01, "t_final": 1.0, "n_samples": 0})
    assert run(["montecarlo", "--input", inp]) == 1


def test_montecarlo_rejects_unbounded_grid_at_once(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
                     "dt": 1e-9, "t_final": 1.0, "n_samples": 100})
    start = time.perf_counter()
    assert run(["montecarlo", "--input", inp]) == 1
    assert time.perf_counter() - start < 1.0
    assert "sample-steps" in capsys.readouterr().err


def test_montecarlo_rejects_non_finite_fields(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": float("inf"), "b3": 1.0,
                     "v0": [0.5, 0, 0], "dt": 0.01, "t_final": 1.0, "n_samples": 100})
    assert run(["montecarlo", "--input", inp]) == 1
    assert "finite" in capsys.readouterr().err


def test_montecarlo_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's message, at once: splitting -1 into 32-bit words would not end
    inp = tmp_path / "in.json"
    write_json(inp, {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
                     "dt": 0.01, "t_final": 1.0, "n_samples": 100})
    assert run(["montecarlo", "--input", inp, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


def test_classify_rejects_unbounded_draws(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]], "draws": 1e12})
    assert run(["classify", "--input", inp]) == 1


def test_classify_ignores_seed_and_draws(tmp_path):
    # the certificate is exact: neither --seed nor draws changes a byte
    outputs = []
    for draws, seed in ((1, 0), (32, 0), (32, 7)):
        inp = tmp_path / f"in-{draws}-{seed}.json"
        out = tmp_path / f"out-{draws}-{seed}.json"
        # corner plus coupling: boundary case with a condition2 certificate
        write_json(inp, {"basis": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], "draws": draws})
        assert run(["classify", "--input", inp, "--output", out, "--seed", seed]) == 2
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["certificate"] == "condition2"


def test_montecarlo_report(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {"family": "white", "w11": 0.2, "w33": 0.1, "b3": 1.0,
                     "v0": [0.5, 0, 0], "dt": 0.01, "t_final": 1.0,
                     "n_samples": 200})
    assert run(["montecarlo", "--input", inp, "--output", out, "--seed", "5"]) == 0
    data = json.loads(out.read_text())
    assert data["n_samples"] == 200
    assert data["within_3se"]


def test_reproduce_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["reproduce", "--output", out1, "--seed", "0"]) == 0
    assert run(["reproduce", "--output", out2, "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_passed"]
    assert len(report["checks"]) >= 10


def test_reproduce_ignores_seed_but_records_it(tmp_path):
    # the family dimensions are exact: --seed changes only the recorded key
    reports = []
    for seed in (0, 7):
        out = tmp_path / f"r{seed}.json"
        assert run(["reproduce", "--output", out, "--seed", seed]) == 0
        reports.append(json.loads(out.read_text()))
    assert (reports[0]["seed"], reports[1]["seed"]) == (0, 7)
    reports[1]["seed"] = 0
    assert reports[0] == reports[1]
    config = tmp_path / "config.json"
    write_json(config, {"seed": 1.5})
    assert run(["reproduce", "--config", config]) == 1


def test_reproduce_perturbed_convention_mismatches(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["reproduce", "--output", out, "--perturb-convention"]) == 3
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    assert "mismatch" in capsys.readouterr().err


def test_config_overrides_flags(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"family": "zero", "b3": 1.0})
    write_json(cfg, {"output": str(out)})
    assert run(["spin-field", "--input", inp, "--config", cfg]) == 0
    assert out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    inp = tmp_path / "in.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"family": "zero", "b3": 1.0})
    write_json(cfg, {"outputs": "typo.json"})
    assert run(["spin-field", "--input", inp, "--config", cfg]) == 1


@pytest.mark.parametrize("key, value", [("output", True), ("output", 1), ("output", None),
                                        ("input", 5), ("input", ["a"])])
def test_config_paths_must_be_strings(tmp_path, capsys, key, value):
    # open() would take a number, or true, as a file descriptor to write to
    # and close, and raise TypeError on a list
    inp = tmp_path / "in.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"family": "zero", "b3": 1.0})
    write_json(cfg, {key: value})
    assert run(["spin-field", "--input", inp, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert f"config key {key!r} must be a path string" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
@pytest.mark.parametrize("via_config", [False, True])
def test_unwritable_output_is_input_error(tmp_path, capsys, target, via_config):
    # a path in a missing directory, and a directory
    inp = tmp_path / "in.json"
    out = tmp_path / target
    write_json(inp, {"family": "zero", "b3": 1.0})
    if via_config:
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"output": str(out)})
        argv = ["spin-field", "--input", inp, "--config", cfg]
    else:
        argv = ["spin-field", "--input", inp, "--output", out]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output file: ")
    assert captured.out == ""


def test_unknown_tolerance_key_rejected(tmp_path):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    assert run(["classify", "--input", inp, "--tol", "bogus=1"]) == 1


def test_missing_input_rejected():
    assert run(["classify"]) == 1


def test_usage_errors_exit_as_malformed_input(tmp_path, capsys):
    # argparse's own exit code 2 would read as a domain error
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    for argv in ([], ["evolve", "--input", inp, "--format", "xml"],
                 ["classify", "--input", inp, "--bogus"],
                 ["classify", "--input", inp, "--seed", "abc"],
                 ["lie", "--input", inp, "--tol", "feas=1e-8"],
                 ["classify", "--input", inp, "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        assert "usage:" in capsys.readouterr().err, argv
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_config_rejects_keys_of_flags_the_command_lacks(tmp_path, capsys):
    inp = tmp_path / "in.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    write_json(cfg, {"format": "json"})
    assert run(["classify", "--input", inp, "--config", cfg]) == 1
    assert "'format'" in capsys.readouterr().err
    write_json(inp, {"family": "zero", "b3": 1.0})
    write_json(cfg, {"tol": {"feas": 1e-8}})
    assert run(["spin-field", "--input", inp, "--config", cfg]) == 1
    assert "'tol'" in capsys.readouterr().err


def test_unreadable_or_non_object_input_rejected(tmp_path, capsys):
    assert run(["classify", "--input", tmp_path / "absent.json"]) == 1
    assert "cannot read input file" in capsys.readouterr().err
    inp = tmp_path / "in.json"
    write_json(inp, [[1, 1, 1, 0, 0, 0]])
    assert run(["classify", "--input", inp]) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, data, key", [
    ("classify", {"draws": 4}, "basis"),
    ("spin-field", {"b3": 1.0}, "family"),
    ("montecarlo", {"b3": 1.0, "v0": [0.5, 0, 0], "dt": 0.01, "t_final": 1.0,
                    "n_samples": 100}, "family"),
])
def test_missing_required_key_rejected(tmp_path, capsys, command, data, key):
    inp = tmp_path / "in.json"
    write_json(inp, data)
    assert run([command, "--input", inp]) == 1
    assert f"missing key {key!r}" in capsys.readouterr().err


def test_integer_literal_too_large_for_a_float_rejected(tmp_path, capsys):
    # JSON reads 10**400 as an int, which float() cannot hold
    inp = tmp_path / "in.json"
    huge = "1" + "0" * 400
    for dt, h in ((huge, "[0, 0, 1]"), ("0.1", f"[0, 0, {huge}]")):
        inp.write_text('{"c": [1, 1, 1, 0, 0, 0], "h": %s, "v0": [0.5, 0, 0], '
                       '"schedule": [[1.0, 1.0]], "dt": %s}' % (h, dt))
        assert run(["evolve", "--input", inp]) == 1
        assert "finite" in capsys.readouterr().err


def test_classify_rejects_dependent_basis_rows(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]]})
    assert run(["classify", "--input", inp]) == 1
    assert "not linearly independent" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("schedule", [[1.0, 1.0], [0.0, 0.0]], "field 'schedule' is invalid"),
    ("schedule", [[-0.5, 1.0]], "field 'schedule' is invalid"),
    ("dt", 0.0, "field 'dt' must be positive"),
    ("dt", -0.01, "field 'dt' must be positive"),
])
def test_evolve_rejects_nonpositive_durations_and_steps(tmp_path, capsys, field, value,
                                                        message):
    inp = tmp_path / "in.json"
    data = {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
            "schedule": [[1.0, 1.0]], "dt": 0.1}
    data[field] = value
    write_json(inp, data)
    assert run(["evolve", "--input", inp]) == 1
    assert message in capsys.readouterr().err


def test_tol_flag_without_equals_rejected(tmp_path, capsys):
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    assert run(["classify", "--input", inp, "--tol", "feas"]) == 1
    assert "KEY=VAL" in capsys.readouterr().err


def test_config_sets_input_format_and_tol(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                     "schedule": [[0.3, 1.0]], "dt": 0.1})
    write_json(cfg, {"input": str(inp), "output": str(out), "format": "json"})
    assert run(["evolve", "--config", cfg]) == 0
    assert len(json.loads(out.read_text())["times"]) == 4
    write_json(cfg, {"format": "xml"})
    assert run(["evolve", "--input", inp, "--config", cfg]) == 1
    assert "config format" in capsys.readouterr().err

    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    write_json(cfg, {"tol": {"feas": 1e-8}})
    assert run(["classify", "--input", inp, "--output", out, "--config", cfg]) == 0
    assert json.loads(out.read_text())["case"] == "3c"
    for tol, message in (({"feas": 1.0}, "must lie in"), ({"bogus": 1e-8}, "in config"),
                         (1e-8, "must be an object")):
        write_json(cfg, {"tol": tol})
        assert run(["classify", "--input", inp, "--config", cfg]) == 1
        assert message in capsys.readouterr().err


def test_integer_fields_reject_fractions(tmp_path, capsys):
    inp = tmp_path / "in.json"
    cfg = tmp_path / "cfg.json"
    write_json(inp, {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
                     "dt": 0.01, "t_final": 1.0, "n_samples": 100.9})
    assert run(["montecarlo", "--input", inp]) == 1
    assert "'n_samples' must be an integer" in capsys.readouterr().err
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]], "draws": 2.5})
    assert run(["classify", "--input", inp]) == 1
    assert "'draws' must be an integer" in capsys.readouterr().err
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]], "draws": 2.0})
    write_json(cfg, {"seed": 1.7})
    assert run(["classify", "--input", inp, "--config", cfg]) == 1
    assert "'seed' must be an integer" in capsys.readouterr().err
    write_json(cfg, {"seed": 2.0})
    assert run(["classify", "--input", inp, "--config", cfg]) == 0


EVOLVE_INPUT = {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                "schedule": [[1.0, 1.0]], "dt": 0.5}


@pytest.mark.parametrize("key, value, field", [
    ("dt", "0.5", "dt"),
    ("dt", True, "dt"),
    ("c", ["1", "1", "1", 0, 0, 0], "c"),
    ("h", [0, 0, True], "h"),
    ("v0", [0.5, False, 0], "v0"),
    ("schedule", [["1.0", 1.0]], "schedule"),
    ("schedule", [[1.0, True]], "schedule"),
    ("schedule", [{"0": 1.0, "1": 1.0}], "schedule"),
])
def test_evolve_rejects_quoted_and_boolean_numbers(tmp_path, capsys, key, value, field):
    inp = tmp_path / "in.json"
    write_json(inp, {**EVOLVE_INPUT, key: value})
    assert run(["evolve", "--input", inp, "--output", tmp_path / "out.csv"]) == 1
    assert f"field {field!r}" in capsys.readouterr().err


def test_integer_and_tolerance_fields_reject_quoted_and_boolean_numbers(tmp_path, capsys):
    inp = tmp_path / "in.json"
    cfg = tmp_path / "cfg.json"
    mc = {"family": "white", "w11": 0.2, "b3": 1.0, "v0": [0.5, 0, 0],
          "dt": 0.01, "t_final": 1.0, "n_samples": 100}
    for key, value in (("n_samples", "100"), ("n_samples", True), ("w11", "0.2"),
                       ("b3", False)):
        write_json(inp, {**mc, key: value})
        assert run(["montecarlo", "--input", inp]) == 1
        assert f"field {key!r} must be a number" in capsys.readouterr().err
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]], "draws": "2"})
    assert run(["classify", "--input", inp]) == 1
    assert "field 'draws' must be a number" in capsys.readouterr().err
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, True]]})
    assert run(["classify", "--input", inp]) == 1
    assert "field 'basis row'" in capsys.readouterr().err
    write_json(inp, {"basis": [[1, 1, 1, 0, 0, 0]]})
    for conf, field in (({"seed": "1"}, "'seed'"), ({"seed": True}, "'seed'"),
                        ({"tol": {"feas": "1e-9"}}, "'tolerance feas'")):
        write_json(cfg, conf)
        assert run(["classify", "--input", inp, "--config", cfg]) == 1
        assert f"field {field} must be a number" in capsys.readouterr().err
    # a flag's value is text and is still read as a number
    assert run(["classify", "--input", inp, "--tol", "feas=1e-9"]) == 0
    assert run(["classify", "--input", inp, "--tol", "feas=tiny"]) == 1
    assert "field 'tolerance feas' must be a number" in capsys.readouterr().err


def test_feas_tolerance_outside_range_rejected(tmp_path, capsys):
    # by default this basis is 3b with n_p 2, n_cp 1; feas = -1 made it 3c and
    # feas = 1e9 gave case 1 next to certificate condition1
    inp = tmp_path / "in.json"
    write_json(inp, {"basis": [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]})
    for value in (-1, 0, 1e-13, 2e-6, 1e9):
        assert run(["classify", "--input", inp, "--tol", f"feas={value}"]) == 1
        assert "must lie in [1e-12, 1e-06]" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"tol": {"feas": value}})
        assert run(["classify", "--input", inp, "--config", cfg]) == 1
        assert "must lie in [1e-12, 1e-06]" in capsys.readouterr().err


@pytest.mark.parametrize("feas", ["1e-12", "1e-6"])
def test_feas_tolerance_range_ends_keep_library_verdicts(tmp_path, feas):
    from pattern_library import PATTERNS, build

    from spinaccess import sym_to_vec6

    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    for name, kwargs, case, n_p, n_cp, _, verdict in PATTERNS:
        rows = [sym_to_vec6(b).tolist() for b in build(kwargs).basis]
        write_json(inp, {"basis": rows})
        code = run(["classify", "--input", inp, "--output", out, "--tol", f"feas={feas}"])
        data = json.loads(out.read_text())
        got = (data["case"], data["n_p"], data["n_cp"], data["certificate"])
        assert got == (case, n_p, n_cp, verdict), name
        assert code == (2 if data["ambiguous"] else 0), name


def reference_csv(traj):
    """The row-by-row writer _write_csv_trajectory replaced, kept as its reference."""
    lines = ["t,rho1,rho2,rho3,purity,u"]
    for i in range(len(traj.times)):
        row = [traj.times[i], traj.states[i, 0], traj.states[i, 1],
               traj.states[i, 2], traj.purities[i], traj.controls[i]]
        lines.append(",".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_row_reference(monkeypatch, tmp_path, capsys):
    # one chunk, rounds of W chunks and one row more or less, and 5 chunks
    # and a part, each written on one, two and three processes
    from spinaccess import Trajectory
    from spinaccess.cli import CSV_CHUNK_ROWS, _write_csv_trajectory

    rng = np.random.default_rng(30)
    lengths = {1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 10_007,
               5 * CSV_CHUNK_ROWS + 3}
    lengths |= {w * CSV_CHUNK_ROWS + d for w in (2, 3) for d in (-1, 1)}
    for m in sorted(lengths):
        states = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-150, 150, (m, 1))
        states[0] = [-0.0, 0.5, 1e-320]
        states[-1] = [np.inf, np.nan, -np.inf]
        traj = Trajectory(times=np.cumsum(rng.uniform(0, 0.1, m)), states=states,
                          controls=rng.choice([0.0, 1.0, -2.5, 1 / 3], m))
        want = reference_csv(traj)
        for cpus in (1, 2, 3):
            patch_cpus(monkeypatch, cpus)
            path = tmp_path / "traj.csv"
            _write_csv_trajectory(traj, str(path))
            assert path.read_bytes() == want.encode(), (m, cpus)
            capsys.readouterr()
            _write_csv_trajectory(traj, None)
            assert capsys.readouterr().out == want, (m, cpus)


def test_csv_rows_of_the_longest_text_round_trip(monkeypatch, tmp_path):
    # every value printed in 24 characters, the longest a finite "%.17g"
    # takes, on one, two and three processes
    from spinaccess import Trajectory
    from spinaccess.cli import CSV_CHUNK_ROWS, _write_csv_trajectory

    m = 3 * CSV_CHUNK_ROWS + 5
    longest = -2.2250738585072014e-308
    traj = Trajectory(times=np.full(m, longest), states=np.full((m, 3), longest),
                      controls=np.full(m, longest))
    traj.purities = np.full(m, longest)
    want = reference_csv(traj)
    assert len(want.splitlines()[1]) == 6 * 24 + 5
    path = tmp_path / "traj.csv"
    for cpus in (1, 2, 3):
        patch_cpus(monkeypatch, cpus)
        _write_csv_trajectory(traj, str(path))
        assert path.read_bytes() == want.encode(), cpus
    for line in path.read_text().splitlines()[1:]:
        assert [float(x) for x in line.split(",")] == [longest] * 6


def long_trajectory():
    """The benchmark's 1e5-sample evolve-long schedule on a seeded model."""
    from spinaccess import ControlSchedule, evolve_schedule
    from spinaccess.generator import dissipation_from_kossakowski

    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3))
    d = dissipation_from_kossakowski(2e-4 * (a @ a.T))
    h = rng.standard_normal(3)
    sched = ControlSchedule([(400.0, 1.0), (600.0, 0.0)])
    traj = evolve_schedule(h, d, sched, [0.3, 0.1, 0.0], 0.01)
    assert len(traj.times) == 100_001
    return traj


def traced_evolve_csv_peak(path):
    """The traced peak of this process as it samples the 1e5-sample schedule
    and writes it as CSV, after a warm-up run.  Workers forked for some
    blocks and chunks are not traced."""
    import tracemalloc

    from spinaccess.cli import _write_csv_trajectory

    def work():
        _write_csv_trajectory(long_trajectory(), path)

    work()
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_evolve_and_csv_peak_memory(tmp_path):
    # a warm 1e5-sample schedule written as CSV: the trajectory arrays, the
    # stacked table and one formatted chunk stay below 16 MB; the per-sample
    # lists and whole-text join this replaced peaked at 41 MB.  On a host
    # with more than one CPU the blocks and chunks that workers compute are
    # not traced; the one-process run is below
    assert traced_evolve_csv_peak(str(tmp_path / "traj.csv")) < 16e6


def test_evolve_and_csv_peak_memory_in_one_process(monkeypatch, tmp_path):
    patch_cpus(monkeypatch, 1)
    assert traced_evolve_csv_peak(str(tmp_path / "traj.csv")) < 16e6


def traced_csv_write_peak(m, path):
    """The traced peak of this process as it writes an m-row trajectory as
    CSV, after a warm-up write."""
    import tracemalloc

    from spinaccess import Trajectory
    from spinaccess.cli import _write_csv_trajectory

    rng = np.random.default_rng(32)
    traj = Trajectory(times=np.arange(m) * 0.01, states=rng.uniform(-0.3, 0.3, (m, 3)),
                      controls=np.ones(m))
    _write_csv_trajectory(traj, path)
    tracemalloc.start()
    try:
        _write_csv_trajectory(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_csv_writer_peak_does_not_grow_with_the_trajectory(monkeypatch, tmp_path):
    # 5 and 20 chunks, on one, two and three processes: the text this
    # process holds at once is about one chunk per process, and no table of
    # the whole trajectory is built, so the peak grows by less than one
    # chunk's text from 5 chunks to 20 (a whole table would grow it by 2.9 MB)
    from spinaccess.cli import CSV_CHUNK_ROWS

    path = tmp_path / "traj.csv"
    for cpus in (1, 2, 3):
        patch_cpus(monkeypatch, cpus)
        small = traced_csv_write_peak(5 * CSV_CHUNK_ROWS, str(path))
        chunk_text = path.stat().st_size / 5
        large = traced_csv_write_peak(20 * CSV_CHUNK_ROWS, str(path))
        assert large - small < chunk_text, (cpus, small, large, chunk_text)
    assert_no_child_left()


def test_csv_writer_forks_once_per_worker_for_more_than_one_chunk(monkeypatch, tmp_path):
    # W - 1 forks, W the least of the chunks and the CPUs, whatever the
    # number of chunks; none for one chunk or one CPU.  Five CPUs give more
    # workers than most hosts have cores, and the same bytes
    from spinaccess import Trajectory
    from spinaccess.cli import CSV_CHUNK_ROWS, _write_csv_trajectory

    forks = count_forks(monkeypatch)
    for cpus in (1, 2, 3, 5):
        patch_cpus(monkeypatch, cpus)
        for chunks, m in [(1, 1), (1, CSV_CHUNK_ROWS), (2, CSV_CHUNK_ROWS + 1),
                          (7, 6 * CSV_CHUNK_ROWS + 5)]:
            traj = Trajectory(times=np.arange(m) * 0.01, states=np.full((m, 3), 0.1),
                              controls=np.ones(m))
            before = len(forks)
            _write_csv_trajectory(traj, str(tmp_path / "traj.csv"))
            assert len(forks) - before == min(chunks, cpus) - 1, (cpus, m)
            assert (tmp_path / "traj.csv").read_text() == reference_csv(traj)
    assert_no_child_left()


def test_csv_writer_raises_for_a_failed_worker(monkeypatch, tmp_path):
    from spinaccess import Trajectory, cli

    patch_cpus(monkeypatch, 2)
    fail_in_workers(monkeypatch, cli, "_csv_text")
    m = 2 * cli.CSV_CHUNK_ROWS
    traj = Trajectory(times=np.arange(m) * 0.01, states=np.full((m, 3), 0.1),
                      controls=np.ones(m))
    with pytest.raises(RuntimeError, match="1 of 1 CSV workers failed"):
        cli._write_csv_trajectory(traj, str(tmp_path / "traj.csv"))
    assert_no_child_left()


CSV_WORKER_FAILS_MID_STREAM = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
import numpy as np
from spinaccess import Trajectory, cli

parent, real = os.getpid(), cli._csv_text

def failing(rows):
    # the first worker fails on its second chunk, 4, having sent chunk 1,
    # while the second still has six chunks to send
    if os.getpid() != parent and rows[0, 0] == 4 * cli.CSV_CHUNK_ROWS:
        raise ValueError("chunk 4 failed in a worker")
    return real(rows)

cli._csv_text = failing
m = 20 * cli.CSV_CHUNK_ROWS
traj = Trajectory(times=np.arange(m, dtype=float), states=np.full((m, 3), 0.1),
                  controls=np.ones(m))
try:
    cli._write_csv_trajectory(traj, sys.argv[1])
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_csv_worker_failing_mid_stream_raises_and_leaves_no_child(tmp_path):
    # on three processes: had the second worker inherited the first one's
    # write end, this process would wait on that pipe for good, and the
    # second worker on its own full pipe
    out = block_buffered_stdout(CSV_WORKER_FAILS_MID_STREAM, str(tmp_path / "traj.csv"),
                                timeout=60)
    assert out.decode().splitlines() == ["1 of 2 CSV workers failed, exit codes [1]",
                                         "no child left"]


CSV_AFTER_A_PRINT = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
from spinaccess.cli import main
assert not sys.stdout.line_buffering
print("before")
main(["evolve", "--input", sys.argv[1]])
print("after")
"""


def test_evolve_workers_leave_the_callers_stdout_alone(tmp_path):
    # 1e4 samples: ten propagation blocks and three CSV chunks, each forked
    # with text still in this block-buffered stdout; every row is written
    # once, by this process, as on one CPU, where nothing is forked
    inp = tmp_path / "in.json"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                     "schedule": [[40.0, 1.0], [60.0, 0.0]], "dt": 0.01})
    out = [block_buffered_stdout(CSV_AFTER_A_PRINT, str(inp), str(cpus), timeout=120)
           for cpus in (1, 2, 3)]
    lines = out[0].splitlines()
    assert lines[:2] == [b"before", b"t,rho1,rho2,rho3,purity,u"]
    assert lines[-1] == b"after"
    assert len(lines) == 10_001 + 3
    assert out[1] == out[0]
    assert out[2] == out[0]


def reference_json(traj):
    """The dict of lists _write_json_trajectory replaced, dumped whole with
    indent 2, kept as its reference."""
    return json.dumps({
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "purities": traj.purities.tolist(),
        "controls": traj.controls.tolist(),
        "violations": traj.violations.tolist(),
        "exited_ball": traj.exited_ball,
    }, indent=2) + "\n"


def test_json_writer_matches_dict_reference(tmp_path, capsys):
    # one row, chunk edges and a few chunks, with non-finite values, signed
    # zeros, subnormals and samples outside the Bloch ball
    from spinaccess import Trajectory
    from spinaccess.cli import CSV_CHUNK_ROWS, _write_json_trajectory

    rng = np.random.default_rng(33)
    for m in (1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
              3 * CSV_CHUNK_ROWS + 7):
        for outside in (False, True):
            states = rng.uniform(-0.28, 0.28, (m, 3))
            states[0] = [-0.0, 0.5, 1e-320]
            if outside:
                states[-1] = [np.inf, np.nan, -np.inf]
                states[m // 2] = [0.6, 0.0, 0.0]
            traj = Trajectory(times=np.cumsum(rng.uniform(0, 0.1, m)), states=states,
                              controls=rng.choice([0.0, 1.0, -2.5, 1 / 3], m))
            assert traj.exited_ball == outside
            want = reference_json(traj)
            path = tmp_path / "traj.json"
            _write_json_trajectory(traj, str(path))
            assert path.read_text() == want, (m, outside)
            capsys.readouterr()
            _write_json_trajectory(traj, None)
            assert capsys.readouterr().out == want, (m, outside)


def test_evolve_json_peak_memory(tmp_path):
    # a warm 2e4-sample schedule written as JSON: the text is dumped a chunk
    # of rows at a time, so beside the trajectory's arrays only one chunk's
    # lists and text stay (3.5 MB); the nested lists of the whole trajectory,
    # dumped by json.dump, peaked at 6 MB, and the whole text first at 22 MB
    import tracemalloc

    from spinaccess import ControlSchedule, evolve_schedule
    from spinaccess.cli import _write_json_trajectory
    from spinaccess.generator import dissipation_from_kossakowski

    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3))
    d = dissipation_from_kossakowski(2e-4 * (a @ a.T))
    h = rng.standard_normal(3)
    sched = ControlSchedule([(80.0, 1.0), (120.0, 0.0)])
    path = tmp_path / "traj.json"

    def work():
        traj = evolve_schedule(h, d, sched, [0.3, 0.1, 0.0], 0.01)
        assert len(traj.times) == 20_001
        _write_json_trajectory(traj, str(path))
        return traj

    want = reference_json(work())
    assert path.read_text() == want
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


# ---------------------------------------------------------------------------
# the exit-code contract under generated inputs: each command's README input,
# mutated with values of every magnitude and of wrong types, lengths and
# keys, exits 0-3 with no traceback, and on exit 0 writes strict JSON
# ---------------------------------------------------------------------------

#: The README inputs; montecarlo's with 100 samples, the least it takes, to
#: t = 0.05, and not 2000 to t = 5, so that each example stays small.
README_INPUTS = {
    "classify": {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                           [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
    "lie": {"basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
            "h": [0, 0, 1.0], "theta_p": [1, 1, 0.7], "theta_cp": [1, 1, 0]},
    "evolve": {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
               "schedule": [[1.0, 1.0], [0.5, 0.0]], "dt": 0.01},
    "spin-field": {"family": "exponential", "w11": 1.0, "w13": 0.2, "w33": 1.0,
                   "tau": 0.5, "b3": 1.0},
    "montecarlo": {"family": "white", "w11": 0.3, "w13": 0.1, "w33": 0.2, "b3": 1.0,
                   "v0": [0.5, 0, 0], "dt": 0.005, "t_final": 0.05, "n_samples": 100},
}

#: Finite numbers of every magnitude.
NUMBERS = st.sampled_from([0, 1, -1, 0.5, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                           1.7e308, -1.7e308])

#: Those numbers, and values no field accepts: numbers that are not finite
#: doubles, and values of the wrong type ("exponential" is also a family
#: name).  Each drawn value is a copy, which a mutation may grow.
VALUES = st.one_of(
    NUMBERS,
    st.sampled_from([10**400, float("nan"), float("inf"), float("-inf"), "exponential",
                     "1.0", True, False, None, [], [1.0], [[1.0, 0.0]], {}, {"a": 1}]),
).map(copy.deepcopy)

#: Keys a mutation may add: optional keys of some commands, and one of none.
EXTRA_KEYS = st.sampled_from(["u", "tau", "draws", "extra"])


def _paths(node, prefix=()):
    """The path to every value below ``node``, each a tuple of keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with one to three values replaced, dropped or grown, or a key
    added; a number most often replaced by another."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        numbers = [p for p in paths if type(functools.reduce(operator.getitem, p, data))
                   in (int, float)]
        op = draw(st.sampled_from(["number", "number", "set", "drop", "grow", "key"]))
        if op == "key" or not paths:
            data[draw(EXTRA_KEYS)] = draw(VALUES)
            continue
        *head, last = draw(st.sampled_from(numbers if op == "number" and numbers else paths))
        parent = functools.reduce(operator.getitem, head, data)
        if op == "number":
            parent[last] = draw(NUMBERS)
        elif op == "set":
            parent[last] = draw(VALUES)
        elif op == "drop":
            del parent[last]
        elif isinstance(parent[last], list):
            parent[last].append(draw(VALUES))
        else:
            parent[last] = [parent[last], draw(VALUES)]
    return data


def assert_contract(code, err, out=None):
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err, err
    if code == 0 and out is not None:
        json.loads(out.read_text(), parse_constant=refuse_constant)


GENERATED = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def check_mutated_input(tmp_path, capsys, command, data):
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    write_json(inp, data)
    out.unlink(missing_ok=True)
    code = run([command, "--input", inp, "--output", out])
    # evolve writes CSV, which is not JSON
    assert_contract(code, capsys.readouterr().err, None if command == "evolve" else out)


@GENERATED
@given(data=mutated(README_INPUTS["classify"]))
def test_classify_keeps_the_exit_contract_under_generated_inputs(tmp_path, capsys, data):
    check_mutated_input(tmp_path, capsys, "classify", data)


@GENERATED
@given(data=mutated(README_INPUTS["lie"]))
def test_lie_keeps_the_exit_contract_under_generated_inputs(tmp_path, capsys, data):
    check_mutated_input(tmp_path, capsys, "lie", data)


@GENERATED
@given(data=mutated(README_INPUTS["evolve"]))
def test_evolve_keeps_the_exit_contract_under_generated_inputs(tmp_path, capsys, data):
    check_mutated_input(tmp_path, capsys, "evolve", data)


@GENERATED
@given(data=mutated(README_INPUTS["spin-field"]))
def test_spin_field_keeps_the_exit_contract_under_generated_inputs(tmp_path, capsys, data):
    check_mutated_input(tmp_path, capsys, "spin-field", data)


@GENERATED
@given(data=mutated(README_INPUTS["montecarlo"]))
def test_montecarlo_keeps_the_exit_contract_under_generated_inputs(tmp_path, capsys, data):
    check_mutated_input(tmp_path, capsys, "montecarlo", data)


@GENERATED
@given(config=mutated({"seed": 7}))
def test_reproduce_keeps_the_exit_contract_under_generated_configs(tmp_path, capsys, config):
    # reproduce reads no input file: its config is what a user writes
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    write_json(cfg, config)
    out.unlink(missing_ok=True)
    code = run(["reproduce", "--config", cfg, "--output", out])
    assert_contract(code, capsys.readouterr().err, out)


@pytest.mark.xfail(strict=True, reason="evolve writes NaN rows and exits 0 once expm's "
                                       "squarings overflow (ROADMAP item 13)")
def test_evolve_json_of_an_overflowing_field_is_strict_json_or_refused(tmp_path, capsys):
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    write_json(inp, {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1e200], "v0": [0.5, 0, 0],
                     "schedule": [[0.05, 1]], "dt": 0.01})
    code = run(["evolve", "--format", "json", "--input", inp, "--output", out])
    assert_contract(code, capsys.readouterr().err, out)
