import json
import time

import numpy as np
import pytest

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
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    write_json(inp, {
        "basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
        "h": [0, 0, 1.0],
        "theta_p": [1.0, 1.0, 0.7],
        "theta_cp": [1.0, 1.0, 0.0],
    })
    assert run(["lie", "--input", inp, "--output", out]) == 0
    data = json.loads(out.read_text())
    assert (data["dim_p"], data["dim_cp"]) == (9, 2)
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


def test_csv_writer_matches_row_reference(tmp_path, capsys):
    from spinaccess import Trajectory
    from spinaccess.cli import CSV_CHUNK_ROWS, _write_csv_trajectory

    rng = np.random.default_rng(30)
    for m in (1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 10_007):
        states = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-150, 150, (m, 1))
        states[0] = [-0.0, 0.5, 1e-320]
        states[-1] = [np.inf, np.nan, -np.inf]
        traj = Trajectory(times=np.cumsum(rng.uniform(0, 0.1, m)), states=states,
                          purities=np.einsum("ij,ij->i", states, states),
                          controls=rng.choice([0.0, 1.0, -2.5, 1 / 3], m))
        want = reference_csv(traj)
        path = tmp_path / "traj.csv"
        _write_csv_trajectory(traj, str(path))
        assert path.read_bytes() == want.encode(), m
        capsys.readouterr()
        _write_csv_trajectory(traj, None)
        assert capsys.readouterr().out == want, m


def test_evolve_and_csv_peak_memory(tmp_path):
    # a warm 1e5-sample schedule written as CSV: the trajectory arrays, the
    # stacked table and one formatted block stay below 16 MB; the per-sample
    # lists and whole-text join this replaced peaked at 41 MB
    import tracemalloc

    from spinaccess import ControlSchedule, evolve_schedule
    from spinaccess.cli import _write_csv_trajectory
    from spinaccess.generator import dissipation_from_kossakowski

    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3))
    d = dissipation_from_kossakowski(2e-4 * (a @ a.T))
    h = rng.standard_normal(3)
    sched = ControlSchedule([(400.0, 1.0), (600.0, 0.0)])
    path = str(tmp_path / "traj.csv")

    def work():
        traj = evolve_schedule(h, d, sched, [0.3, 0.1, 0.0], 0.01)
        assert len(traj.times) == 100_001
        _write_csv_trajectory(traj, path)

    work()
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_evolve_json_peak_memory(tmp_path):
    # a warm 2e4-sample schedule written as JSON: json.dump streams the text,
    # so only the nested lists of the trajectory stay (6 MB); building the
    # whole text first peaked at 22 MB
    import tracemalloc

    from spinaccess import ControlSchedule, evolve_schedule
    from spinaccess.cli import _trajectory_dict, _write_json
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
        _write_json(_trajectory_dict(traj), str(path))

    work()
    want = json.dumps(json.loads(path.read_text()), indent=2) + "\n"
    assert path.read_text() == want
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak
