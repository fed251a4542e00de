"""Command-line behavior: exit codes, determinism, manifests, config files."""

import hashlib

import pytest

from adapterdistill.cli import main
from adapterdistill.faq_data import make_synthetic_tenants, save_knowledge_base


@pytest.fixture
def kb_file(tmp_path):
    kb = make_synthetic_tenants(1, 6, 0.0, seed=4)[0]
    path = tmp_path / "kb.tsv"
    save_knowledge_base(kb, path)
    return path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildDataset:
    def test_prints_split_counts(self, kb_file, tmp_path, capsys):
        code, out, _ = run(["build-dataset", "--kb", kb_file,
                            "--out", tmp_path / "pairs.tsv"], capsys)
        assert code == 0
        for key in ("train=", "val=", "test=", "sha256="):
            assert key in out

    def test_same_seed_identical_output_hash(self, kb_file, tmp_path, capsys):
        hashes = []
        for name in ("a.tsv", "b.tsv"):
            code, _, _ = run(["build-dataset", "--kb", kb_file,
                              "--out", tmp_path / name, "--seed", "5"], capsys)
            assert code == 0
            hashes.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_single_point_kb_is_usage_error(self, tmp_path, capsys):
        kb = tmp_path / "one.tsv"
        kb.write_text("p0\tquestion a\tquestion b\n", encoding="utf-8")
        code, _, err = run(["build-dataset", "--kb", kb,
                            "--out", tmp_path / "x.tsv"], capsys)
        assert code == 2 and "single knowledge point" in err

    def test_malformed_kb_is_integrity_error(self, tmp_path, capsys):
        kb = tmp_path / "bad.tsv"
        kb.write_text("no tabs here\n", encoding="utf-8")
        code, _, err = run(["build-dataset", "--kb", kb,
                            "--out", tmp_path / "x.tsv"], capsys)
        assert code == 4 and ":1:" in err


class TestRegister:
    def register(self, tmp_path, kb_file, capsys, name="alpha", mode="adapter_distill",
                 extra=()):
        return run(["register", "--name", name, "--data", kb_file,
                    "--mode", mode, "--root", tmp_path / "plat",
                    "--epochs", "2", "--bottleneck-dim", "4",
                    "--eta-grid", "1.0", *extra], capsys)

    def test_first_distill_tenant_succeeds_self_teacher_only(self, tmp_path, kb_file,
                                                             capsys):
        code, out, _ = self.register(tmp_path, kb_file, capsys)
        assert code == 0
        assert "non_destructiveness=verified" in out
        assert "test_accuracy=" in out

    def test_duplicate_tenant_exits_3(self, tmp_path, kb_file, capsys):
        assert self.register(tmp_path, kb_file, capsys)[0] == 0
        code, _, err = self.register(tmp_path, kb_file, capsys)
        assert code == 3 and "already registered" in err

    def test_stale_lock_exits_3_without_traceback(self, tmp_path, kb_file, capsys):
        (tmp_path / "plat").mkdir()
        (tmp_path / "plat" / "platform.lock").touch()
        code, _, err = self.register(tmp_path, kb_file, capsys)
        assert code == 3
        assert err.startswith("error:") and "platform.lock" in err
        assert "Traceback" not in err

    def test_distill_star_mode_registers(self, tmp_path, kb_file, capsys):
        code, out, _ = self.register(tmp_path, kb_file, capsys, mode="adapter_distill_star")
        assert code == 0 and "mode=adapter_distill_star" in out


def _register(tmp_path, data):
    return ["register", "--name", "a", "--data", data, "--mode", "adapter",
            "--root", tmp_path / "plat"]


class TestFailuresReachExitCodes:
    """Each failure class exits with its documented code and prints one
    `error:` line, no traceback."""

    # name -> (platform file to plant, argv builder, exit code)
    CASES = {
        "missing --kb": (None, lambda t, kb: ["build-dataset", "--kb", t / "nope.tsv",
                                              "--out", t / "x.tsv"], 3),
        "missing --data": (None, lambda t, kb: _register(t, t / "nope.tsv"), 3),
        "non-integer backbone.cfg value": (("backbone.cfg", "hidden_dim=lots\n"),
                                           _register, 2),
        "unknown backbone.cfg key": (("backbone.cfg", "hidden_dims=64\n"), _register, 2),
        "malformed registry.txt": (("registry.txt", "only\tthree\tfields\n"), _register, 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_without_traceback(self, tmp_path, kb_file, capsys, case):
        planted, argv, want = self.CASES[case]
        if planted is not None:
            (tmp_path / "plat").mkdir()
            (tmp_path / "plat" / planted[0]).write_text(planted[1], encoding="utf-8")
        code, _, err = run(argv(tmp_path, kb_file), capsys)
        assert code == want
        assert err.startswith("error:") and "Traceback" not in err


class TestCapacity:
    def test_default_table(self, capsys):
        code, out, _ = run(["capacity"], capsys)
        assert code == 0
        lines = [ln.split() for ln in out.splitlines()[2:8]]
        assert [int(r[1]) for r in lines] == [1, 2, 13, 26, 130, 261]
        assert [int(r[3]) for r in lines] == [18, 109, 815, 1698, 8760, 17587]

    def test_custom_storage_echoed_in_header(self, capsys):
        code, out, _ = run(["capacity", "--base-mb", "400"], capsys)
        assert code == 0 and "base=400.0MB" in out

    def test_zero_base_rejected(self, capsys):
        code, _, _ = run(["capacity", "--base-mb", "0"], capsys)
        assert code == 2

    def test_unparsable_size_rejected(self, capsys):
        code, _, _ = run(["capacity", "--spaces", "many"], capsys)
        assert code == 2


class TestRunDir:
    def test_manifest_written_before_results(self, kb_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _, _ = run(["--run-dir", run_dir, "build-dataset", "--kb", kb_file,
                          "--out", tmp_path / "pairs.tsv", "--seed", "7"], capsys)
        assert code == 0
        manifest = (run_dir / "manifest.txt").read_text()
        assert "command=build-dataset" in manifest and "seed=7" in manifest

    def test_run_dir_is_write_once(self, kb_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = ["--run-dir", run_dir, "build-dataset", "--kb", kb_file,
                "--out", tmp_path / "pairs.tsv"]
        assert run(args, capsys)[0] == 0
        code, _, err = run(args, capsys)
        assert code == 2 and "write-once" in err


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base-mb=200\n", encoding="utf-8")
        code, out, _ = run(["--config", cfg, "capacity", "--base-mb", "300"], capsys)
        assert code == 0 and "base=300.0MB" in out

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nbase-mb=200\n", encoding="utf-8")
        code, out, _ = run(["--config", cfg, "capacity"], capsys)
        assert code == 0 and "base=200.0MB" in out

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run(["--config", tmp_path / "nope.cfg", "capacity"], capsys)
        assert code == 2

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n", encoding="utf-8")
        code, _, err = run(["--config", cfg, "capacity"], capsys)
        assert code == 4 and "key=value" in err


class TestBench:
    def test_quick_bench(self, capsys):
        code, out, _ = run(["bench", "--batch-sizes", "1", "--repetitions", "2",
                            "--seq-len", "8"], capsys)
        assert code == 0
        assert "adapter_distill" in out and "machine-specific" in out


class TestReproduce:
    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run(["reproduce", "--suite", "everything"], capsys)
        assert code == 2

    def test_fast_subset_passes(self, capsys):
        code, out, _ = run(["reproduce", "--skip-slow"], capsys)
        assert code == 0
        assert "criteria passed" in out and "FAIL" not in out
