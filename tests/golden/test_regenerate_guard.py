"""The regeneration dirty-tree guard.

``python -m tests.golden.regenerate`` must refuse to freeze fixtures
while the pipeline sources carry uncommitted changes — a golden
regenerated from a dirty tree silently blesses unreviewed output —
unless ``--force`` says that is exactly what the operator wants.
The guard is exercised against a throwaway git repository so these
tests never depend on (or disturb) the state of the real checkout.
"""

import subprocess

import pytest

from .regenerate import GUARDED, main, uncommitted_changes


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@example.invalid",
         "-c", "user.name=t", *args],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture()
def repo(tmp_path):
    """A committed checkout with one file per guarded tree."""
    root = tmp_path / "repo"
    for guarded in GUARDED:
        (root / guarded).mkdir(parents=True)
        (root / guarded / "mod.py").write_text("VALUE = 1\n")
    git(root, "init", "-q")
    git(root, "add", ".")
    git(root, "commit", "-q", "-m", "seed")
    return root


class TestUncommittedChanges:
    def test_clean_tree_reports_nothing(self, repo):
        assert uncommitted_changes(repo) == []

    def test_dirty_core_reported(self, repo):
        target = repo / GUARDED[0] / "mod.py"
        target.write_text("VALUE = 2\n")
        dirty = uncommitted_changes(repo)
        assert dirty == [f"{GUARDED[0]}/mod.py"]

    def test_untracked_stream_file_reported(self, repo):
        (repo / GUARDED[1] / "new.py").write_text("x = 1\n")
        assert uncommitted_changes(repo) == [f"{GUARDED[1]}/new.py"]

    def test_changes_outside_guarded_trees_ignored(self, repo):
        (repo / "README.md").write_text("unrelated\n")
        assert uncommitted_changes(repo) == []

    def test_non_git_directory_is_unguarded(self, tmp_path):
        assert uncommitted_changes(tmp_path / "plain") == []


class TestMainGuard:
    def test_refuses_on_dirty_tree(self, repo, tmp_path, capsys):
        (repo / GUARDED[0] / "mod.py").write_text("VALUE = 3\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main([], repo_root=repo, out_dir=out_dir)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: refusing to regenerate")
        assert "--force" in err
        assert f"{GUARDED[0]}/mod.py" in err
        assert list(out_dir.glob("*.json")) == []

    def test_force_overrides_dirty_tree(self, repo, tmp_path):
        (repo / GUARDED[0] / "mod.py").write_text("VALUE = 3\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(
            ["--force"], repo_root=repo, out_dir=out_dir
        ) == 0
        written = {p.name for p in out_dir.glob("*.json")}
        assert written == {
            "survey_golden.json", "survey_streamed_golden.json",
            "anomaly_golden.json", "raclette_golden.json",
        }

    def test_clean_tree_regenerates(self, repo, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main([], repo_root=repo, out_dir=out_dir) == 0
        assert (out_dir / "survey_streamed_golden.json").exists()
