"""End-to-end plugin behavior: the env flag turns seeded concurrency
bugs into test failures, and the real suites stay green under it."""

import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

SEEDED = textwrap.dedent(
    """
    import threading

    from repro.concurrency import guarded_by


    class Racy:
        _items = guarded_by("_lock")

        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def unguarded_append(self, value):
            self._items.append(value)


    def test_seeded_unguarded_write():
        from repro.sanitizer import runtime

        runtime.sanitize_class(Racy)
        Racy().unguarded_append(1)


    def test_seeded_lock_order_inversion():
        from repro.sanitizer import runtime

        a = runtime.wrap_lock(threading.Lock(), "seed_a")
        b = runtime.wrap_lock(threading.Lock(), "seed_b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
    """
)


def run_pytest(args, sanitize, cwd=REPO_ROOT):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if sanitize:
        env["REPRO_SANITIZE"] = "1"
    else:
        env.pop("REPRO_SANITIZE", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_seeded_violations_fail_the_run(tmp_path):
    test_file = tmp_path / "test_seeded.py"
    test_file.write_text(SEEDED)
    result = run_pytest(
        ["-p", "repro.sanitizer.plugin", str(test_file)], sanitize=True
    )
    assert result.returncode != 0
    assert "lockset sanitizer" in result.stdout
    assert "unguarded" in result.stdout
    assert "2 errors" in result.stdout or "2 error" in result.stdout


def test_without_env_flag_seeded_bugs_pass(tmp_path):
    test_file = tmp_path / "test_seeded.py"
    test_file.write_text(SEEDED)
    result = run_pytest(
        ["-p", "repro.sanitizer.plugin", str(test_file)], sanitize=False
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.slow
def test_real_learned_store_suite_clean_under_sanitizer():
    result = run_pytest(
        ["tests/learned/test_store.py", "tests/feedback/test_store.py"],
        sanitize=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
