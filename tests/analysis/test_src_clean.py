"""The shipped source tree passes every rule with an empty baseline.

This is the CI gate in test form: if a change introduces a guarded-by
violation, lock-order cycle, unhandled AST node, blocking call under a
lock, or inline selectivity pin, this test fails with the rendered
findings in the assertion message.  ``src`` is linted once per session
(the ``src_lint_via_cli`` fixture), shared with the CLI exit-code test;
``test_run_lint_matches_lint_paths_on_fixturs_tree`` pins that the
CLI's engine reports what the framework does.
"""


def test_src_is_lint_clean(src_lint_via_cli):
    _, rendered = src_lint_via_cli
    assert rendered == "", f"repro lint src/ is not clean:\n{rendered}"
