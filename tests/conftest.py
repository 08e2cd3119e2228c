import warnings

import pytest

from qapkit.cli import main

# Hypothesis imports this module when a property fails. With some libcst and
# mypy_extensions releases that import raises a DeprecationWarning, which
# -W error would turn into an INTERNALERROR that hides the failing test.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if exc.code is not None else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
