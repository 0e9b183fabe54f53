"""Every command of scripts/output_snapshot.py keeps the CLI contract.

The snapshot diffs two source trees by their outputs, and a command that
raises shows there only as a `raised ...` line. Here each command runs
through `cli.main` once more, in a directory that holds `deep.json`. A JSON
command must pass `_check_contract`; `proof-identity`, whose JSON is a list
of rows, gets the same checks with a list in place of the object. A CSV or
`--help` command must exit 0 with output and no traceback.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from symvar.cli import main
from test_cli_properties import _check_contract, _reject_non_finite

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_snapshot.py"
_SPEC = importlib.util.spec_from_file_location("output_snapshot", _SCRIPT)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


def test_snapshot_commands_keep_the_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(snapshot.DEEP)
    for argv in snapshot.commands():
        if "csv" in argv or argv == ["--help"]:
            code, out = _run(argv)
            assert code == 0 and out, argv
        elif "proof-identity" in argv:
            code, out = _run(argv)
            obj = json.loads(out, parse_constant=_reject_non_finite)
            if code:
                assert code in (1, 2) and set(obj) == {"error", "hint"}, argv
            else:
                assert isinstance(obj, list), argv
        else:
            _check_contract(argv)
