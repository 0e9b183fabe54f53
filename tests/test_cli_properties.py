"""Property test of the CLI contract over generated argv.

For convolve, symmetry, certify and the classical optimize, valid and
invalid values alike must end in strict JSON on stdout (no NaN or
Infinity), an exit code in {0, 1, 2} and no traceback. Options are passed
as --name=value or as two tokens, so argparse sees values that start with a
dash or are not numbers; its refusals must be JSON errors too. Sizes are
small, so no example allocates much or runs long.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symvar.cli import main


def _mostly(valid, invalid):
    """Mostly a valid value, so that a whole argv is often valid.

    st.one_of would draw each branch equally often, repeated ones included.
    """
    return st.sampled_from([valid] * 4 + [invalid]).flatmap(lambda strategy: strategy)


P = _mostly(
    st.fractions(0, 1, max_denominator=12).filter(lambda f: 0 < f < 1).map(str),
    st.sampled_from(["0.5", "1/2", "0", "1", "-1/3", "3/2", "1e400", "nan", "inf", "a", "1/0"]),
)
NUMBER = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.5", "-1.5", "nan", "inf", "-inf", "1e30", "x", ""]),
)
GRID = _mostly(
    st.tuples(st.integers(-3, 0), st.integers(1, 3), st.sampled_from(["0.5", "0.25", "0.1"]))
    .map(lambda g: "%d:%d:%s" % g),
    st.one_of(
        st.tuples(NUMBER, NUMBER, st.sampled_from(["0.5", "0", "-0.1", "nan", "1e-9", "y"]))
        .map(":".join),
        st.sampled_from(["-2:1", "1:2:3:4", ":", ""]),
    ),
)
INCLUDE = _mostly(
    st.lists(st.sampled_from(["-1", "0", "0.5", "-0.5"]), min_size=1, max_size=3).map(",".join),
    st.lists(NUMBER, min_size=1, max_size=3).map(",".join),
)
KIND = _mostly(st.sampled_from(["classical", "free", "boolean", "FREE"]), st.just("monotone"))
ORDER = _mostly(st.integers(1, 13), st.sampled_from([-1, 0, 14, 15]))
RELAX_ORDER = st.one_of(st.none(), _mostly(st.integers(0, 6), st.sampled_from([-1, 7])))
OUTPUT = st.sampled_from(["json", "csv"])


@st.composite
def measures(draw):
    """A measure as JSON text: a law (weights may all be 0) or a malformed one."""
    mode = draw(st.sampled_from(["exact", "float"]))
    n = draw(st.integers(1, 4))
    locs = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    total = sum(raw) or 1
    if mode == "exact":
        atoms = [[str(t), f"{w}/{total}"] for t, w in zip(locs, raw)]
    else:
        atoms = [[float(t), w / total] for t, w in zip(locs, raw)]
    return draw(_mostly(
        st.just(json.dumps({"atoms": atoms, "mode": mode})),
        st.sampled_from([
            '{"atoms": 5}',
            '{"atoms": [[1]]}',
            '{"mode": "exact"}',
            '{"atoms": [], "mode": "exact"}',
            '{"atoms": [[0, 1]], "mode": "weird"}',
            '{"atoms": [["0", "-1"], ["1", "2"]], "mode": "exact"}',
            '{"atoms": [[NaN, 1]], "mode": "float"}',
            '{"atoms": [[0, Infinity]], "mode": "float"}',
            '{"atoms": [[1e25, 1]], "mode": "float"}',
            '{"atoms": [[1e200, 0.5], [0, 0.5]], "mode": "float"}',
            '{"atoms": [["1e200", "1"]], "mode": "exact"}',
            "[1, 2]",
            "{nope",
            "5",
        ]),
    ))


def _option(key, value, joined):
    flag = f"--{key.replace('_', '-')}"
    return [f"{flag}={value}"] if joined else [flag, str(value)]


def _command(name, **options):
    """argv of one subcommand; each option is passed as --key=value or as two
    tokens, --key value; None leaves it out."""
    return st.fixed_dictionaries({key: st.tuples(v, st.booleans()) for key, v in options.items()}).map(
        lambda drawn: [name] + [
            token
            for key, (value, joined) in drawn.items()
            if value is not None
            for token in _option(key, value, joined)
        ]
    )


ARGV = st.one_of(
    _command("convolve", kind=KIND, x=measures(), y=measures(), order=ORDER, output=OUTPUT),
    _command("symmetry", p=P, kind=KIND, measure=measures(), order=ORDER),
    _command("certify", p=P, mode=st.sampled_from(["exact", "grid"]), grid=GRID, output=OUTPUT),
    _command("optimize", kind=st.just("classical"), p=P, grid=GRID, include=INCLUDE,
             relax_order=RELAX_ORDER),
)


def _reject_non_finite(token):
    raise ValueError(f"non-finite number {token} in output")


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_cli_contract_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping here would be a traceback
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    obj = json.loads(out.getvalue(), parse_constant=_reject_non_finite)
    assert isinstance(obj, dict), argv
    if code:
        assert set(obj) == {"error", "hint"}, argv
