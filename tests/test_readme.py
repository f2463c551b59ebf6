"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comments():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(library_example(), str(README), "exec"), namespace)
    report, vg, trace, mt = namespace["report"], namespace["vg"], namespace["trace"], namespace["mt"]
    assert report.all_pass is True
    zeros = sorted(report.zeros, key=lambda z: z.value.real)
    assert np.allclose([z.value for z in zeros], [-6.0, 2.0, 3.0, 5.0], rtol=0.0, atol=1e-9)
    assert vg.dim == 2
    assert mt.draw(vg, seed=1).V.shape == (5, 2)
    assert mt.check_monotonic(trace) == ["monotone"] * 3
    fitted = [f.lambda_hat for f in mt.fit_single_mode(trace)]
    assert np.allclose(fitted, [-1.0, -2.0, -1.0], rtol=0.0, atol=1e-6)


def test_the_cli_field_table_lists_every_job_field():
    from monotrack import cli

    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (`--[\w-]+`|—) \|", section, re.MULTILINE)
    assert rows[0] == ("command", "`--command`")
    assert rows[1:] == [(key, f"`{flag}`" if flag else "—") for key, _, flag, _ in cli._FIELDS.values()]
