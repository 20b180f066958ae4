"""Golden `streamlab plan` dumps.

Every plan the CLI can print for the default grid (4 queries x native/
unified x tuple/microbatch x parallelism 1 and 2) is compared byte for
byte with tests/golden_plans.txt, so a refactor of the engines, the
translation or the plan dump cannot change a plan silently. To
regenerate the file after an intended plan change:

    PYTHONPATH=src python tests/test_plan_golden.py > tests/golden_plans.txt
"""

import contextlib
import io
from pathlib import Path

from streamlab.cli import main

GOLDEN = Path(__file__).with_name("golden_plans.txt")

QUERIES = ("identity", "sample", "projection", "grep")
API_KINDS = ("native", "unified")
ENGINES = ("tuple", "microbatch")
PARALLELISMS = ("1", "2")


def render_plans() -> str:
    sections = []
    for query in QUERIES:
        for api_kind in API_KINDS:
            for engine in ENGINES:
                for p in PARALLELISMS:
                    argv = ["plan", query, api_kind, engine, p]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        assert main(argv) == 0
                    sections.append(f"# streamlab {' '.join(argv)}\n{out.getvalue()}")
    return "".join(sections)


def test_plan_dumps_match_golden():
    assert render_plans() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render_plans(), end="")
