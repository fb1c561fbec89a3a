"""Write bench/expected_zoo.json: the batch-1 `analyze --format json`
report, node count and serialized-graph digest of every zoo
configuration the benchmark can draw.

    python3 bench/make_expected.py

The file is the reference the benchmark checks zoo outputs against. It
is built from the program itself, so regenerate it only at a commit
whose reports are known good; before writing, the reports are
cross-checked against the published operating points that
tests/test_acceptance.py pins (see selfcheck.check_pins).
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from acev2 import cli, ir, zoo  # noqa: E402
from acev2.formats import NumericFormat  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import selfcheck  # noqa: E402


def build_expected(tmp: Path) -> dict:
    configs = {}
    for key in gen.all_zoo_keys():
        g = gen.build_zoo(key, zoo, NumericFormat)
        text = ir.serialize_graph(g)
        path = tmp / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["analyze", str(path), "--format", "json"])
        if code != 0:
            raise SystemExit(f"analyze {key} exited {code}")
        configs[key] = {"nodes": len(g.nodes), "sha256": check.sha256(text),
                        "report": json.loads(out.getvalue())}
    return configs


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        configs = build_expected(Path(tmp))
    problems = selfcheck.check_pins(configs)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {"about": "acev2 analyze --format json reports of the zoo draw "
                    "at batch 1; see make_expected.py",
           "configs": configs}
    (BENCH / "expected_zoo.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(configs)} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
