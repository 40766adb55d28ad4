"""Every `BENCH_*.json` at the repository root is evidence a change cites.

Each file names the commit it measured against and the commit it measured,
`{"parent": {"commit": ...}, "change": {"commit": ...}}`, and holds the raw
`perfbench/run.py --out` records of both sides under `"records"`, keyed
`"parent"` and `"change"`, as the runs wrote them. Each record must carry
its check result, its failure count, the machine it ran on and the four
end-to-end metrics `BENCHMARK.json` declares. With no such file, there is
nothing to check.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = [metric["name"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def benches():
    return [(path.name, json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(ROOT.glob("BENCH_*.json"))]


def test_each_file_names_two_commits():
    for name, bench in benches():
        commits = [bench[side]["commit"] for side in ("parent", "change")]
        for commit in commits:
            assert re.fullmatch(r"[0-9a-f]{7,40}", commit), f"{name}: {commit}"
        assert commits[0] != commits[1], name


def test_each_record_has_its_checks_machine_and_end_to_end_metrics():
    for name, bench in benches():
        records = bench["records"]
        assert sorted(records) == ["change", "parent"], name
        for side, runs in records.items():
            assert runs, f"{name}: no {side} records"
            for run in runs:
                where = f"{name}: {side} {run.get('workload')} seed {run.get('seed')}"
                assert isinstance(run["correct"], bool), where
                assert isinstance(run["failed"], int), where
                assert run["machine"], where
                for metric in END_TO_END:
                    assert isinstance(run["metrics"][metric]["value"], (int, float)), \
                        f"{where}: {metric}"
