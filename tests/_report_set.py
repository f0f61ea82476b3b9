"""The standard preset report set, and a field-wise comparison of two sets.

write_report_set runs the CLI in this process on both presets: sense,
select-bands, radar and specx, then a sweep on every axis at 1 and 2
workers, then sense and specx again with comm.refine_db at 30 dB from a
config it writes next to their reports (refine-config.json): 120 report
files in all at the default layout. The refined comm maps are the one
report column a refit's float drift can move without flipping a prune.
compare_report_sets checks two such directories file by file: run ids,
kinds, column names, strings, ints, booleans, nulls and list lengths must
match exactly, and floats within a relative tolerance (0 means bit for
bit); the refine configs must match byte for byte. It prints the worst
relative float drift per column.

From a shell, with the specx under test on PYTHONPATH:

    python tests/_report_set.py write OUT_DIR [--trials N]
    python tests/_report_set.py compare DIR_A DIR_B [--rtol R]

compare exits 1 when the sets differ beyond the tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Any

PRESETS = ("desk", "paper_sw")
SINGLE_SHOT = ("sense", "select-bands", "radar", "specx")
AXES = ("snr", "band_placement", "channels")
WORKERS = (1, 2)
REFINED = ("sense", "specx")
REFINE_DB = 30.0
REFINE_CONFIG = "refine-config.json"


def _run(argv: list[str]) -> None:
    from specx.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"specx {' '.join(argv)} exited {code}")


def write_report_set(out_dir: str | Path, trials: int = 4) -> list[Path]:
    """Write the report set under out_dir/<preset>/{single,w1,w2,refine},
    the refine config as out_dir/<preset>/refine-config.json; returns the
    files written, sorted."""
    out = Path(out_dir)
    for preset in PRESETS:
        for command in SINGLE_SHOT:
            _run([command, "--config", preset, "--out", str(out / preset / "single")])
        for axis in AXES:
            for w in WORKERS:
                _run([
                    "sweep", "--config", preset, "--axis", axis, "--trials", str(trials),
                    "--workers", str(w), "--out", str(out / preset / f"w{w}"),
                ])
        preset_file = resources.files("specx") / "presets" / f"{preset}.json"
        config = json.loads(preset_file.read_text(encoding="utf-8"))
        config["comm"]["refine_db"] = REFINE_DB
        config_path = out / preset / REFINE_CONFIG
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        for command in REFINED:
            _run([command, "--config", str(config_path), "--out", str(out / preset / "refine")])
    return sorted(p for p in out.rglob("*") if p.is_file())


def _csv_cell(text: str) -> Any:
    """A CSV cell as the report writer encoded it: empty is null, JSON
    where it parses (numbers, booleans, structures), else the string."""
    if text == "":
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _labelled_cells(path: Path) -> tuple[Any, list[tuple[str, Any]]]:
    """A report file as (header, cells): the header must match exactly;
    each cell is (column label, value), meta entries labelled meta.<key>."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        header = {k: v for k, v in doc.items() if k not in ("meta", "rows")}
        cells = [(f"meta.{k}", v) for k, v in sorted(doc["meta"].items())]
        for row in doc["rows"]:
            cells += zip(doc["columns"], row)
        return header, cells
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header == ["key", "value"]:
        return header, [(f"meta.{k}", _csv_cell(v)) for k, v in rows]
    return header, [(c, _csv_cell(v)) for row in rows for c, v in zip(header, row)]


def _drift(x: Any, y: Any) -> float | None:
    """Worst relative drift between the floats of x and y (report values
    are finite), 0.0 when they match, None when a discrete part (type,
    length, non-float value) differs."""
    if type(x) is not type(y):
        return None
    if isinstance(x, float):
        return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
    if isinstance(x, list):
        drifts = [_drift(a, b) for a, b in zip(x, y)]
        if len(x) != len(y) or None in drifts:
            return None
        return max(drifts, default=0.0)
    return 0.0 if x == y else None


def _has_float(value: Any) -> bool:
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    return isinstance(value, float)


def compare_report_sets(
    dir_a: str | Path, dir_b: str | Path, rtol: float = 0.0, out=None
) -> list[str]:
    """Problems found comparing the report files under dir_a and dir_b, as
    one line each; empty when every file matches within rtol. Prints the
    worst relative float drift per column (table kind and label) to out,
    by default stdout."""
    a, b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    worst: dict[str, tuple[float, Path]] = {}
    for rel in sorted(files_a & files_b):
        if rel.name == REFINE_CONFIG:
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                problems.append(f"{rel}: configs differ")
            continue
        header_a, cells_a = _labelled_cells(a / rel)
        header_b, cells_b = _labelled_cells(b / rel)
        if header_a != header_b or len(cells_a) != len(cells_b):
            problems.append(f"{rel}: header or row count differs")
            continue
        kind = "meta" if rel.stem.endswith("-meta") else rel.stem.rsplit("-", 1)[-1]
        for (label, x), (label_b, y) in zip(cells_a, cells_b):
            d = _drift(x, y) if label == label_b else None
            if d is None:
                problems.append(f"{rel}: {label}: {x!r} != {y!r}")
                continue
            if d > rtol:
                problems.append(f"{rel}: {label}: {x!r} vs {y!r} drifts {d:.3g} > {rtol:g}")
            key = f"{kind}:{label}"
            if _has_float(x) and d >= worst.get(key, (-1.0, rel))[0]:
                worst[key] = (d, rel)
    out = out or sys.stdout
    for key, (d, rel) in sorted(worst.items()):
        print(f"{key:40s} {d:.3g}  ({rel})", file=out)
    return problems


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write")
    write.add_argument("out_dir")
    write.add_argument("--trials", type=int, default=4)
    compare = sub.add_parser("compare")
    compare.add_argument("dir_a")
    compare.add_argument("dir_b")
    compare.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.command == "write":
        print(f"wrote {len(write_report_set(args.out_dir, args.trials))} files")
        return 0
    problems = compare_report_sets(args.dir_a, args.dir_b, args.rtol)
    for line in problems:
        print(line)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_main())
