"""The output digests of tools/output_digest.py."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_one_digest_per_config(capsys) -> None:
    assert output_digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [path.stem for path in sorted(
        (_PATH.parents[1] / "bench" / "workloads").glob("*.json"))]
    assert [line.split(":")[0] for line in lines] == [
        *names, "mc-gamma-exp-decay", "mc-gamma-time-affine",
        "mc-gamma-constant-exp-decay", "mc-explosive-martingale",
        "mc-gamma-martingale", "mc-gamma-verify", "mc-gamma-assumptions",
        "solve-user-density-verify", "solve-user-density-assumptions",
        *(f"{name}-apriori" for name in names)]
    assert all(re.fullmatch(r"[\w-]+: [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[1] for line in lines}) == len(lines)


def test_digest_is_reproducible_and_reads_the_outputs() -> None:
    doc = output_digest._configs()["solve-user-density"]
    digest = output_digest.config_digest(doc)
    assert output_digest.config_digest(doc) == digest
    moved = dict(doc, initial_curve={"family": "exponential_decay",
                                     "level": 0.081, "rate": 0.4})
    assert output_digest.config_digest(moved) != digest


def test_martingale_digest_reads_the_report() -> None:
    doc = output_digest._martingale_configs()["mc-gamma"]
    digest = output_digest.martingale_digest(doc, 1)
    moved = dict(doc, mc=dict(doc["mc"], n_paths=doc["mc"]["n_paths"] - 1))
    assert output_digest.martingale_digest(moved, 1) != digest
