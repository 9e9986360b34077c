"""Every command's stdout and exit code against the golden corpus, in-process.

The corpus and its regeneration script are in ``golden_cases``; a golden file
changes only with a CHANGES.md line that says why.
"""

import json

import pytest

import golden_cases
from golden_cases import GOLDEN, REPLAY, cases, models, replay, resolve, run

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("QLBENCH_SEED", raising=False)


@pytest.mark.parametrize("name, argv", list(cases()), ids=[name for name, _ in cases()])
def test_report_matches_golden(name, argv):
    code, out = run(resolve(argv))
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("name, config", list(models()), ids=[name for name, _ in models()])
def test_model_file_and_replay_match_golden(name, config, tmp_path):
    model, outputs = replay(name, config, tmp_path)
    assert model == (GOLDEN / "models" / f"{name}.model").read_bytes()
    for command in REPLAY:
        path = f"models/{name}.{command}.text"
        assert outputs[command] == (EXIT_CODES[path], (GOLDEN / path).read_text(encoding="utf-8"))


def test_corpus_has_no_stray_files():
    expected = {name for name, _ in cases()} | set(EXIT_CODES)
    expected |= {f"models/{name}.model" for name, _ in models()}
    expected |= {f"configs/{name}.cfg" for name in golden_cases.CONFIGS}
    expected |= {f"configs/{name}.rays" for name in golden_cases.FAMILIES}
    expected.add("exit_codes.json")
    found = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()}
    assert found == expected
