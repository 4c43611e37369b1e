"""The sweep subcommands' baseline paths, end to end through ``main``.

``overload --json-out`` writes a payload that ``overload --check`` then
accepts; a one-byte edit to it fails the check; a missing or corrupt
baseline stops the command with a one-line error before it runs; and
``replicate --sweep`` runs the replication target through the same
handler.
"""

import pytest

from repro.__main__ import main

pytestmark = pytest.mark.exp


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    path = tmp_path_factory.mktemp("overload") / "BENCH_overload.json"
    assert main(["overload", "--quick", "--json-out", str(path)]) == 0
    return path


def test_check_accepts_its_own_json_out(written):
    assert main(["overload", "--quick", "--check", str(written)]) == 0


def test_one_byte_edit_fails_the_check(written, tmp_path):
    text = written.read_text()
    edited = text.replace('"seed": 11', '"seed": 12', 1)
    assert len(edited) == len(text) and edited != text
    path = tmp_path / "edited.json"
    path.write_text(edited)
    assert main(["overload", "--quick", "--check", str(path)]) == 1


@pytest.mark.parametrize("content,message", [
    (None, "no committed overload baseline"),
    ("{not json", "is unreadable"),
])
def test_missing_or_corrupt_baseline_exits_with_one_line(tmp_path, content,
                                                         message):
    path = tmp_path / "BENCH_overload.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["overload", "--quick", "--check", str(path)])
    text = str(exc.value.code)
    assert text.startswith("error: ") and message in text
    assert "\n" not in text


def test_replicate_sweep_quick_passes_its_gate():
    assert main(["replicate", "--sweep", "--quick"]) == 0
