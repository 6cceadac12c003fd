import pytest

from golden_cases import CLI_CASES, GOLDEN_DIR, SERIES_CASES, render_cli, render_series


def assert_matches_golden(rendered):
    for rel, text in rendered.items():
        assert text.encode() == (GOLDEN_DIR / rel).read_bytes(), rel


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_matches_golden(name):
    rendered = render_cli(name)
    written = {p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.glob(f"{name}/*")}
    assert written <= set(rendered), "an output file of the golden run is missing"
    assert_matches_golden(rendered)


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_exact_series_matches_golden(name):
    assert_matches_golden(render_series(name))
