import pytest


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test reads and writes structure tables in its own directory,
    never in the user's cache."""
    monkeypatch.setenv("LOGGAS_CACHE_DIR", str(tmp_path / "cache"))
