"""The SQLite stores open and version-check through one helper."""

import pytest

from repro.obs.ledger import RunLedger
from repro.queue.archive import ResultArchive
from repro.queue.jobstore import JobStore

STORES = [JobStore, ResultArchive, RunLedger]


@pytest.mark.parametrize("readonly", [False, True],
                         ids=["writable", "readonly"])
@pytest.mark.parametrize("cls", STORES, ids=lambda cls: cls.__name__)
def test_unknown_schema_version_is_refused(tmp_path, cls, readonly):
    path = tmp_path / "store.sqlite"
    future = cls.VERSION + 1
    with cls(path) as store:
        store._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(future),))
    with pytest.raises(ValueError) as refused:
        cls(path, readonly=readonly)
    assert str(refused.value) == (
        f"{cls.DESCRIPTION} {path} has schema v{future}, "
        f"this build expects v{cls.VERSION}")


def test_failed_transaction_rolls_back(tmp_path):
    with ResultArchive(tmp_path / "results.sqlite") as archive:
        with pytest.raises(RuntimeError):
            with archive._txn() as conn:
                conn.execute("INSERT INTO sweeps (token, description, total,"
                             " created_at) VALUES ('t', 'd', 1, 0)")
                raise RuntimeError("abort")
        assert archive.tokens() == []
        archive.register("t", "d", 1)
        assert archive.tokens() == ["t"]


def test_queue_status_refuses_an_unknown_job_store(tmp_path, capsys):
    from repro.cli import main

    with JobStore(tmp_path / "jobs.sqlite") as store:
        store.submit("tok", "d", None, [])
        store._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'")
    assert main(["queue", "--queue-dir", str(tmp_path), "status", "tok"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "schema v99" in err[0]
