"""Session-level ANN retrieval over BLOB vector columns (Sec. 6.3)."""

import numpy as np
import pytest

from repro import Database
from repro.errors import CatalogError, SqlError


@pytest.fixture
def db(rng):
    database = Database()
    database.execute("CREATE TABLE docs (id INT, title TEXT, embedding BLOB)")
    centers = rng.normal(scale=3.0, size=(5, 16))
    vectors = []
    for i in range(100):
        vec = centers[i % 5] + rng.normal(scale=0.05, size=16)
        vectors.append(vec)
        database.load_rows(
            "docs", [(i, f"doc-{i}", np.ascontiguousarray(vec).tobytes())]
        )
    yield database, np.array(vectors)
    database.close()


@pytest.mark.parametrize("kind", ["flat", "hnsw", "lsh", "ivf"])
def test_vector_search_finds_nearest_row(db, kind, rng):
    database, vectors = db
    count = database.create_vector_index(f"idx_{kind}", "docs", "embedding", kind=kind)
    assert count == 100
    probe = 37
    result = database.vector_search(
        f"idx_{kind}", vectors[probe] + rng.normal(scale=1e-4, size=16), k=3
    )
    assert result.columns[-1] == "__distance"
    assert result.rows[0][0] == probe
    assert result.rows[0][1] == f"doc-{probe}"
    distances = result.column("__distance")
    assert distances == sorted(distances)


def test_refresh_picks_up_new_rows(db, rng):
    database, vectors = db
    database.create_vector_index("idx", "docs", "embedding", kind="flat")
    new_vec = rng.normal(size=16) + 50.0  # far from everything else
    database.load_rows("docs", [(999, "fresh", np.ascontiguousarray(new_vec).tobytes())])
    # Before refresh, the snapshot index does not know the new row.
    before = database.vector_search("idx", new_vec, k=1)
    assert before.rows[0][0] != 999
    assert database.refresh_vector_index("idx") == 101
    after = database.vector_search("idx", new_vec, k=1)
    assert after.rows[0][0] == 999


def test_vector_index_validation(db):
    database, __ = db
    with pytest.raises(SqlError):
        database.create_vector_index("bad", "docs", "title")  # TEXT column
    database.create_vector_index("idx", "docs", "embedding")
    with pytest.raises(CatalogError):
        database.create_vector_index("idx", "docs", "embedding")
    with pytest.raises(CatalogError):
        database.vector_search("ghost", np.zeros(16))
    with pytest.raises(SqlError):
        database.create_vector_index("weird", "docs", "embedding", kind="btree")


def test_mixed_dimensions_rejected():
    with Database() as database:
        database.execute("CREATE TABLE v (id INT, e BLOB)")
        database.load_rows(
            "v",
            [
                (1, np.zeros(4).tobytes()),
                (2, np.zeros(8).tobytes()),
            ],
        )
        with pytest.raises(SqlError):
            database.create_vector_index("idx", "v", "e")


def test_partial_double_payload_rejected():
    with Database() as database:
        database.execute("CREATE TABLE v (id INT, e BLOB)")
        database.load_rows("v", [(1, np.zeros(2).tobytes()), (2, b"\0" * 12)])
        with pytest.raises(SqlError, match=r"'v' column 'e' holds a 12-byte BLOB"):
            database.create_vector_index("idx", "v", "e")
        # The failed build leaves the name free.
        database.execute("DELETE FROM v WHERE id = 2")
        assert database.create_vector_index("idx", "v", "e") == 1


def test_empty_table_rejected():
    with Database() as database:
        database.execute("CREATE TABLE v (id INT, e BLOB)")
        with pytest.raises(SqlError):
            database.create_vector_index("idx", "v", "e")
