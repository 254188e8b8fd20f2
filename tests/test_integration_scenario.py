"""A full end-to-end scenario on a fresh domain, driven through XSQL.

Builds a bookstore schema with CREATE CLASS, loads data, then exercises
the whole feature surface in one coherent story: path queries, schema
browsing, aggregates, a view, a query-defined method, an update method,
relations, typing analysis, and the typed plan — the workflow a
downstream user of the library would actually run.
"""

import pytest

from repro import Session
from repro.oid import Atom, FuncOid, Value
from repro.typing import analyze


@pytest.fixture
def bookstore() -> Session:
    session = Session()
    session.execute_script(
        """
        CREATE CLASS Author SIGNATURE Name = String, BornIn = Numeral;
        CREATE CLASS Book SIGNATURE Title = String, Price = Numeral,
            WrittenBy = Author;
        CREATE CLASS Store SIGNATURE City = String, Stock =>> Book;
        CREATE CLASS Ebook AS SUBCLASS OF Book SIGNATURE SizeMb = Numeral;
        """
    )
    store = session.store
    twain = store.create_object(Atom("twain"), ["Author"])
    store.set_attr(twain, "Name", "Twain")
    store.set_attr(twain, "BornIn", 1835)
    woolf = store.create_object(Atom("woolf"), ["Author"])
    store.set_attr(woolf, "Name", "Woolf")
    store.set_attr(woolf, "BornIn", 1882)

    books = [
        ("b1", "Book", "Sawyer", 12, twain),
        ("b2", "Book", "Finn", 15, twain),
        ("b3", "Ebook", "Waves", 8, woolf),
    ]
    for name, cls, title, price, author in books:
        book = store.create_object(Atom(name), [cls])
        store.set_attr(book, "Title", title)
        store.set_attr(book, "Price", price)
        store.set_attr(book, "WrittenBy", author)
    store.set_attr(Atom("b3"), "SizeMb", 2)

    shop = store.create_object(Atom("mainShop"), ["Store"])
    store.set_attr(shop, "City", "boston")
    store.set_attr_set(shop, "Stock", [Atom("b1"), Atom("b2"), Atom("b3")])
    return session


class TestScenario:
    def test_path_queries(self, bookstore):
        result = bookstore.query(
            "SELECT B.Title FROM Store S "
            "WHERE S.City['boston'] and S.Stock[B] and B.Price < 14"
        )
        assert sorted(result.scalars()) == ["Sawyer", "Waves"]

    def test_schema_browsing_new_domain(self, bookstore):
        attrs = bookstore.query(
            "SELECT Y FROM Book B WHERE B.Y.Name['Twain']"
        )
        assert sorted(str(a) for a in attrs.single_column()) == ["WrittenBy"]
        classes = bookstore.query("SELECT #C WHERE Ebook subclassOf #C")
        assert sorted(str(c) for c in classes.single_column()) == [
            "Book",
            "Object",
        ]

    def test_aggregate(self, bookstore):
        result = bookstore.query(
            "SELECT S FROM Store S WHERE count(S.Stock) > 2 "
            "and sum(S.Stock.Price) > 30"
        )
        assert len(result) == 1

    def test_view_and_update(self, bookstore):
        bookstore.execute(
            """
            CREATE VIEW Catalog AS SUBCLASS OF Object
            SIGNATURE Title = String, Price = Numeral
            SELECT Title = B.Title, Price = B.Price
            FROM Book B
            OID FUNCTION OF B
            """
        )
        result = bookstore.query(
            "SELECT C.Title FROM Catalog C WHERE C.Price > 10"
        )
        assert sorted(result.scalars()) == ["Finn", "Sawyer"]
        target = FuncOid("Catalog", (Atom("b1"),))
        bookstore.update_view("Catalog", "Price", {target: Value(20)})
        assert bookstore.store.invoke_scalar(
            Atom("b1"), "Price"
        ) == Value(20)

    def test_query_defined_method(self, bookstore):
        bookstore.execute(
            """
            ALTER CLASS Store
            ADD SIGNATURE CheapestBy : String => Numeral
            SELECT (CheapestBy @ A.Name) = W
            FROM Store X, Author A
            OID X
            WHERE X.Stock[B] and B.WrittenBy[A]
            and W =some min(X.Stock.Price)
            and B.Price =some W
            """
        )
        value = bookstore.store.invoke(
            Atom("mainShop"), "CheapestBy", [Value("Woolf")]
        )
        assert value == frozenset({Value(8)})

    def test_update_method(self, bookstore):
        bookstore.execute(
            """
            ALTER CLASS Store
            ADD SIGNATURE Discount : Numeral => Object
            SELECT (Discount @ W) = nil
            FROM Store X, Numeral W
            OID X
            WHERE W < 50
            and (UPDATE CLASS Store
                 SET X.Stock[B].Price = B.Price - B.Price * W / 100)
            """
        )
        bookstore.store.invoke(Atom("mainShop"), "Discount", [Value(50)])
        # 50 is rejected by the guard
        assert bookstore.store.invoke_scalar(
            Atom("b1"), "Price"
        ) == Value(12)
        bookstore.store.invoke(Atom("mainShop"), "Discount", [Value(25)])
        assert bookstore.store.invoke_scalar(
            Atom("b1"), "Price"
        ) == Value(9)

    def test_relations(self, bookstore):
        bookstore.execute("CREATE RELATION Likes (who, book)")
        bookstore.execute("INSERT INTO Likes VALUES ('ann', b1), ('bob', b3)")
        result = bookstore.query(
            "SELECT W, B.Title FROM Book B WHERE Likes(W, B)"
        )
        rows = {(str(a), str(b)) for a, b in result.rows()}
        assert rows == {("'ann'", "'Sawyer'"), ("'bob'", "'Waves'")}

    def test_typing_and_typed_evaluation(self, bookstore):
        text = (
            "SELECT B FROM Store S WHERE S.Stock[B] and B.WrittenBy[A] "
            "and A.BornIn[W] and W < 1850"
        )
        report = analyze(text, bookstore.store)
        assert report.strict
        typed = bookstore.query(text, plan="typed")
        plain = bookstore.query(text)
        assert typed.rows() == plain.rows()
        assert sorted(str(b) for b in typed.single_column()) == ["b1", "b2"]

    def test_indexes_on_new_domain(self, bookstore):
        bookstore.store.enable_index("WrittenBy")
        result = bookstore.query("SELECT B WHERE B.WrittenBy[twain]")
        assert sorted(str(b) for b in result.single_column()) == ["b1", "b2"]
        assert bookstore.store.index_stats()["hits"] > 0
