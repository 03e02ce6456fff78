"""Skewed TPC-D data generator (reimplementation of the paper's tool [17]).

Every generated attribute is drawn from a Zipfian distribution whose
parameter ``z`` is controlled by a :class:`SkewSpec`:

* ``SkewSpec(z=0.0)`` — uniform data, the standard TPC-D requirement;
* ``SkewSpec(z=2.0)`` — every column skewed with z = 2 (the paper's TPCD_2);
* ``SkewSpec.mixed(seed)`` — each column gets an independent random z in
  [0, 4], the paper's TPCD_MIX mode;
* per-column overrides via ``SkewSpec(z=1.0, overrides={"orders.o_totalprice": 3.0})``.

Primary keys stay sequential (they are join targets, not skewable values);
foreign keys are drawn Zipfian *over the parent keys*, which is what makes
join cardinalities skewed and statistics on join columns matter.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.datagen import tpcd
from repro.datagen.dates import TPCD_DATE_MAX, TPCD_DATE_MIN
from repro.datagen.zipf import zipf_sample
from repro.errors import DataGenerationError
from repro.storage import Database

MIX = "mix"
"""Sentinel for the per-column random-z mode (the paper's TPCD_MIX)."""

_MIX_Z_RANGE = (0.0, 4.0)


@dataclass(frozen=True)
class SkewSpec:
    """How skewed each generated column should be.

    Attributes:
        z: the default Zipfian parameter for every column, or the string
            ``"mix"`` to draw an independent z per column from [0, 4].
        overrides: optional per-column parameters keyed by
            ``"table.column"``; overrides beat the default (and beat MIX).
        mix_seed: seed for the per-column z draw in MIX mode.
    """

    z: object = 0.0
    overrides: Dict[str, float] = field(default_factory=dict)
    mix_seed: int = 0

    def __post_init__(self) -> None:
        if self.z != MIX:
            if not isinstance(self.z, (int, float)):
                raise DataGenerationError(
                    f"skew z must be a number or 'mix', got {self.z!r}"
                )
            if not 0.0 <= float(self.z) <= 4.0:
                raise DataGenerationError(
                    f"skew z must be in [0, 4], got {self.z}"
                )
        for key, value in self.overrides.items():
            if not 0.0 <= float(value) <= 4.0:
                raise DataGenerationError(
                    f"override z for {key!r} must be in [0, 4], got {value}"
                )

    @classmethod
    def mixed(cls, seed: int = 0) -> "SkewSpec":
        """The paper's TPCD_MIX: random z in [0, 4] per column."""
        return cls(z=MIX, mix_seed=seed)

    def z_for(self, table: str, column: str) -> float:
        """Resolve the Zipfian parameter for one column."""
        key = f"{table}.{column}"
        if key in self.overrides:
            return float(self.overrides[key])
        if self.z == MIX:
            # Stable per-column draw (zlib.crc32 is process-independent,
            # unlike built-in str hashing).
            seed = zlib.crc32(f"{self.mix_seed}:{key}".encode("utf-8"))
            rng = np.random.default_rng(seed)
            low, high = _MIX_Z_RANGE
            return float(rng.uniform(low, high))
        return float(self.z)


class TpcdGenerator:
    """Generates a skewed TPC-D :class:`~repro.storage.Database`.

    Args:
        scale: TPC-D scale factor.  1.0 is the paper's 1 GB database;
            laptop-scale experiments use 0.002–0.02.
        skew: the :class:`SkewSpec` (default: uniform).
        seed: master random seed; generation is fully deterministic.
    """

    #: Minimum rows per table so every FK has at least a few parents.
    _MIN_ROWS = {
        "supplier": 10,
        "customer": 30,
        "part": 40,
        "partsupp": 80,
        "orders": 150,
        "lineitem": 300,
    }

    def __init__(
        self,
        scale: float = 0.01,
        skew: Optional[SkewSpec] = None,
        seed: int = 42,
    ) -> None:
        if scale <= 0:
            raise DataGenerationError(f"scale must be > 0, got {scale}")
        self.scale = scale
        self.skew = skew if skew is not None else SkewSpec()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def cardinality(self, table: str) -> int:
        """Row count of ``table`` at this scale factor."""
        base = tpcd.TPCD_TABLE_CARDINALITIES[table]
        if table in ("region", "nation"):
            return base
        return max(self._MIN_ROWS.get(table, 1), int(round(base * self.scale)))

    def generate(self, name: Optional[str] = None) -> Database:
        """Generate the full eight-table database."""
        db = Database(tpcd.tpcd_schema(), name=name or self._default_name())
        self._gen_region(db)
        self._gen_nation(db)
        self._gen_supplier(db)
        self._gen_customer(db)
        self._gen_part(db)
        self._gen_partsupp(db)
        self._gen_orders(db)
        self._gen_lineitem(db)
        return db

    def _default_name(self) -> str:
        if self.skew.z == MIX:
            return "TPCD_MIX"
        return f"TPCD_{self.skew.z:g}"

    # ------------------------------------------------------------------
    # per-column draw helpers
    # ------------------------------------------------------------------

    def _draw(self, table: str, column: str, domain, size: int) -> np.ndarray:
        """Zipfian draw of ``size`` values from ``domain`` for a column."""
        z = self.skew.z_for(table, column)
        return zipf_sample(np.asarray(domain), size, z, self._rng)

    def _draw_strings(self, table, column, choices, size) -> np.ndarray:
        """Zipfian draw of ``size`` strings from ``choices``, as an object
        array."""
        codes = self._draw(table, column, np.arange(len(choices)), size)
        return np.asarray(choices, dtype=object)[codes]

    def _comment_domain(self, size: int) -> list:
        """Bounded domain of synthetic comment strings."""
        n = max(4, min(500, size // 4 + 4))
        return [f"synthetic comment text {i}" for i in range(n)]

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def _gen_region(self, db: Database) -> None:
        n = self.cardinality("region")
        db.load_table(
            "region",
            {
                "r_regionkey": np.arange(n, dtype=np.int64),
                "r_name": tpcd.REGION_NAMES[:n],
                "r_comment": self._draw_strings(
                    "region", "r_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_nation(self, db: Database) -> None:
        n = self.cardinality("nation")
        db.load_table(
            "nation",
            {
                "n_nationkey": np.arange(n, dtype=np.int64),
                "n_name": tpcd.NATION_NAMES[:n],
                "n_regionkey": np.asarray(
                    tpcd.NATION_REGIONS[:n], dtype=np.int64
                ),
                "n_comment": self._draw_strings(
                    "nation", "n_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_supplier(self, db: Database) -> None:
        n = self.cardinality("supplier")
        nations = db.table("nation").column_array("n_nationkey")
        db.load_table(
            "supplier",
            {
                "s_suppkey": np.arange(1, n + 1, dtype=np.int64),
                "s_name": [f"Supplier#{i:09d}" for i in range(1, n + 1)],
                "s_address": self._draw_strings(
                    "supplier",
                    "s_address",
                    [f"address {i}" for i in range(max(4, n // 2))],
                    n,
                ),
                "s_nationkey": self._draw(
                    "supplier", "s_nationkey", nations, n
                ),
                "s_phone": [f"{i % 34 + 10}-{i:07d}" for i in range(n)],
                "s_acctbal": self._money(
                    "supplier", "s_acctbal", n, -999.99, 9999.99
                ),
                "s_comment": self._draw_strings(
                    "supplier", "s_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_customer(self, db: Database) -> None:
        n = self.cardinality("customer")
        nations = db.table("nation").column_array("n_nationkey")
        db.load_table(
            "customer",
            {
                "c_custkey": np.arange(1, n + 1, dtype=np.int64),
                "c_name": [f"Customer#{i:09d}" for i in range(1, n + 1)],
                "c_address": self._draw_strings(
                    "customer",
                    "c_address",
                    [f"address {i}" for i in range(max(4, n // 2))],
                    n,
                ),
                "c_nationkey": self._draw(
                    "customer", "c_nationkey", nations, n
                ),
                "c_phone": [f"{i % 34 + 10}-{i:07d}" for i in range(n)],
                "c_acctbal": self._money(
                    "customer", "c_acctbal", n, -999.99, 9999.99
                ),
                "c_mktsegment": self._draw_strings(
                    "customer", "c_mktsegment", tpcd.MARKET_SEGMENTS, n
                ),
                "c_comment": self._draw_strings(
                    "customer", "c_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_part(self, db: Database) -> None:
        n = self.cardinality("part")
        name_words = [
            "almond", "azure", "blue", "chiffon", "coral", "forest",
            "ghost", "honey", "ivory", "lemon", "linen", "mint",
            "navy", "olive", "plum", "rose", "saddle", "thistle",
        ]
        names = [
            f"{name_words[i % len(name_words)]} "
            f"{name_words[(i * 7 + 3) % len(name_words)]} part"
            for i in range(n)
        ]
        db.load_table(
            "part",
            {
                "p_partkey": np.arange(1, n + 1, dtype=np.int64),
                "p_name": names,
                "p_mfgr": self._draw_strings(
                    "part", "p_mfgr", tpcd.MANUFACTURERS, n
                ),
                "p_brand": self._draw_strings(
                    "part", "p_brand", tpcd.PART_BRANDS, n
                ),
                "p_type": self._draw_strings(
                    "part", "p_type", tpcd.PART_TYPES, n
                ),
                "p_size": self._draw(
                    "part", "p_size", np.arange(1, 51, dtype=np.int64), n
                ),
                "p_container": self._draw_strings(
                    "part", "p_container", tpcd.PART_CONTAINERS, n
                ),
                "p_retailprice": self._money(
                    "part", "p_retailprice", n, 900.0, 2000.0
                ),
                "p_comment": self._draw_strings(
                    "part", "p_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_partsupp(self, db: Database) -> None:
        n_part = self.cardinality("part")
        n_supp = self.cardinality("supplier")
        per_part = max(1, min(4, n_supp))
        partkeys = np.repeat(
            np.arange(1, n_part + 1, dtype=np.int64), per_part
        )
        offsets = np.tile(np.arange(per_part, dtype=np.int64), n_part)
        suppkeys = (
            (partkeys - 1 + offsets * max(1, n_supp // per_part)) % n_supp
        ) + 1
        n = partkeys.shape[0]
        db.load_table(
            "partsupp",
            {
                "ps_partkey": partkeys,
                "ps_suppkey": suppkeys,
                "ps_availqty": self._draw(
                    "partsupp",
                    "ps_availqty",
                    np.arange(1, 10_000, dtype=np.int64),
                    n,
                ),
                "ps_supplycost": self._money(
                    "partsupp", "ps_supplycost", n, 1.0, 1000.0
                ),
                "ps_comment": self._draw_strings(
                    "partsupp", "ps_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_orders(self, db: Database) -> None:
        n = self.cardinality("orders")
        custkeys = db.table("customer").column_array("c_custkey")
        dates = np.arange(TPCD_DATE_MIN, TPCD_DATE_MAX - 150, dtype=np.int64)
        n_clerks = max(2, n // 100)
        db.load_table(
            "orders",
            {
                "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
                "o_custkey": self._draw("orders", "o_custkey", custkeys, n),
                "o_orderstatus": self._draw_strings(
                    "orders", "o_orderstatus", tpcd.ORDER_STATUSES, n
                ),
                "o_totalprice": self._money(
                    "orders", "o_totalprice", n, 800.0, 500_000.0
                ),
                "o_orderdate": self._draw(
                    "orders", "o_orderdate", dates, n
                ),
                "o_orderpriority": self._draw_strings(
                    "orders", "o_orderpriority", tpcd.ORDER_PRIORITIES, n
                ),
                "o_clerk": self._draw_strings(
                    "orders",
                    "o_clerk",
                    [f"Clerk#{i:09d}" for i in range(n_clerks)],
                    n,
                ),
                "o_shippriority": np.zeros(n, dtype=np.int64),
                "o_comment": self._draw_strings(
                    "orders", "o_comment", self._comment_domain(n), n
                ),
            },
        )

    def _gen_lineitem(self, db: Database) -> None:
        n = self.cardinality("lineitem")
        orderkeys = db.table("orders").column_array("o_orderkey")
        orderdates = db.table("orders").column_array("o_orderdate")
        partkeys = db.table("part").column_array("p_partkey")
        suppkeys = db.table("supplier").column_array("s_suppkey")

        l_orderkey = self._draw("lineitem", "l_orderkey", orderkeys, n)
        # deterministic per-order line numbers
        order = np.argsort(l_orderkey, kind="stable")
        sorted_keys = l_orderkey[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate([[0], boundaries])
        lengths = np.diff(np.concatenate([starts, [n]]))
        linenumbers = np.empty(n, dtype=np.int64)
        linenumbers[order] = np.arange(n) - np.repeat(starts, lengths) + 1

        # ship/commit/receipt dates follow the parent order's date;
        # o_orderkey is np.arange(1, n+1) so a vectorized sorted lookup
        # replaces the dict (whose iteration order is construction-order
        # dependent) and keeps row content a pure function of the seed
        base_dates = orderdates[
            np.searchsorted(orderkeys, l_orderkey)
        ].astype(np.int64)
        ship_lag = self._draw(
            "lineitem", "l_shipdate", np.arange(1, 122, dtype=np.int64), n
        )
        commit_lag = self._draw(
            "lineitem", "l_commitdate", np.arange(30, 91, dtype=np.int64), n
        )
        receipt_lag = self._draw(
            "lineitem", "l_receiptdate", np.arange(1, 31, dtype=np.int64), n
        )

        db.load_table(
            "lineitem",
            {
                "l_orderkey": l_orderkey,
                "l_partkey": self._draw(
                    "lineitem", "l_partkey", partkeys, n
                ),
                "l_suppkey": self._draw(
                    "lineitem", "l_suppkey", suppkeys, n
                ),
                "l_linenumber": linenumbers,
                "l_quantity": self._draw(
                    "lineitem",
                    "l_quantity",
                    np.arange(1, 51, dtype=np.int64),
                    n,
                ),
                "l_extendedprice": self._money(
                    "lineitem", "l_extendedprice", n, 900.0, 100_000.0
                ),
                "l_discount": self._draw(
                    "lineitem",
                    "l_discount",
                    np.round(np.arange(0.0, 0.11, 0.01), 2),
                    n,
                ),
                "l_tax": self._draw(
                    "lineitem",
                    "l_tax",
                    np.round(np.arange(0.0, 0.09, 0.01), 2),
                    n,
                ),
                "l_returnflag": self._draw_strings(
                    "lineitem", "l_returnflag", tpcd.RETURN_FLAGS, n
                ),
                "l_linestatus": self._draw_strings(
                    "lineitem", "l_linestatus", tpcd.LINE_STATUSES, n
                ),
                "l_shipdate": base_dates + ship_lag,
                "l_commitdate": base_dates + commit_lag,
                "l_receiptdate": base_dates + ship_lag + receipt_lag,
                "l_shipinstruct": self._draw_strings(
                    "lineitem",
                    "l_shipinstruct",
                    tpcd.SHIP_INSTRUCTIONS,
                    n,
                ),
                "l_shipmode": self._draw_strings(
                    "lineitem", "l_shipmode", tpcd.SHIP_MODES, n
                ),
                "l_comment": self._draw_strings(
                    "lineitem", "l_comment", self._comment_domain(n), n
                ),
            },
        )

    def _money(self, table, column, size, low, high):
        """Zipfian draw over a discretized currency domain."""
        domain = np.round(np.linspace(low, high, num=2001), 2)
        return self._draw(table, column, domain, size)


def make_tpcd_database(
    scale: float = 0.01, z: object = 0.0, seed: int = 42
) -> Database:
    """One-call constructor for the paper's four experiment databases.

    ``z`` may be 0, 2, 4 (TPCD_0 / TPCD_2 / TPCD_4) or the string ``"mix"``
    (TPCD_MIX).
    """
    skew = SkewSpec.mixed(seed) if z == MIX else SkewSpec(z=z)
    return TpcdGenerator(scale=scale, skew=skew, seed=seed).generate()
