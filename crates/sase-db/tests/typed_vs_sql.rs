//! The typed stores against the SQL they replaced.
//!
//! `LocationStore` and `ContainmentStore` used to `format!` a statement per
//! call and run it through `Database::execute`; they now probe the tables'
//! indexes directly. The statements live on here as the oracle: a random
//! interleaving of store calls and raw SQL `UPDATE`/`DELETE` is applied to
//! two databases — through the stores on one, as the old SQL text on the
//! other — and after every step both tables and every store read must
//! agree. A second test holds the stores' read-modify-write to one critical
//! section under two writers.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use sase_db::{ContainmentStore, Database, LocationStore, Membership, Stay, OPEN};

const ITEMS: i64 = 4;
const PLACES: i64 = 4;

/// `(table, place column)` of the two interval tables.
const LOCATION: (&str, &str) = ("item_location", "area");
const CONTAINMENT: (&str, &str) = ("containment", "container");

fn ints(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    db.query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.as_int().expect("int column"))
                .collect()
        })
        .collect()
}

/// The statements the stores ran before they went typed, verbatim.
mod oracle {
    use super::*;

    pub fn current(db: &Database, (table, place): (&str, &str), item: i64) -> Option<Vec<i64>> {
        ints(
            db,
            &format!(
                "SELECT {place}, time_in, time_out FROM {table} \
                 WHERE item = {item} AND time_out = {OPEN}"
            ),
        )
        .into_iter()
        .next()
    }

    pub fn history(db: &Database, (table, place): (&str, &str), item: i64) -> Vec<Vec<i64>> {
        ints(
            db,
            &format!(
                "SELECT {place}, time_in, time_out FROM {table} \
                 WHERE item = {item} ORDER BY time_in"
            ),
        )
    }

    pub fn open_items(db: &Database, (table, place): (&str, &str), at: i64) -> Vec<i64> {
        ints(
            db,
            &format!(
                "SELECT item FROM {table} WHERE {place} = {at} AND time_out = {OPEN} ORDER BY item"
            ),
        )
        .into_iter()
        .map(|row| row[0])
        .collect()
    }

    pub fn close(db: &Database, (table, _): (&str, &str), item: i64, ts: i64) -> bool {
        let affected = db
            .execute(&format!(
                "UPDATE {table} SET time_out = {ts} WHERE item = {item} AND time_out = {OPEN}"
            ))
            .unwrap();
        matches!(affected, sase_db::StatementResult::Affected(n) if n > 0)
    }

    pub fn enter(db: &Database, t: (&str, &str), item: i64, at: i64, ts: i64) -> bool {
        if current(db, t, item).is_some_and(|cur| cur[0] == at) {
            return false;
        }
        close(db, t, item, ts);
        db.execute(&format!(
            "INSERT INTO {} VALUES ({item}, {at}, {ts}, {OPEN})",
            t.0
        ))
        .unwrap();
        true
    }
}

/// One step of an interleaving; `raw` picks among the SQL statements.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    item: i64,
    place: i64,
    ts: i64,
    raw: u8,
}

/// Ad-hoc SQL a repl user might run beside the rules: reopen closed
/// intervals (several open per item), move rows to another item (index
/// entries change key), rewrite places, delete history.
fn raw_sql(s: Step) -> String {
    let Step {
        item, place, ts, ..
    } = s;
    let other = (item + 1) % ITEMS;
    match s.raw % 8 {
        0 => format!("UPDATE item_location SET time_out = {OPEN} WHERE item = {item}"),
        1 => format!("UPDATE containment SET time_out = {OPEN} WHERE item = {item}"),
        2 => format!(
            "UPDATE item_location SET item = {other} WHERE item = {item} AND area = {place}"
        ),
        3 => format!(
            "UPDATE containment SET container = {place} WHERE item = {item} AND time_in < {ts}"
        ),
        4 => format!("UPDATE item_location SET time_in = {ts} WHERE area = {place}"),
        5 => format!("DELETE FROM item_location WHERE item = {item} AND area = {place}"),
        6 => format!("DELETE FROM containment WHERE container = {place}"),
        _ => format!("DELETE FROM item_location WHERE time_in > {ts}"),
    }
}

fn stay(s: Stay) -> Vec<i64> {
    vec![s.area, s.time_in, s.time_out]
}

fn membership(m: Membership) -> Vec<i64> {
    vec![m.container, m.time_in, m.time_out]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typed_stores_equal_the_sql_they_replaced(
        steps in prop::collection::vec(
            (0u8..8, 0..ITEMS, 1..PLACES + 1, 0i64..12, any::<u8>())
                .prop_map(|(kind, item, place, ts, raw)| Step { kind, item, place, ts, raw }),
            1..48,
        )
    ) {
        let typed = Database::new();
        let locations = LocationStore::open(typed.clone()).unwrap();
        let containments = ContainmentStore::open(typed.clone()).unwrap();
        // The oracle's tables are the stores' tables, created the same way.
        let sql = Database::new();
        LocationStore::open(sql.clone()).unwrap();
        ContainmentStore::open(sql.clone()).unwrap();

        for s in steps {
            match s.kind {
                0..=2 => prop_assert_eq!(
                    locations.update_location(s.item, s.place, s.ts).unwrap(),
                    oracle::enter(&sql, LOCATION, s.item, s.place, s.ts)
                ),
                3 | 4 => {
                    containments.add_to_container(s.item, s.place, s.ts).unwrap();
                    oracle::enter(&sql, CONTAINMENT, s.item, s.place, s.ts);
                }
                5 => prop_assert_eq!(
                    containments.remove_from_container(s.item, s.ts).unwrap(),
                    oracle::close(&sql, CONTAINMENT, s.item, s.ts)
                ),
                _ => {
                    let text = raw_sql(s);
                    prop_assert_eq!(typed.execute(&text).unwrap(), sql.execute(&text).unwrap());
                }
            }

            // Same rows in the same order, whichever path wrote them.
            for (table, _) in [LOCATION, CONTAINMENT] {
                let dump = format!("SELECT * FROM {table}");
                prop_assert_eq!(ints(&typed, &dump), ints(&sql, &dump), "{} after {:?}", table, s);
            }
            // Every typed read equals the statement it used to run.
            for item in 0..ITEMS {
                prop_assert_eq!(
                    locations.current_location(item).unwrap().map(stay),
                    oracle::current(&sql, LOCATION, item)
                );
                prop_assert_eq!(
                    locations.history(item).unwrap().into_iter().map(stay).collect::<Vec<_>>(),
                    oracle::history(&sql, LOCATION, item)
                );
                prop_assert_eq!(
                    containments.current_container(item).unwrap().map(membership),
                    oracle::current(&sql, CONTAINMENT, item)
                );
                prop_assert_eq!(
                    containments.history(item).unwrap().into_iter().map(membership).collect::<Vec<_>>(),
                    oracle::history(&sql, CONTAINMENT, item)
                );
            }
            for place in 1..=PLACES {
                prop_assert_eq!(
                    locations.items_in_area(place).unwrap(),
                    oracle::open_items(&sql, LOCATION, place)
                );
                prop_assert_eq!(
                    containments.contents(place).unwrap(),
                    oracle::open_items(&sql, CONTAINMENT, place)
                );
            }
        }
    }
}

/// Two handles on one database — the engine's rule beside
/// `prepopulate_warehouse`, or a repl beside a running system — move the
/// same items through both stores at once. Were "is a stay open?" and "open
/// one" separate lock acquisitions, both writers could see none open and
/// both insert one. Every call here names a place the other thread never
/// uses and differs from the thread's previous one, so every call is a
/// change: each table must end with one row per call and per item, exactly
/// one of them open, and a history without gaps.
#[test]
fn two_writers_leave_one_open_interval_per_item() {
    const CALLS: i64 = 2_000;
    let db = Database::new();
    LocationStore::open(db.clone()).unwrap();
    ContainmentStore::open(db.clone()).unwrap();
    let start = Arc::new(Barrier::new(2));

    let writers: Vec<_> = (0..2i64)
        .map(|w| {
            let (db, start) = (db.clone(), start.clone());
            std::thread::spawn(move || {
                let locations = LocationStore::open(db.clone()).unwrap();
                let containments = ContainmentStore::open(db).unwrap();
                start.wait();
                for i in 0..CALLS {
                    let (item, place, ts) = (i % ITEMS, 10 * w + (i / ITEMS) % 2, 2 * i + w);
                    assert!(locations.update_location(item, place, ts).unwrap());
                    containments.add_to_container(item, place, ts).unwrap();
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer panicked");
    }

    for (table, _) in [LOCATION, CONTAINMENT] {
        for item in 0..ITEMS {
            // Index order is insertion order: the order the writers won
            // the lock in.
            let rows = ints(
                &db,
                &format!("SELECT time_in, time_out FROM {table} WHERE item = {item}"),
            );
            assert_eq!(rows.len() as i64, 2 * CALLS / ITEMS, "{table} item {item}");
            let (last, closed) = rows.split_last().unwrap();
            assert_eq!(
                last[1], OPEN,
                "{table} item {item}: newest interval is open"
            );
            for (i, pair) in rows.windows(2).enumerate() {
                assert_eq!(
                    pair[0][1], pair[1][0],
                    "{table} item {item}: interval {i} closes where the next opens"
                );
            }
            assert!(closed.iter().all(|r| r[1] != OPEN));
        }
    }
}
