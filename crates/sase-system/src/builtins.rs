//! The paper's database built-in functions, bound to the event database.
//!
//! §2.1.1: "our language provides a set of built-in functions (all starting
//! with `_`) for common database operations". Q1 calls
//! `_retrieveLocation(z.AreaId)`; Q2 calls `_updateLocation(y.TagId,
//! y.AreaId, y.Timestamp)`; the containment archiving rule uses
//! `_addToContainer` / `_removeFromContainer`.
//!
//! Each function is a closure capturing a [`Database`] handle, registered
//! on the engine's [`FunctionRegistry`]; the event processor invokes them
//! exactly once per emitted composite event, which is what makes the
//! side-effecting update functions safe as archiving rules.
//!
//! Every built-in runs on the database's typed path — an index probe or a
//! by-value row write under one lock acquisition ([`Database::read`] /
//! [`Database::write`], through [`TrackAndTrace`]'s stores); none builds or
//! parses SQL text (`tools/lint-hotpath.sh` holds that line), and the rows
//! they write are ordinary table rows, visible to ad-hoc SQL.

use sase_core::error::SaseError;
use sase_core::functions::FunctionRegistry;
use sase_core::value::{Value, ValueKey, ValueType};

use sase_db::{Database, DbError, RowId, Table, TrackAndTrace};

/// Name of the area-description table backing `_retrieveLocation`:
/// `(area int, description string)`, indexed on `area`.
pub const AREA_INFO_TABLE: &str = "area_info";
const AREA: usize = 0;
const DESCRIPTION: usize = 1;

/// Register `f` as the built-in `name` of `N` integer arguments: argument
/// checks and error wrapping are the same for every database function.
fn register<const N: usize>(
    functions: &FunctionRegistry,
    name: &'static str,
    f: impl Fn([i64; N]) -> sase_db::Result<Value> + Send + Sync + 'static,
) {
    let fail = |message: String| SaseError::Function {
        name: name.to_string(),
        message,
    };
    functions.register_fn(name, Some(N), move |args| {
        let mut ints = [0; N];
        for (i, slot) in ints.iter_mut().enumerate() {
            *slot = args
                .get(i)
                .and_then(Value::as_int)
                .ok_or_else(|| fail(format!("argument {i} must be an integer")))?;
        }
        f(ints).map_err(|e| fail(e.to_string()))
    });
}

/// Create (if needed) and seed the `area_info` table with a description per
/// area. Existing descriptions are replaced.
pub fn seed_area_info(db: &Database, areas: &[(i64, &str)]) -> sase_db::Result<()> {
    db.ensure_table(
        AREA_INFO_TABLE,
        &[("area", ValueType::Int), ("description", ValueType::Str)],
        &["area"],
    )?;
    db.write(AREA_INFO_TABLE, |t| {
        for (area, desc) in areas {
            while let Some(&stale) = described(t, *area)?.first() {
                t.delete(stale);
            }
            t.insert(vec![Value::Int(*area), Value::str(*desc)])?;
        }
        Ok(())
    })
}

/// Ids of an area's description rows, through the `area` index.
fn described(t: &Table, area: i64) -> sase_db::Result<&[RowId]> {
    t.probe(AREA, &ValueKey::Int(area))
        .ok_or_else(|| DbError::Schema(format!("`{AREA_INFO_TABLE}` has no index on `area`")))
}

/// The retail demo's area descriptions (Figure 2), including the paper's
/// example phrase for the exit.
pub fn retail_area_descriptions() -> Vec<(i64, &'static str)> {
    vec![
        (1, "shelf 1 (grocery aisle)"),
        (2, "shelf 2 (household aisle)"),
        (3, "the check-out counter"),
        (4, "the leftmost door on the south side of the store"),
        (100, "the truck loading dock"),
        (101, "the unloading zone"),
        (102, "the warehouse backroom"),
    ]
}

/// Register every database built-in on a function registry:
///
/// | function | effect |
/// |---|---|
/// | `_retrieveLocation(area)` | textual description of an area (Q1) |
/// | `_updateLocation(tag, area, ts)` | Location Update rule (Q2) |
/// | `_addToContainer(item, container, ts)` | Containment Update rule |
/// | `_removeFromContainer(item, ts)` | Containment Update rule |
/// | `_currentLocation(item)` | current area of an item, `-1` if unknown |
/// | `_movementHistory(item)` | rendered §4 track-and-trace history |
pub fn register_db_builtins(functions: &FunctionRegistry, db: &Database) -> sase_db::Result<()> {
    let tnt = TrackAndTrace::open(db.clone())?;

    let db = db.clone();
    register(functions, "_retrieveLocation", move |[area]| {
        let known = db.read(AREA_INFO_TABLE, |t| {
            Ok(described(t, area)?
                .first()
                .map(|&rid| t.get(rid).expect("index is live")[DESCRIPTION].clone()))
        })?;
        Ok(known.unwrap_or_else(|| Value::str(format!("area {area}"))))
    });
    let t = tnt.clone();
    register(functions, "_updateLocation", move |[tag, area, ts]| {
        Ok(Value::Bool(t.locations().update_location(tag, area, ts)?))
    });
    let t = tnt.clone();
    register(functions, "_addToContainer", move |[item, container, ts]| {
        t.containments().add_to_container(item, container, ts)?;
        Ok(Value::Bool(true))
    });
    let t = tnt.clone();
    register(functions, "_removeFromContainer", move |[item, ts]| {
        Ok(Value::Bool(
            t.containments().remove_from_container(item, ts)?,
        ))
    });
    let t = tnt.clone();
    register(functions, "_currentLocation", move |[item]| {
        let stay = t.current_location(item)?;
        Ok(Value::Int(stay.map_or(-1, |s| s.area)))
    });
    register(functions, "_movementHistory", move |[item]| {
        Ok(Value::str(tnt.render_history(item)?))
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FunctionRegistry, Database) {
        let db = Database::new();
        let functions = FunctionRegistry::with_stdlib();
        seed_area_info(&db, &retail_area_descriptions()).unwrap();
        register_db_builtins(&functions, &db).unwrap();
        (functions, db)
    }

    #[test]
    fn retrieve_location_returns_paper_phrase() {
        let (f, _db) = setup();
        let v = f
            .resolve("_retrieveLocation")
            .unwrap()
            .call(&[Value::Int(4)])
            .unwrap();
        assert_eq!(
            v,
            Value::str("the leftmost door on the south side of the store")
        );
        // Unknown areas degrade gracefully.
        let v = f
            .resolve("_retrieveLocation")
            .unwrap()
            .call(&[Value::Int(77)])
            .unwrap();
        assert_eq!(v, Value::str("area 77"));
    }

    #[test]
    fn update_location_round_trip() {
        let (f, db) = setup();
        let upd = f.resolve("_updateLocation").unwrap();
        assert_eq!(
            upd.call(&[Value::Int(7), Value::Int(1), Value::Int(10)])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            upd.call(&[Value::Int(7), Value::Int(1), Value::Int(12)])
                .unwrap(),
            Value::Bool(false), // same area: no change
        );
        assert_eq!(
            upd.call(&[Value::Int(7), Value::Int(4), Value::Int(20)])
                .unwrap(),
            Value::Bool(true)
        );
        let cur = f.resolve("_currentLocation").unwrap();
        assert_eq!(cur.call(&[Value::Int(7)]).unwrap(), Value::Int(4));
        assert_eq!(cur.call(&[Value::Int(99)]).unwrap(), Value::Int(-1));
        let tnt = TrackAndTrace::open(db).unwrap();
        assert_eq!(tnt.locations().history(7).unwrap().len(), 2);
    }

    #[test]
    fn containment_functions() {
        let (f, _db) = setup();
        let add = f.resolve("_addToContainer").unwrap();
        let rm = f.resolve("_removeFromContainer").unwrap();
        add.call(&[Value::Int(1), Value::Int(1000), Value::Int(5)])
            .unwrap();
        assert_eq!(
            rm.call(&[Value::Int(1), Value::Int(9)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            rm.call(&[Value::Int(1), Value::Int(10)]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn movement_history_renders() {
        let (f, _db) = setup();
        f.resolve("_updateLocation")
            .unwrap()
            .call(&[Value::Int(3), Value::Int(100), Value::Int(2)])
            .unwrap();
        let v = f
            .resolve("_movementHistory")
            .unwrap()
            .call(&[Value::Int(3)])
            .unwrap();
        assert!(v.as_str().unwrap().contains("in area 100"));
    }

    #[test]
    fn bad_arguments_error() {
        let (f, _db) = setup();
        assert!(f
            .resolve("_retrieveLocation")
            .unwrap()
            .call(&[Value::str("x")])
            .is_err());
    }

    /// Descriptions are stored by value, so a quote in one needs no
    /// escaping on the way in and comes back as written.
    #[test]
    fn quoted_description_round_trips() {
        let (f, db) = setup();
        seed_area_info(&db, &[(9, "the manager's \"office\"")]).unwrap();
        let v = f
            .resolve("_retrieveLocation")
            .unwrap()
            .call(&[Value::Int(9)])
            .unwrap();
        assert_eq!(v, Value::str("the manager's \"office\""));
        let rs = db
            .query("SELECT description FROM area_info WHERE area = 9")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![v]]);
    }

    #[test]
    fn seeding_is_idempotent() {
        let (_f, db) = setup();
        seed_area_info(&db, &[(4, "new exit description")]).unwrap();
        let rs = db
            .query("SELECT description FROM area_info WHERE area = 4")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::str("new exit description"));
    }
}
