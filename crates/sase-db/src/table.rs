//! Tables: typed columns, rows, and secondary indexes.

use std::sync::Arc;

use sase_core::hash::FxHashMap;
use sase_core::value::{Value, ValueKey, ValueType};

use crate::error::{DbError, Result};

/// A column declaration.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (matched case-insensitively).
    pub name: Arc<str>,
    /// Declared type.
    pub ty: ValueType,
}

/// A table's schema.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name.
    pub name: Arc<str>,
    /// Ordered columns.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Build a schema, rejecting case-insensitive duplicate columns.
    pub fn new(name: &str, columns: &[(&str, ValueType)]) -> Result<TableSchema> {
        let mut seen: Vec<String> = Vec::new();
        let mut cols = Vec::with_capacity(columns.len());
        for (n, ty) in columns {
            let lc = n.to_ascii_lowercase();
            if seen.contains(&lc) {
                return Err(DbError::Schema(format!(
                    "duplicate column `{n}` in table `{name}`"
                )));
            }
            seen.push(lc);
            cols.push(Column {
                name: Arc::from(*n),
                ty: *ty,
            });
        }
        Ok(TableSchema {
            name: Arc::from(name),
            columns: cols,
        })
    }

    /// Position of a column (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A row of values, in column order.
pub type Row = Vec<Value>;

/// Internal row id.
pub type RowId = usize;

/// An in-memory table with optional secondary indexes.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    /// column position -> (value key -> live row ids, in the order they
    /// took that key). Deletes and key changes remove a row's entry, so an
    /// entry never names a dead row.
    indexes: FxHashMap<usize, FxHashMap<ValueKey, Vec<RowId>>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            live: 0,
            indexes: FxHashMap::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Create a secondary index on a column, unless it has one. Existing
    /// rows are indexed.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let pos = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(column.to_string()))?;
        if self.indexes.contains_key(&pos) {
            return Ok(());
        }
        let mut map: FxHashMap<ValueKey, Vec<RowId>> = FxHashMap::default();
        for (rid, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                map.entry(ValueKey::from_value(&row[pos]))
                    .or_default()
                    .push(rid);
            }
        }
        self.indexes.insert(pos, map);
        Ok(())
    }

    /// Validate one cell against its column (with int→float widening).
    fn check_cell(&self, pos: usize, v: &Value) -> Result<()> {
        let col = &self.schema.columns[pos];
        if v.value_type() == col.ty
            || (col.ty == ValueType::Float && v.value_type() == ValueType::Int)
        {
            return Ok(());
        }
        Err(DbError::Type(format!(
            "column `{}` of `{}` expects {}, got {}",
            col.name,
            self.schema.name,
            col.ty,
            v.value_type()
        )))
    }

    /// Validate a row against the schema.
    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(DbError::Type(format!(
                "table `{}` expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        row.iter()
            .enumerate()
            .try_for_each(|(pos, v)| self.check_cell(pos, v))
    }

    /// Insert a row; returns its row id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.check_row(&row)?;
        let rid = self.rows.len();
        for (pos, index) in &mut self.indexes {
            index
                .entry(ValueKey::from_value(&row[*pos]))
                .or_default()
                .push(rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// The row with an id, if live.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid).and_then(|r| r.as_ref())
    }

    /// Iterate live rows with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(rid, r)| r.as_ref().map(|row| (rid, row)))
    }

    /// Ids of the live rows whose column `pos` equals `key`, borrowed from
    /// the index in the order the rows took that key (oldest first); `None`
    /// when the column is not indexed (caller falls back to a scan).
    pub fn probe(&self, pos: usize, key: &ValueKey) -> Option<&[RowId]> {
        let index = self.indexes.get(&pos)?;
        Some(index.get(key).map_or(&[], Vec::as_slice))
    }

    /// Overwrite columns of a row in place.
    pub fn update_row(&mut self, rid: RowId, updates: &[(usize, Value)]) -> Result<()> {
        // Validate first, then apply, so a failed update changes nothing.
        if self.get(rid).is_none() {
            return Err(DbError::Eval(format!("row {rid} does not exist")));
        }
        for (pos, v) in updates {
            self.check_cell(*pos, v)?;
        }
        for (pos, v) in updates {
            if let Some(index) = self.indexes.get_mut(pos) {
                let old = &self.rows[rid].as_ref().expect("checked live")[*pos];
                let old_key = ValueKey::from_value(old);
                if let Some(ids) = index.get_mut(&old_key) {
                    ids.retain(|r| *r != rid);
                    if ids.is_empty() {
                        index.remove(&old_key);
                    }
                }
                index.entry(ValueKey::from_value(v)).or_default().push(rid);
            }
            self.rows[rid].as_mut().expect("checked live")[*pos] = v.clone();
        }
        Ok(())
    }

    /// Delete a row. Returns true if it was live.
    pub fn delete(&mut self, rid: RowId) -> bool {
        match self.rows.get_mut(rid) {
            Some(slot @ Some(_)) => {
                let row = slot.take().expect("matched Some");
                for (pos, index) in &mut self.indexes {
                    let key = ValueKey::from_value(&row[*pos]);
                    if let Some(ids) = index.get_mut(&key) {
                        ids.retain(|r| *r != rid);
                        if ids.is_empty() {
                            index.remove(&key);
                        }
                    }
                }
                self.live -= 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "item_location",
            &[
                ("item", ValueType::Int),
                ("area", ValueType::Int),
                ("time_in", ValueType::Int),
                ("time_out", ValueType::Int),
            ],
        )
        .unwrap()
    }

    fn row(item: i64, area: i64, tin: i64, tout: i64) -> Row {
        vec![
            Value::Int(item),
            Value::Int(area),
            Value::Int(tin),
            Value::Int(tout),
        ]
    }

    #[test]
    fn insert_get_len() {
        let mut t = Table::new(schema());
        let r0 = t.insert(row(1, 2, 0, -1)).unwrap();
        let r1 = t.insert(row(2, 3, 5, -1)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r0).unwrap()[0], Value::Int(1));
        assert_eq!(t.get(r1).unwrap()[1], Value::Int(3));
    }

    #[test]
    fn schema_validation() {
        let mut t = Table::new(schema());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![
                Value::str("x"),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1)
            ])
            .is_err());
        assert!(TableSchema::new("t", &[("a", ValueType::Int), ("A", ValueType::Int)]).is_err());
    }

    fn probe(t: &Table, pos: usize, v: i64) -> Option<&[RowId]> {
        t.probe(pos, &ValueKey::Int(v))
    }

    #[test]
    fn probe_and_index_maintenance() {
        let mut t = Table::new(schema());
        t.create_index("item").unwrap();
        let r0 = t.insert(row(1, 2, 0, -1)).unwrap();
        let r1 = t.insert(row(1, 3, 5, -1)).unwrap();
        t.insert(row(2, 4, 6, -1)).unwrap();
        assert_eq!(probe(&t, 0, 1).unwrap(), [r0, r1]);
        assert!(probe(&t, 1, 2).is_none()); // no index

        // Update moves index entries.
        t.update_row(r0, &[(0, Value::Int(9))]).unwrap();
        assert_eq!(probe(&t, 0, 1).unwrap(), [r1]);
        assert_eq!(probe(&t, 0, 9).unwrap(), [r0]);

        // Delete removes them.
        assert!(t.delete(r1));
        assert!(probe(&t, 0, 1).unwrap().is_empty());
        assert!(!t.delete(r1)); // double delete is a no-op
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn index_created_after_rows_covers_them() {
        let mut t = Table::new(schema());
        let r0 = t.insert(row(5, 1, 0, -1)).unwrap();
        t.create_index("item").unwrap();
        assert_eq!(probe(&t, 0, 5).unwrap(), [r0]);
    }

    #[test]
    fn failed_update_changes_nothing() {
        let mut t = Table::new(schema());
        let r0 = t.insert(row(1, 2, 0, -1)).unwrap();
        let err = t.update_row(r0, &[(0, Value::str("bad"))]);
        assert!(err.is_err());
        assert_eq!(t.get(r0).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn iter_skips_deleted() {
        let mut t = Table::new(schema());
        let r0 = t.insert(row(1, 2, 0, -1)).unwrap();
        t.insert(row(2, 2, 0, -1)).unwrap();
        t.delete(r0);
        let items: Vec<i64> = t.iter().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(items, vec![2]);
    }
}
