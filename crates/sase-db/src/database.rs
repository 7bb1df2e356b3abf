//! The event database: a thread-safe collection of tables with a SQL
//! executor.
//!
//! Replaces the paper's MySQL 5.0.22 instance. The complex event processor
//! reaches it through the built-in functions (`_retrieveLocation`,
//! `_updateLocation`, ...) registered by `sase-system`, which run on the
//! typed path ([`Database::read`] / [`Database::write`]: one lock
//! acquisition, a `&Table` or `&mut Table`, no SQL text); users reach the
//! same tables with ad-hoc SQL through [`Database::execute`].

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::RwLock;

use sase_core::hash::FxHashMap;
use sase_core::lang::ast::{AggFunc, BinOp, UnaryOp};
use sase_core::value::{Value, ValueKey, ValueType};

use crate::error::{DbError, Result};
use crate::sql::{parse_sql, SelectItem, SelectStmt, SqlExpr, Statement};
use crate::table::{Row, RowId, Table, TableSchema};

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows in output order.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Render as an aligned text table (for the UI's "Database Report"
    /// window).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for w in &widths {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// SELECT output.
    Rows(ResultSet),
    /// Row count affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// DDL acknowledged.
    Ok,
}

impl StatementResult {
    /// The result set, if this was a SELECT.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            StatementResult::Rows(rs) => Some(rs),
            _ => None,
        }
    }
}

/// The database: named tables behind a reader-writer lock.
///
/// Cloning the handle is cheap; all clones see the same data.
#[derive(Clone, Default)]
pub struct Database {
    inner: Arc<RwLock<FxHashMap<String, Table>>>,
}

/// The map key of a table name. Keys are lower case; a name already in
/// that form (every name the typed stores pass) is borrowed, not copied.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

fn unknown_table(name: &str) -> DbError {
    DbError::UnknownTable(name.to_string())
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on a table under the read lock, taken once for the call.
    pub fn read<R>(&self, table: &str, f: impl FnOnce(&Table) -> Result<R>) -> Result<R> {
        let inner = self.inner.read();
        f(inner
            .get(&*table_key(table))
            .ok_or_else(|| unknown_table(table))?)
    }

    /// Run `f` on a table under the write lock, taken once for the call:
    /// whatever `f` reads and then writes is one critical section.
    pub fn write<R>(&self, table: &str, f: impl FnOnce(&mut Table) -> Result<R>) -> Result<R> {
        let mut inner = self.inner.write();
        f(inner
            .get_mut(&*table_key(table))
            .ok_or_else(|| unknown_table(table))?)
    }

    /// Create a table programmatically.
    pub fn create_table(&self, name: &str, columns: &[(&str, ValueType)]) -> Result<()> {
        let schema = TableSchema::new(name, columns)?;
        let mut inner = self.inner.write();
        let key = table_key(name);
        if inner.contains_key(&*key) {
            return Err(DbError::Schema(format!("table `{name}` already exists")));
        }
        inner.insert(key.into_owned(), Table::new(schema));
        Ok(())
    }

    /// Create a table with indexes on `indexed` unless a table of that name
    /// exists, in which case only the indexes it lacks are added. One
    /// critical section, so concurrent callers agree on one table.
    pub fn ensure_table(
        &self,
        name: &str,
        columns: &[(&str, ValueType)],
        indexed: &[&str],
    ) -> Result<()> {
        let schema = TableSchema::new(name, columns)?;
        let mut inner = self.inner.write();
        let t = inner
            .entry(table_key(name).into_owned())
            .or_insert_with(|| Table::new(schema));
        indexed.iter().try_for_each(|column| t.create_index(column))
    }

    /// Create a secondary index programmatically.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        self.write(table, |t| t.create_index(column))
    }

    /// Insert a row programmatically.
    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        self.write(table, |t| t.insert(row).map(drop))
    }

    /// Number of live rows in a table.
    pub fn table_len(&self, table: &str) -> Result<usize> {
        self.read(table, |t| Ok(t.len()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        match parse_sql(sql)? {
            Statement::Select(sel) => {
                let rs = self.run_select(&sel)?;
                Ok(StatementResult::Rows(rs))
            }
            Statement::Insert { table, rows } => self.write(&table, |t| {
                for row_exprs in &rows {
                    let row: Row = row_exprs
                        .iter()
                        .map(|e| eval_expr(e, None, &[]))
                        .collect::<Result<_>>()?;
                    t.insert(row)?;
                }
                Ok(StatementResult::Affected(rows.len()))
            }),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.write(&table, |t| {
                let cols = OutCols::from_table(&table, t.schema());
                let set_positions: Vec<(usize, &SqlExpr)> = sets
                    .iter()
                    .map(|(col, e)| {
                        t.schema()
                            .column_index(col)
                            .map(|p| (p, e))
                            .ok_or_else(|| DbError::UnknownColumn(col.clone()))
                    })
                    .collect::<Result<_>>()?;
                let targets = matching_rids(t, &where_clause, &cols)?;
                for rid in &targets {
                    let row = t.get(*rid).expect("selected live");
                    let updates: Vec<(usize, Value)> = set_positions
                        .iter()
                        .map(|(p, e)| eval_expr(e, Some(&cols), row).map(|v| (*p, v)))
                        .collect::<Result<_>>()?;
                    t.update_row(*rid, &updates)?;
                }
                Ok(StatementResult::Affected(targets.len()))
            }),
            Statement::Delete {
                table,
                where_clause,
            } => self.write(&table, |t| {
                let cols = OutCols::from_table(&table, t.schema());
                let targets = matching_rids(t, &where_clause, &cols)?;
                for rid in &targets {
                    t.delete(*rid);
                }
                Ok(StatementResult::Affected(targets.len()))
            }),
            Statement::CreateTable { table, columns } => {
                let cols: Vec<(&str, ValueType)> =
                    columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                self.create_table(&table, &cols)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateIndex { table, column } => {
                self.create_index(&table, &column)?;
                Ok(StatementResult::Ok)
            }
        }
    }

    /// Execute a SELECT, returning its rows (convenience wrapper).
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)? {
            StatementResult::Rows(rs) => Ok(rs),
            _ => Err(DbError::Eval("statement was not a SELECT".into())),
        }
    }

    fn run_select(&self, sel: &SelectStmt) -> Result<ResultSet> {
        let inner = self.inner.read();
        let t = inner
            .get(&*table_key(&sel.table))
            .ok_or_else(|| unknown_table(&sel.table))?;
        let left_cols = OutCols::from_table(&sel.table, t.schema());

        // Candidate rows and their column layout: single-table (index probe
        // or scan) or an inner join (index nested-loop when the right ON
        // column is indexed).
        let joined = sel.join.is_some();
        let (cols, mut candidates) = match &sel.join {
            None => {
                let candidates = matching_rids(t, &sel.where_clause, &left_cols)?
                    .into_iter()
                    .map(|rid| t.get(rid).expect("selected live").clone())
                    .collect();
                (left_cols, candidates)
            }
            Some(join) => {
                if join.table.eq_ignore_ascii_case(&sel.table) {
                    return Err(DbError::Eval("self-joins are not supported".to_string()));
                }
                let rt = inner
                    .get(&*table_key(&join.table))
                    .ok_or_else(|| unknown_table(&join.table))?;
                let right_cols = OutCols::from_table(&join.table, rt.schema());
                // The ON condition names one column per side, in either
                // order.
                let (lcol, rcol) = match (
                    left_cols.resolve(&join.left_col),
                    right_cols.resolve(&join.right_col),
                ) {
                    (Ok(l), Ok(r)) => (l, r),
                    _ => {
                        let l = left_cols.resolve(&join.right_col)?;
                        let r = right_cols.resolve(&join.left_col)?;
                        (l, r)
                    }
                };
                let cols = left_cols.concat(right_cols);
                let mut candidates: Vec<Row> = Vec::new();
                for (_, lrow) in t.iter() {
                    let key = &lrow[lcol];
                    let probe = |rrow: &Row, candidates: &mut Vec<Row>| -> Result<()> {
                        let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
                        combined.extend(lrow.iter().cloned());
                        combined.extend(rrow.iter().cloned());
                        if matches_where(&sel.where_clause, &cols, &combined)? {
                            candidates.push(combined);
                        }
                        Ok(())
                    };
                    match rt.probe(rcol, &ValueKey::from_value(key)) {
                        Some(rids) => {
                            for rid in rids {
                                let rrow = rt.get(*rid).expect("index is live");
                                probe(rrow, &mut candidates)?;
                            }
                        }
                        None => {
                            for (_, rrow) in rt.iter() {
                                if rrow[rcol].sase_eq(key) {
                                    probe(rrow, &mut candidates)?;
                                }
                            }
                        }
                    }
                }
                (cols, candidates)
            }
        };

        // Grouping & projection. Plain selects sort *source* rows before
        // projection so ORDER BY may name non-projected columns (standard
        // SQL behaviour); grouped/aggregated selects sort output columns.
        let has_agg = sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }));
        let plain = sel.group_by.is_none() && !has_agg;
        if plain && !sel.order_by.is_empty() {
            let positions: Vec<(usize, bool)> = sel
                .order_by
                .iter()
                .map(|(col, asc)| cols.resolve(col).map(|p| (p, *asc)))
                .collect::<Result<_>>()?;
            sort_rows(&mut candidates, &positions);
        }
        let (columns, mut rows) = if let Some(group_col) = &sel.group_by {
            project_grouped(sel, &cols, group_col, candidates)?
        } else if has_agg {
            project_aggregate_all(sel, &cols, candidates)?
        } else {
            project_plain(sel, &cols, joined, candidates)?
        };
        if !plain && !sel.order_by.is_empty() {
            // Match output columns exactly, or by their unqualified suffix
            // (`name` finds `product.name`).
            let positions: Vec<(usize, bool)> = sel
                .order_by
                .iter()
                .map(|(col, asc)| {
                    columns
                        .iter()
                        .position(|c| {
                            c.eq_ignore_ascii_case(col)
                                || c.rsplit('.')
                                    .next()
                                    .map(|p| p.eq_ignore_ascii_case(col))
                                    .unwrap_or(false)
                        })
                        .map(|p| (p, *asc))
                        .ok_or_else(|| DbError::UnknownColumn(col.clone()))
                })
                .collect::<Result<_>>()?;
            sort_rows(&mut rows, &positions);
        }
        if let Some(limit) = sel.limit {
            rows.truncate(limit);
        }
        Ok(ResultSet { columns, rows })
    }
}

/// Column-name resolution over a (possibly joined) row: each position has a
/// qualified name (`table.col`) and a plain name (`col`). Qualified
/// references resolve exactly; plain references must be unambiguous.
#[derive(Debug, Clone)]
struct OutCols {
    cols: Vec<(String, String)>,
}

impl OutCols {
    fn from_table(table: &str, schema: &TableSchema) -> OutCols {
        OutCols {
            cols: schema
                .columns
                .iter()
                .map(|c| (format!("{table}.{}", c.name), c.name.to_string()))
                .collect(),
        }
    }

    fn concat(mut self, other: OutCols) -> OutCols {
        self.cols.extend(other.cols);
        self
    }

    fn resolve(&self, name: &str) -> Result<usize> {
        if name.contains('.') {
            return self
                .cols
                .iter()
                .position(|(q, _)| q.eq_ignore_ascii_case(name))
                .ok_or_else(|| DbError::UnknownColumn(name.to_string()));
        }
        let mut hits = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (_, p))| p.eq_ignore_ascii_case(name));
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(DbError::Eval(format!(
                "column `{name}` is ambiguous; qualify it as `table.{name}`"
            ))),
            (None, _) => Err(DbError::UnknownColumn(name.to_string())),
        }
    }

    /// Names used when expanding `*`: plain for a single table, qualified
    /// when a join made plain names ambiguous.
    fn star_names(&self, joined: bool) -> Vec<String> {
        self.cols
            .iter()
            .map(|(q, p)| if joined { q.clone() } else { p.clone() })
            .collect()
    }
}

/// Ids of the rows a WHERE clause selects. Candidates come from the same
/// [`Table::probe`] the typed stores use when a top-level `col = literal`
/// conjunct names an indexed column (index order), else from every live
/// row (table order); the whole clause is evaluated on each candidate.
fn matching_rids(t: &Table, where_clause: &Option<SqlExpr>, cols: &OutCols) -> Result<Vec<RowId>> {
    let probed = where_clause.as_ref().and_then(|w| {
        w.conjuncts().into_iter().find_map(|c| match c {
            SqlExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => match (&**left, &**right) {
                (SqlExpr::Column(col), SqlExpr::Literal(v))
                | (SqlExpr::Literal(v), SqlExpr::Column(col)) => {
                    let pos = t.schema().column_index(plain_column_for(t, col)?)?;
                    t.probe(pos, &ValueKey::from_value(v))
                }
                _ => None,
            },
            _ => None,
        })
    });
    let mut selected = Vec::new();
    let mut offer = |rid: RowId, row: &Row| -> Result<()> {
        if matches_where(where_clause, cols, row)? {
            selected.push(rid);
        }
        Ok(())
    };
    match probed {
        Some(rids) => rids
            .iter()
            .try_for_each(|rid| offer(*rid, t.get(*rid).expect("index is live")))?,
        None => t.iter().try_for_each(|(rid, row)| offer(rid, row))?,
    }
    Ok(selected)
}

/// Strip a `table.` qualifier when it names this table; `None` when the
/// qualifier names another table.
fn plain_column_for<'a>(t: &Table, col: &'a str) -> Option<&'a str> {
    match col.split_once('.') {
        None => Some(col),
        Some((table, plain)) if t.schema().name.eq_ignore_ascii_case(table) => Some(plain),
        Some(_) => None,
    }
}

fn sort_rows(rows: &mut [Row], positions: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for (p, asc) in positions {
            let o = a[*p].sase_cmp(&b[*p]).unwrap_or(std::cmp::Ordering::Equal);
            let o = if *asc { o } else { o.reverse() };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn matches_where(where_clause: &Option<SqlExpr>, cols: &OutCols, row: &[Value]) -> Result<bool> {
    match where_clause {
        None => Ok(true),
        Some(e) => match eval_expr(e, Some(cols), row)? {
            Value::Bool(b) => Ok(b),
            other => Err(DbError::Eval(format!(
                "WHERE evaluated to {other}, expected a boolean"
            ))),
        },
    }
}

/// Evaluate an expression over a row. `cols == None` (INSERT values)
/// rejects column references.
fn eval_expr(e: &SqlExpr, cols: Option<&OutCols>, row: &[Value]) -> Result<Value> {
    match e {
        SqlExpr::Literal(v) => Ok(v.clone()),
        SqlExpr::Column(name) => {
            let cols =
                cols.ok_or_else(|| DbError::Eval(format!("column `{name}` not allowed here")))?;
            let pos = cols.resolve(name)?;
            Ok(row[pos].clone())
        }
        SqlExpr::Unary { op, expr } => {
            let v = eval_expr(expr, cols, row)?;
            match op {
                UnaryOp::Not => v
                    .as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or_else(|| DbError::Eval("NOT expects a boolean".into())),
                UnaryOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    _ => Err(DbError::Eval("unary `-` expects a number".into())),
                },
            }
        }
        SqlExpr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    let l = eval_expr(left, cols, row)?;
                    if !l.is_true() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(eval_expr(right, cols, row)?.is_true()));
                }
                BinOp::Or => {
                    let l = eval_expr(left, cols, row)?;
                    if l.is_true() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(eval_expr(right, cols, row)?.is_true()));
                }
                _ => {}
            }
            let l = eval_expr(left, cols, row)?;
            let r = eval_expr(right, cols, row)?;
            let res = match op {
                BinOp::Eq => Value::Bool(l.sase_eq(&r)),
                BinOp::Ne => Value::Bool(!l.sase_eq(&r)),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let o = l.sase_cmp(&r);
                    let b = match (o, op) {
                        (None, _) => false,
                        (Some(o), BinOp::Lt) => o == std::cmp::Ordering::Less,
                        (Some(o), BinOp::Le) => o != std::cmp::Ordering::Greater,
                        (Some(o), BinOp::Gt) => o == std::cmp::Ordering::Greater,
                        (Some(o), BinOp::Ge) => o != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    Value::Bool(b)
                }
                BinOp::Add => l.add(&r).map_err(map_core)?,
                BinOp::Sub => l.sub(&r).map_err(map_core)?,
                BinOp::Mul => l.mul(&r).map_err(map_core)?,
                BinOp::Div => l.div(&r).map_err(map_core)?,
                BinOp::Rem => l.rem(&r).map_err(map_core)?,
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            };
            Ok(res)
        }
    }
}

fn map_core(e: sase_core::error::SaseError) -> DbError {
    DbError::Eval(e.to_string())
}

fn item_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Star => "*".to_string(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            SqlExpr::Column(c) => c.clone(),
            _ => format!("expr{idx}"),
        }),
        SelectItem::Aggregate {
            func,
            column,
            alias,
        } => alias
            .clone()
            .unwrap_or_else(|| format!("{}({})", func.as_str(), column.as_deref().unwrap_or("*"))),
    }
}

fn project_plain(
    sel: &SelectStmt,
    cols: &OutCols,
    joined: bool,
    candidates: Vec<Row>,
) -> Result<(Vec<String>, Vec<Row>)> {
    let mut columns = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star => columns.extend(cols.star_names(joined)),
            other => columns.push(item_name(other, i)),
        }
    }
    let mut rows = Vec::with_capacity(candidates.len());
    for row in candidates {
        let mut out = Vec::with_capacity(columns.len());
        for item in &sel.items {
            match item {
                SelectItem::Star => out.extend(row.iter().cloned()),
                SelectItem::Expr { expr, .. } => out.push(eval_expr(expr, Some(cols), &row)?),
                SelectItem::Aggregate { .. } => unreachable!("plain projection"),
            }
        }
        rows.push(out);
    }
    Ok((columns, rows))
}

fn aggregate_rows(
    func: AggFunc,
    column: Option<&str>,
    cols: &OutCols,
    rows: &[Row],
) -> Result<Value> {
    let values: Vec<Value> = match column {
        None => return Ok(Value::Int(rows.len() as i64)),
        Some(col) => {
            let pos = cols.resolve(col)?;
            rows.iter().map(|r| r[pos].clone()).collect()
        }
    };
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.add(v).map_err(map_core)?;
            }
            Ok(acc)
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Err(DbError::Eval("avg over zero rows".into()));
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v
                    .as_float()
                    .ok_or_else(|| DbError::Eval("avg over non-numeric".into()))?;
            }
            Ok(Value::Float(sum / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut iter = values.into_iter();
            let mut best = iter
                .next()
                .ok_or_else(|| DbError::Eval("min/max over zero rows".into()))?;
            for v in iter {
                let o = v
                    .sase_cmp(&best)
                    .ok_or_else(|| DbError::Eval("min/max over mixed types".into()))?;
                let take = if func == AggFunc::Min {
                    o == std::cmp::Ordering::Less
                } else {
                    o == std::cmp::Ordering::Greater
                };
                if take {
                    best = v;
                }
            }
            Ok(best)
        }
    }
}

fn project_aggregate_all(
    sel: &SelectStmt,
    cols: &OutCols,
    candidates: Vec<Row>,
) -> Result<(Vec<String>, Vec<Row>)> {
    let columns: Vec<String> = sel
        .items
        .iter()
        .enumerate()
        .map(|(i, it)| item_name(it, i))
        .collect();
    let mut out = Vec::with_capacity(sel.items.len());
    for item in &sel.items {
        match item {
            SelectItem::Aggregate { func, column, .. } => {
                out.push(aggregate_rows(*func, column.as_deref(), cols, &candidates)?)
            }
            SelectItem::Expr { .. } | SelectItem::Star => {
                return Err(DbError::Eval(
                    "mixing aggregates and plain columns requires GROUP BY".into(),
                ))
            }
        }
    }
    Ok((columns, vec![out]))
}

fn project_grouped(
    sel: &SelectStmt,
    cols: &OutCols,
    group_col: &str,
    candidates: Vec<Row>,
) -> Result<(Vec<String>, Vec<Row>)> {
    let gpos = cols.resolve(group_col)?;
    // Preserve first-seen group order for determinism.
    let mut order: Vec<ValueKey> = Vec::new();
    let mut groups: FxHashMap<ValueKey, Vec<Row>> = FxHashMap::default();
    for row in candidates {
        let key = ValueKey::from_value(&row[gpos]);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    let columns: Vec<String> = sel
        .items
        .iter()
        .enumerate()
        .map(|(i, it)| item_name(it, i))
        .collect();
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let group = &groups[&key];
        let mut out = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            match item {
                SelectItem::Aggregate { func, column, .. } => {
                    out.push(aggregate_rows(*func, column.as_deref(), cols, group)?)
                }
                SelectItem::Expr { expr, .. } => {
                    // Evaluated on the group's first row; sensible for the
                    // group column itself and constants.
                    out.push(eval_expr(expr, Some(cols), &group[0])?)
                }
                SelectItem::Star => {
                    return Err(DbError::Eval("SELECT * is invalid with GROUP BY".into()))
                }
            }
        }
        rows.push(out);
    }
    Ok((columns, rows))
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE item_location (item int, area int, time_in int, time_out int)")
            .unwrap();
        db.execute("CREATE INDEX ON item_location (item)").unwrap();
        db.execute(
            "INSERT INTO item_location VALUES \
             (1, 1, 0, 10), (1, 3, 10, 20), (1, 4, 20, -1), \
             (2, 1, 0, -1), (3, 2, 5, -1)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_order_limit() {
        let db = db();
        let rs = db
            .query("SELECT area, time_in FROM item_location WHERE item = 1 ORDER BY time_in DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.columns, vec!["area", "time_in"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert_eq!(rs.rows[1][0], Value::Int(3));
    }

    #[test]
    fn select_star() {
        let db = db();
        let rs = db.query("SELECT * FROM item_location").unwrap();
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn aggregates_whole_table() {
        let db = db();
        let rs = db
            .query("SELECT count(*), min(time_in), max(area) FROM item_location")
            .unwrap();
        assert_eq!(
            rs.rows[0],
            vec![Value::Int(5), Value::Int(0), Value::Int(4)]
        );
    }

    #[test]
    fn group_by() {
        let db = db();
        let rs = db
            .query("SELECT item, count(*) AS n FROM item_location GROUP BY item ORDER BY item")
            .unwrap();
        assert_eq!(rs.columns, vec!["item", "n"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn update_and_delete() {
        let db = db();
        let r = db
            .execute("UPDATE item_location SET time_out = 99 WHERE item = 2")
            .unwrap();
        assert_eq!(r, StatementResult::Affected(1));
        let rs = db
            .query("SELECT time_out FROM item_location WHERE item = 2")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(99));

        let r = db
            .execute("DELETE FROM item_location WHERE item = 1")
            .unwrap();
        assert_eq!(r, StatementResult::Affected(3));
        assert_eq!(db.table_len("item_location").unwrap(), 2);
    }

    #[test]
    fn update_expression_uses_current_row() {
        let db = db();
        db.execute("UPDATE item_location SET area = area + 10 WHERE item = 3")
            .unwrap();
        let rs = db
            .query("SELECT area FROM item_location WHERE item = 3")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(12));
    }

    #[test]
    fn index_path_equals_scan_path() {
        let db = db();
        // item is indexed; area is not. Same predicate both ways.
        let via_index = db
            .query("SELECT area FROM item_location WHERE item = 1 AND time_out = -1")
            .unwrap();
        let via_scan = db
            .query("SELECT area FROM item_location WHERE time_out = -1 AND item = 1")
            .unwrap();
        assert_eq!(via_index.rows, via_scan.rows);
        assert_eq!(via_index.rows.len(), 1);
    }

    #[test]
    fn errors() {
        let db = db();
        assert!(db.query("SELECT * FROM nope").is_err());
        assert!(db.query("SELECT nope FROM item_location").is_err());
        assert!(db
            .execute("INSERT INTO item_location VALUES (1, 2)")
            .is_err());
        assert!(db.execute("CREATE TABLE item_location (a int)").is_err());
        assert!(db
            .query("SELECT item, count(*) FROM item_location")
            .is_err()); // aggregate + column without GROUP BY
    }

    #[test]
    fn render_is_aligned() {
        let db = db();
        let rs = db
            .query("SELECT item, area FROM item_location WHERE item = 1 ORDER BY time_in LIMIT 1")
            .unwrap();
        let text = rs.render();
        assert!(text.contains("item"));
        assert!(text.contains("----"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn insert_rejects_column_refs() {
        let db = db();
        assert!(db
            .execute("INSERT INTO item_location VALUES (item, 1, 2, 3)")
            .is_err());
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE item_location (item int, area int, time_in int, time_out int)")
            .unwrap();
        db.execute("CREATE INDEX ON item_location (item)").unwrap();
        db.execute("CREATE TABLE product (item int, name string, price_cents int)")
            .unwrap();
        db.execute("CREATE INDEX ON product (item)").unwrap();
        db.execute(
            "INSERT INTO item_location VALUES \
             (1, 1, 0, 10), (1, 4, 10, -1), (2, 2, 0, -1), (3, 1, 5, -1)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO product VALUES (1, 'soap', 299), (2, 'milk', 199), (3, 'bread', 349)",
        )
        .unwrap();
        db
    }

    #[test]
    fn join_with_qualified_projection() {
        let db = db();
        let rs = db
            .query(
                "SELECT product.name, item_location.area FROM item_location \
                 JOIN product ON item_location.item = product.item \
                 WHERE item_location.time_out = -1 ORDER BY product.name",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["product.name", "item_location.area"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::str("bread"), Value::Int(1)],
                vec![Value::str("milk"), Value::Int(2)],
                vec![Value::str("soap"), Value::Int(4)],
            ]
        );
    }

    #[test]
    fn join_star_uses_qualified_names() {
        let db = db();
        let rs = db
            .query(
                "SELECT * FROM item_location JOIN product \
                 ON item_location.item = product.item LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.columns.len(), 7);
        assert!(rs.columns.iter().all(|c| c.contains('.')));
        assert!(rs.columns.contains(&"product.name".to_string()));
    }

    #[test]
    fn join_unambiguous_plain_names_resolve() {
        let db = db();
        // `name`, `area`, `price_cents` each live in exactly one table.
        let rs = db
            .query(
                "SELECT name, area FROM item_location \
                 JOIN product ON item_location.item = product.item \
                 WHERE price_cents > 200 AND time_out = -1 ORDER BY name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2); // soap (299) and bread (349)
    }

    #[test]
    fn ambiguous_plain_name_rejected() {
        let db = db();
        let err = db
            .query(
                "SELECT item FROM item_location \
                 JOIN product ON item_location.item = product.item",
            )
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn join_on_sides_in_either_order() {
        let db = db();
        let a = db
            .query(
                "SELECT count(*) FROM item_location \
                 JOIN product ON item_location.item = product.item",
            )
            .unwrap();
        let b = db
            .query(
                "SELECT count(*) FROM item_location \
                 JOIN product ON product.item = item_location.item",
            )
            .unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows[0][0], Value::Int(4));
    }

    #[test]
    fn join_group_by_and_aggregates() {
        let db = db();
        let rs = db
            .query(
                "SELECT product.name, count(*) AS stays FROM item_location \
                 JOIN product ON item_location.item = product.item \
                 GROUP BY product.name ORDER BY stays DESC, name LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows[0], vec![Value::str("soap"), Value::Int(2)]);
    }

    #[test]
    fn join_without_index_scans() {
        let db = db();
        // Join on a non-indexed column pair still works (scan path).
        let rs = db
            .query(
                "SELECT count(*) FROM item_location \
                 JOIN product ON item_location.area = product.item",
            )
            .unwrap();
        // areas 1,4,2,1 match product items 1,2 -> rows with area in {1,2}:
        // (1,1,0,10), (2,2,0,-1), (3,1,5,-1) = 3 matches.
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn self_join_rejected_and_unknown_join_table() {
        let db = db();
        assert!(db
            .query("SELECT * FROM product JOIN product ON product.item = product.item")
            .is_err());
        assert!(db
            .query("SELECT * FROM product JOIN nope ON product.item = nope.item")
            .is_err());
    }

    #[test]
    fn qualified_columns_work_single_table_too() {
        let db = db();
        let rs = db
            .query(
                "SELECT item_location.area FROM item_location \
                 WHERE item_location.item = 1 AND item_location.time_out = -1",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(4)]]);
    }
}
