//! Incremental view maintenance (IVM) over append-only catalogues.
//!
//! When a catalogue version is produced by [`pi2_data::Catalog::append_rows`],
//! a cached query result can often be brought up to date by running only
//! the appended rows, instead of rescanning the whole table. IVM does that
//! with the vectorized executor's own steps — there is no second
//! aggregate engine here — for the two shapes that dominate generated
//! interfaces:
//!
//! - **Aggregates** (`GROUP BY` + `count/sum/count(*)/avg/min/max`, with
//!   `WHERE`/`HAVING`/`ORDER BY`/`LIMIT`/`DISTINCT`). An absorb scans just
//!   the delta through the executor's WHERE, grouping and dense argument
//!   evaluation, then folds each delta group's rows onto that group's
//!   running accumulators in row order. The accumulator is the one behind
//!   the executor's own generic aggregate fold, so float sums stay
//!   bit-identical to one fold over the appended table (merging partial
//!   sums would not be). Finalizing runs the executor's aggregate lane —
//!   HAVING, SELECT, ORDER BY, DISTINCT, LIMIT and the output schema —
//!   over one representative row per group, whose aggregate calls read the
//!   running values from columns the relation carries beside it.
//! - **Projections** (`SELECT …  WHERE …` with no `DISTINCT`/`ORDER BY`/
//!   `LIMIT`): the filter is row-local, so the executor's projection of the
//!   delta appends to the cached output (zero-copy, via
//!   [`Table::append_table`]).
//!
//! Everything else — joins, subqueries, `DISTINCT` projections — reports
//! unsupported and the caller falls back to full re-execution.
//!
//! **The contract is identity with full execution**: for a supported query,
//! `build` + any sequence of `absorb`s + `finalize` produces the table
//! [`execute_scalar`](crate::execute_scalar) (the row interpreter) produces
//! over the fully appended catalogue — same schema, rows, order and cell
//! values — in the wire bytes [`execute`](crate::execute) produces. The
//! `pin_ivm` cases below, the IVM tests of the interface crate's result
//! cache, and the IVM proptest and log sweep in
//! `crates/workloads/tests/proptest_live.rs` pin this. Anything that errs
//! mid-absorb simply falls back, so an IVM bug can degrade performance but
//! never results.

use crate::analyze::analyze_query_cached;
use crate::error::EngineError;
use crate::exec::{
    apply_filters, build_groups, exec_aggregate, exec_projection, scan_rel, ExecContext,
};
use crate::vector::{eval_vec, Acc, LazyCol, VecRelation, MAINTAINED};
use pi2_data::column::ColumnData;
use pi2_data::{DataType, Table, Value};
use pi2_sql::ast::{is_aggregate_function, Expr, Query, SelectItem, TableRef};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Every base table the query reads, lowercased — including tables named
/// inside subqueries at any depth. A cached result for `query` stays valid
/// across an append exactly when the appended table is not in this set.
pub fn referenced_tables(query: &Query) -> BTreeSet<String> {
    fn walk_query(q: &Query, out: &mut BTreeSet<String>) {
        for tref in &q.from {
            match tref {
                TableRef::Table { name, .. } => {
                    out.insert(name.to_ascii_lowercase());
                }
                TableRef::Subquery { query, .. } => walk_query(query, out),
            }
        }
        let exprs = q
            .select
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Star => None,
            })
            .chain(q.where_clause.iter())
            .chain(q.group_by.iter())
            .chain(q.having.iter())
            .chain(q.order_by.iter().map(|o| &o.expr));
        for e in exprs {
            walk_expr(e, out);
        }
    }
    fn walk_expr(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk_expr(expr, out),
            Expr::Binary { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk_expr(expr, out);
                walk_expr(low, out);
                walk_expr(high, out);
            }
            Expr::InList { expr, list, .. } => {
                walk_expr(expr, out);
                list.iter().for_each(|e| walk_expr(e, out));
            }
            Expr::Func { args, .. } => args.iter().for_each(|e| walk_expr(e, out)),
            Expr::InSubquery { expr, query, .. } => {
                walk_expr(expr, out);
                walk_query(query, out);
            }
            Expr::ScalarSubquery(q) => walk_query(q, out),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star => {}
        }
    }
    let mut out = BTreeSet::new();
    walk_query(query, &mut out);
    out
}

fn expr_has_subquery(e: &Expr) -> bool {
    match e {
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => true,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_has_subquery(expr),
        Expr::Binary { left, right, .. } => expr_has_subquery(left) || expr_has_subquery(right),
        Expr::Between {
            expr, low, high, ..
        } => expr_has_subquery(expr) || expr_has_subquery(low) || expr_has_subquery(high),
        Expr::InList { expr, list, .. } => {
            expr_has_subquery(expr) || list.iter().any(expr_has_subquery)
        }
        Expr::Func { args, .. } => args.iter().any(expr_has_subquery),
        Expr::Column { .. } | Expr::Literal(_) | Expr::Star => false,
    }
}

/// The single base table an IVM-shaped query scans (lowercased), or `None`
/// when the query's *structure* rules IVM out: multi-table FROM, subqueries
/// anywhere, or (for non-aggregates) `DISTINCT`/`ORDER BY`/`LIMIT`, none of
/// which distribute over appends row-locally.
pub fn ivm_table(query: &Query) -> Option<String> {
    let [TableRef::Table { name, .. }] = query.from.as_slice() else {
        return None;
    };
    let exprs = query
        .select
        .iter()
        .filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Star => None,
        })
        .chain(query.where_clause.iter())
        .chain(query.group_by.iter())
        .chain(query.having.iter())
        .chain(query.order_by.iter().map(|o| &o.expr));
    for e in exprs {
        if expr_has_subquery(e) {
            return None;
        }
    }
    if query.is_aggregate() {
        // `SELECT *` under GROUP BY is an executor error; leave it to the
        // full path so both paths fail identically.
        if query.select.iter().any(|i| matches!(i, SelectItem::Star)) {
            return None;
        }
    } else if query.distinct || !query.order_by.is_empty() || query.limit.is_some() {
        return None;
    }
    Some(name.to_ascii_lowercase())
}

/// Whether IVM can maintain `query` against `catalog`: the shape qualifies
/// ([`ivm_table`]) *and* static analysis succeeds, which guarantees a stable
/// output schema across appends (appends never change column types).
pub fn supported(query: &Query, catalog: &pi2_data::Catalog) -> bool {
    ivm_table(query).is_some() && analyze_query_cached(query, catalog).is_ok()
}

/// One maintained aggregate call: its SQL text (the key of its maintained
/// column), function name and arguments.
struct MaintainedCall<'q> {
    key: String,
    name: &'q str,
    args: &'q [Expr],
}

/// The aggregate calls IVM maintains: every call in a position where
/// [`eval_grouped_vec`](crate::vector::eval_grouped_vec) aggregates —
/// reached through unary/binary/BETWEEN operators and non-aggregate
/// function arguments from the select list, HAVING and ORDER BY — once per
/// distinct SQL text, which is the key its maintained column is read back
/// by. Calls under any other node are evaluated against the
/// representative row and fail exactly as in full execution.
fn maintained_calls(query: &Query) -> Vec<MaintainedCall<'_>> {
    fn walk<'q>(e: &'q Expr, out: &mut Vec<MaintainedCall<'q>>) {
        match e {
            Expr::Func { name, args } if is_aggregate_function(name) => {
                let key = e.to_string();
                if out.iter().all(|c| c.key != key) {
                    out.push(MaintainedCall { key, name, args });
                }
            }
            Expr::Unary { expr, .. } => walk(expr, out),
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, out);
                walk(low, out);
                walk(high, out);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| walk(a, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    let exprs = query
        .select
        .iter()
        .filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Star => None,
        })
        .chain(query.having.iter())
        .chain(query.order_by.iter().map(|o| &o.expr));
    for e in exprs {
        walk(e, &mut out);
    }
    out
}

/// The query's single scanned table and the binding its columns go by
/// (alias, else table name — as `execute` binds them).
fn scanned(query: &Query) -> Result<(&str, &str), EngineError> {
    match query.from.as_slice() {
        [TableRef::Table { name, alias }] => Ok((name, alias.as_deref().unwrap_or(name))),
        _ => Err(EngineError::Unsupported("IVM needs a single table".into())),
    }
}

/// `execute`'s first two steps over `rows` alone: scan them as the
/// query's FROM table and apply its WHERE clause.
fn scan_where(
    query: &Query,
    rows: &Table,
    ctx: &ExecContext<'_>,
) -> Result<VecRelation, EngineError> {
    let (_, binding) = scanned(query)?;
    apply_filters(
        scan_rel(binding, rows),
        query.where_clause.as_ref().as_slice(),
        ctx,
        None,
    )
}

/// Maintained state for an aggregate-shaped query: per group, in
/// first-encounter order, its representative row (its first row, as the
/// executor picks it) and one running accumulator per maintained
/// aggregate call.
#[derive(Debug, Clone, Default)]
pub struct AggState {
    index: HashMap<Vec<Value>, usize>,
    reprs: Vec<Vec<Value>>,
    accs: Vec<Vec<Acc>>,
}

impl AggState {
    /// Fold `rows` in: the executor's own WHERE, grouping and dense
    /// argument evaluation over just these rows, then each group's rows
    /// fold onto its accumulators in row order (a new key opens a group).
    fn absorb(
        &mut self,
        query: &Query,
        rows: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        let rel = scan_where(query, rows, ctx)?;
        if rel.len == 0 {
            return Ok(());
        }
        let (groups, _) = build_groups(query, &rel, ctx, None)?;
        let keys: Vec<Arc<ColumnData>> = query
            .group_by
            .iter()
            .map(|g| Ok(eval_vec(g, &rel, ctx, None)?.into_column(rel.len)))
            .collect::<Result<_, EngineError>>()?;
        let calls = maintained_calls(query);
        let mut fresh = Vec::with_capacity(calls.len());
        let mut args: Vec<Option<Arc<ColumnData>>> = Vec::with_capacity(calls.len());
        for call in &calls {
            let lname = call.name.to_ascii_lowercase();
            fresh.push(Acc::new(&lname, call.name)?);
            args.push(match call.args.first() {
                Some(Expr::Star) | None if lname == "count" => None,
                Some(arg) => Some(eval_vec(arg, &rel, ctx, None)?.into_column(rel.len)),
                None => {
                    return Err(EngineError::BadFunction(format!(
                        "{} needs an argument",
                        call.name
                    )))
                }
            });
        }
        for idx in &groups {
            let first = idx[0] as usize;
            let key: Vec<Value> = keys.iter().map(|k| k.value(first)).collect();
            let g = *self.index.entry(key).or_insert_with(|| {
                self.reprs.push(rel.row(first));
                self.accs.push(fresh.clone());
                self.reprs.len() - 1
            });
            for (acc, arg) in self.accs[g].iter_mut().zip(&args) {
                acc.fold(arg.as_deref(), idx);
            }
        }
        Ok(())
    }

    /// The result: `execute`'s aggregate lane (grouping, HAVING, SELECT,
    /// ORDER BY, DISTINCT, LIMIT, output schema) over a relation of one
    /// representative row per group, plus one column per maintained call
    /// holding its running values, which the lane's aggregate node reads
    /// in place of aggregating (see [`VecRelation::maintained`]). With no
    /// groups yet, the lane runs over an empty scan instead, exactly as
    /// full execution over zero qualifying rows does.
    fn finalize(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
        let (name, binding) = scanned(query)?;
        let schema = &ctx.catalog.require_table(name)?.table.schema;
        let mut rel = scan_rel(binding, &Table::new(schema.clone()));
        if !self.reprs.is_empty() {
            let mut cols = (*rel.cols).clone();
            let mut types = (*rel.types).clone();
            let mut columns = Vec::new();
            for (i, c) in schema.columns.iter().enumerate() {
                let vals = self.reprs.iter().map(|r| r[i].clone()).collect();
                columns.push(ColumnData::from_values(vals, Some(c.dtype)));
            }
            for (k, call) in maintained_calls(query).into_iter().enumerate() {
                let vals = self.accs.iter().map(|a| a[k].value()).collect();
                let col = ColumnData::from_values(vals, None);
                cols.push((MAINTAINED.to_string(), call.key));
                types.push(col.dtype().unwrap_or(DataType::Str));
                columns.push(col);
            }
            rel = VecRelation {
                cols: Arc::new(cols),
                types: Arc::new(types),
                columns: columns
                    .into_iter()
                    .map(|c| LazyCol::dense(Arc::new(c)))
                    .collect(),
                len: self.reprs.len(),
            };
        }
        exec_aggregate(query, &rel, ctx, None)
    }
}

/// Maintained state for a projection-shaped query: the output so far. The
/// filter/projection is row-local, so the delta's output simply appends —
/// and the append is zero-copy chunk sharing, not a rebuild.
#[derive(Debug, Clone)]
pub struct ProjState {
    table: Table,
}

/// `execute`'s projection over `rows` alone (see [`scan_where`]).
fn project(query: &Query, rows: &Table, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
    exec_projection(query, &scan_where(query, rows, ctx)?, ctx, None)
}

/// Maintained state for one supported query: build once, absorb each
/// append's delta rows, finalize to the full result.
#[derive(Debug, Clone)]
pub enum IvmState {
    /// Aggregate shape (per-group accumulators).
    Aggregate(AggState),
    /// Projection shape (append-only output).
    Projection(ProjState),
}

impl IvmState {
    /// Build the state from the catalogue's current table contents — the
    /// same absorb as an append's, over the whole table. The query must
    /// satisfy [`supported`].
    pub fn build(query: &Query, ctx: &ExecContext<'_>) -> Result<IvmState, EngineError> {
        let (name, _) = scanned(query)?;
        let table = &ctx.catalog.require_table(name)?.table;
        if query.is_aggregate() {
            let mut state = AggState::default();
            state.absorb(query, table, ctx)?;
            Ok(IvmState::Aggregate(state))
        } else {
            Ok(IvmState::Projection(ProjState {
                table: project(query, table, ctx)?,
            }))
        }
    }

    /// Fold one append's rows (of table `name`, the query's own, already
    /// lowercased) into the state. `ctx.catalog` must be the *post-append*
    /// catalogue. On error the state may be partially updated — clone
    /// before absorbing and discard the clone to fall back.
    pub fn absorb(
        &mut self,
        query: &Query,
        name: &str,
        rows: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        debug_assert_eq!(ivm_table(query).as_deref(), Some(name));
        match self {
            IvmState::Aggregate(state) => state.absorb(query, rows, ctx),
            IvmState::Projection(state) => {
                let out = project(query, rows, ctx)?;
                state.table = state.table.append_table(&out, pi2_data::chunk_rows())?;
                Ok(())
            }
        }
    }

    /// Materialize the maintained result (byte-identical to full execution
    /// over `ctx.catalog`).
    pub fn finalize(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
        match self {
            IvmState::Aggregate(state) => state.finalize(query, ctx),
            IvmState::Projection(state) => Ok(state.table.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_scalar;
    use pi2_data::wire::table_to_json;
    use pi2_data::{Catalog, Value};
    use pi2_sql::parse_query;

    fn base_catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("id", DataType::Int),
                ("region", DataType::Str),
                ("amount", DataType::Float),
                ("qty", DataType::Int),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::Str("east".into()),
                    Value::Float(10.5),
                    Value::Int(3),
                ],
                vec![
                    Value::Int(2),
                    Value::Str("west".into()),
                    Value::Float(20.0),
                    Value::Null,
                ],
                vec![
                    Value::Int(3),
                    Value::Str("east".into()),
                    Value::Null,
                    Value::Int(7),
                ],
            ],
        )
        .unwrap();
        c.add_table("sales", t, vec!["id"]);
        c
    }

    fn delta_rows(rows: Vec<Vec<Value>>) -> Table {
        Table::from_rows(
            vec![
                ("id", DataType::Int),
                ("region", DataType::Str),
                ("amount", DataType::Float),
                ("qty", DataType::Int),
            ],
            rows,
        )
        .unwrap()
    }

    /// Build on the base, absorb two appends, and pin the finalized result
    /// byte-identical to full scalar execution over the appended catalogue.
    fn pin_ivm(sql: &str) {
        let c0 = base_catalog();
        let query = parse_query(sql).unwrap();
        assert!(supported(&query, &c0), "query must be IVM-supported: {sql}");
        let ctx0 = ExecContext::new(&c0);
        let mut state = IvmState::build(&query, &ctx0).unwrap();
        let d1 = delta_rows(vec![
            vec![
                Value::Int(4),
                Value::Str("north".into()),
                Value::Float(5.0),
                Value::Int(1),
            ],
            vec![
                Value::Int(5),
                Value::Str("east".into()),
                Value::Float(2.5),
                Value::Int(2),
            ],
        ]);
        let c1 = c0.append_rows("sales", d1.clone()).unwrap();
        let ctx1 = ExecContext::new(&c1);
        state.absorb(&query, "sales", &d1, &ctx1).unwrap();
        let d2 = delta_rows(vec![vec![
            Value::Int(6),
            Value::Str("west".into()),
            Value::Null,
            Value::Int(9),
        ]]);
        let c2 = c1.append_rows("sales", d2.clone()).unwrap();
        let ctx2 = ExecContext::new(&c2);
        state.absorb(&query, "sales", &d2, &ctx2).unwrap();
        let ivm = state.finalize(&query, &ctx2).unwrap();
        let full = execute_scalar(&query, &ctx2).unwrap();
        assert_eq!(
            table_to_json(&ivm),
            table_to_json(&full),
            "IVM diverged from full execution for: {sql}"
        );
    }

    #[test]
    fn grouped_aggregates_match_full_execution() {
        pin_ivm("SELECT region, count(*), sum(amount), avg(amount), min(qty), max(qty) FROM sales GROUP BY region");
    }

    #[test]
    fn where_having_order_limit_match() {
        pin_ivm(
            "SELECT region, sum(amount) AS total FROM sales WHERE qty IS NOT NULL \
             GROUP BY region HAVING count(*) >= 1 ORDER BY sum(amount) DESC LIMIT 2",
        );
    }

    #[test]
    fn implicit_single_group_matches() {
        pin_ivm("SELECT count(*), avg(qty) FROM sales WHERE amount > 100.0");
    }

    #[test]
    fn expression_over_aggregates_matches() {
        pin_ivm("SELECT region, sum(amount) / count(*) FROM sales GROUP BY region");
    }

    /// Aggregates on both sides of AND/OR (and under NOT), in HAVING and
    /// SELECT: the left side short-circuits for some groups and not for
    /// others, and every group's right-side aggregates must still be its
    /// own.
    #[test]
    fn logical_operators_over_aggregates_match() {
        pin_ivm(
            "SELECT region, count(*) > 2 AND sum(amount) > 10.0, \
             min(qty) < 2 OR max(qty) > 8 FROM sales GROUP BY region \
             HAVING count(*) > 2 OR max(qty) > 8",
        );
        pin_ivm(
            "SELECT region, sum(qty) FROM sales GROUP BY region \
             HAVING count(*) >= 2 AND NOT (min(qty) > 3 OR sum(amount) < 1.0)",
        );
        pin_ivm(
            "SELECT count(*) > 100 AND avg(amount) > 0.0, \
             NOT (count(*) > 1) OR max(id) > 5 FROM sales",
        );
    }

    #[test]
    fn projection_shape_matches() {
        pin_ivm("SELECT id, amount FROM sales WHERE region = 'east'");
    }

    #[test]
    fn star_projection_matches() {
        pin_ivm("SELECT * FROM sales WHERE qty > 1");
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let c = base_catalog();
        for sql in [
            "SELECT DISTINCT region FROM sales",
            "SELECT id FROM sales ORDER BY id",
            "SELECT id FROM sales LIMIT 3",
            "SELECT id FROM sales WHERE id IN (SELECT id FROM sales)",
            "SELECT s.id, t.id FROM sales AS s, sales AS t",
            "SELECT region FROM sales GROUP BY region HAVING sum(amount) > (SELECT avg(amount) FROM sales)",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(!supported(&q, &c), "must reject: {sql}");
        }
        // DISTINCT over aggregates IS supported (finalize re-derives it).
        let q = parse_query("SELECT DISTINCT region FROM sales GROUP BY region").unwrap();
        assert!(supported(&q, &c));
        pin_ivm("SELECT DISTINCT region FROM sales GROUP BY region");
    }

    #[test]
    fn referenced_tables_sees_through_subqueries() {
        let q = parse_query(
            "SELECT id FROM sales WHERE qty > (SELECT avg(qty) FROM inventory) \
             AND id IN (SELECT id FROM orders)",
        )
        .unwrap();
        let tables = referenced_tables(&q);
        assert_eq!(
            tables.into_iter().collect::<Vec<_>>(),
            vec!["inventory", "orders", "sales"]
        );
    }

    #[test]
    fn aliased_table_binding_matches() {
        pin_ivm("SELECT s.region, count(*) FROM sales AS s GROUP BY s.region");
    }
}
