//! Query execution.
//!
//! Two executors share one semantics:
//!
//! * the **vectorized executor** (this module + `crate::vector`) — the one
//!   production executor. Tables stay columnar end to end: predicates
//!   evaluate over column slices into selection vectors, grouping hashes
//!   key columns batch-wise, sort/distinct/limit permute row indices, and
//!   joins build on key columns. Expressions containing correlated
//!   subqueries drop to a per-row scalar fallback. Incremental view
//!   maintenance (`crate::ivm`) runs its steps too: the WHERE step
//!   (`apply_filters`), grouping (`build_groups`) and the aggregate
//!   and projection lanes (`exec_aggregate`, `exec_projection`) over
//!   an append's delta rows.
//! * the **scalar interpreter** (`crate::scalar`, via
//!   [`execute_scalar`]) — the original row-at-a-time tree-walker, kept
//!   only as the reference implementation: the differential property
//!   tests and the IVM tests pin the vectorized executor and IVM to its
//!   outputs.

use crate::analyze::{analyze_query_cached, default_name};
use crate::error::EngineError;
use crate::eval::Scope;
use crate::vector::{eval_grouped_vec, eval_vec, truthy_indices, LazyCol, VecRelation, Vector};
use pi2_data::column::{ColumnData, NullMask, RowInterner};
use pi2_data::hash::FastMap;
use pi2_data::{Catalog, Column, DataType, Schema, Table, Value};
use pi2_sql::ast::{BinOp, Expr, Query, SelectItem, TableRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Execution context: the catalogue (which owns the table data) and the
/// fixed "today" used by `today()` so runs are deterministic.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The catalog.
    pub catalog: &'a Catalog,
    /// Days since 1970-01-01 returned by `today()`.
    pub today: i64,
    /// Route every (sub)query through the scalar reference interpreter
    /// instead of the vectorized executor.
    pub scalar_only: bool,
    /// Per-query override of the engine-wide `parallelism` knob
    /// (`Some(1)` pins this query single-threaded; see
    /// [`crate::pool::EngineConfig`]).
    pub parallelism: Option<usize>,
    /// Per-query override of the engine-wide parallel row threshold.
    pub parallel_row_threshold: Option<usize>,
    /// Per-query override of the engine-wide morsel size.
    pub morsel_rows: Option<usize>,
}

impl<'a> ExecContext<'a> {
    /// New.
    pub fn new(catalog: &'a Catalog) -> Self {
        // Default "today": 2021-07-01 (day 18809), inside the Covid
        // workload's date range.
        ExecContext {
            catalog,
            today: 18_809,
            scalar_only: false,
            parallelism: None,
            parallel_row_threshold: None,
            morsel_rows: None,
        }
    }

    /// A context whose executions all use the scalar interpreter.
    pub fn scalar(catalog: &'a Catalog) -> Self {
        ExecContext {
            scalar_only: true,
            ..ExecContext::new(catalog)
        }
    }

    /// Pin this query's worker width (overrides the engine-wide knob;
    /// `0` = one per available core).
    pub fn with_parallelism(mut self, width: usize) -> Self {
        self.parallelism = Some(width);
        self
    }

    /// Override the row-count threshold below which this query stays on the
    /// single-threaded path.
    pub fn with_parallel_row_threshold(mut self, rows: usize) -> Self {
        self.parallel_row_threshold = Some(rows);
        self
    }

    /// Override the rows-per-morsel grain for this query.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = Some(rows);
        self
    }
}

/// Execute a query to a result [`Table`].
pub fn execute(query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
    execute_with_scope(query, ctx, None)
}

/// Execute a query with the row-at-a-time reference interpreter (including
/// every nested subquery). Used by the differential tests and benchmarks;
/// behaviorally identical to [`execute`].
pub fn execute_scalar(query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
    let scalar_ctx = ExecContext {
        scalar_only: true,
        ..*ctx
    };
    crate::scalar::execute_scalar_with_scope(query, &scalar_ctx, None)
}

/// Execute with an optional outer scope (for correlated subqueries).
pub fn execute_with_scope(
    query: &Query,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Table, EngineError> {
    if ctx.scalar_only {
        return crate::scalar::execute_scalar_with_scope(query, ctx, outer);
    }
    execute_vectorized(query, ctx, outer)
}

fn execute_vectorized(
    query: &Query,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Table, EngineError> {
    // 1. FROM: build the input relation (zero-copy for base-table scans).
    // Equijoins consume the join conjunct and push provably-safe
    // single-side conjuncts below the join; `residual` is what remains of
    // the WHERE clause.
    let (rel, residual) = eval_from_vec(query, ctx, outer)?;

    // 2. WHERE: predicate → selection vector → compacted relation.
    let rel = apply_filters(rel, residual.as_deref().as_slice(), ctx, outer)?;

    if query.is_aggregate() {
        exec_aggregate(query, &rel, ctx, outer)
    } else {
        exec_projection(query, &rel, ctx, outer)
    }
}

// ---------------------------------------------------------------------------
// Aggregate lane: vectorized grouping, per-group evaluation
// ---------------------------------------------------------------------------

/// Group index vectors plus the optional per-row group id vector
/// (`gid[row] == g` ⇔ `row ∈ groups[g]`). The ids come for free from the
/// sequential single-typed-key grouping paths, where the id is already in
/// hand per row; they feed the fused single-pass aggregates. `None`
/// whenever a grouping path doesn't materialize them.
type GroupsAndIds = (Vec<Vec<u32>>, Option<Vec<u32>>);

/// Group the relation's rows by the GROUP BY key columns (batch-wise
/// hashing; equality and hashing match `Value` semantics). Groups are in
/// first-encounter order, like the scalar interpreter's.
pub(crate) fn build_groups(
    query: &Query,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<GroupsAndIds, EngineError> {
    if query.group_by.is_empty() {
        // An implicit single group (no GROUP BY) aggregates even zero rows.
        return Ok((vec![(0..rel.len as u32).collect()], None));
    }
    let keycols: Vec<Arc<ColumnData>> = query
        .group_by
        .iter()
        .map(|g| Ok(eval_vec(g, rel, ctx, outer)?.into_column(rel.len)))
        .collect::<Result<_, EngineError>>()?;
    // Parallel path: per-morsel partial tables merged in morsel order
    // (identical first-encounter group order). Engages only over the row
    // threshold and when every key column yields exact integer keys.
    if let Some(groups) = crate::par::parallel_group_exact(&keycols, rel.len, ctx) {
        return Ok((groups, None));
    }
    let mut groups: Vec<Vec<u32>> = Vec::new();
    // Single typed key: group through a direct typed map.
    if keycols.len() == 1 {
        match keycols[0].as_ref() {
            ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
                let mut map: FastMap<i64, usize> = FastMap::default();
                let mut null_group: Option<usize> = None;
                let mut gid: Vec<u32> = Vec::with_capacity(values.len());
                for (i, v) in values.iter().enumerate() {
                    let g = if nulls.is_null(i) {
                        *null_group.get_or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    } else {
                        *map.entry(*v).or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    };
                    groups[g].push(i as u32);
                    gid.push(g as u32);
                }
                return Ok((groups, Some(gid)));
            }
            ColumnData::Utf8 { values, nulls } => {
                let mut map: FastMap<&str, usize> = FastMap::default();
                let mut null_group: Option<usize> = None;
                let mut gid: Vec<u32> = Vec::with_capacity(values.len());
                for (i, v) in values.iter().enumerate() {
                    let g = if nulls.is_null(i) {
                        *null_group.get_or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    } else {
                        *map.entry(v.as_str()).or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    };
                    groups[g].push(i as u32);
                    gid.push(g as u32);
                }
                return Ok((groups, Some(gid)));
            }
            ColumnData::Dict { codes, dict, nulls } => {
                // Group on dictionary codes: a dense code → group table, no
                // hashing and no string reads at all.
                let mut of_code: Vec<Option<usize>> = vec![None; dict.len()];
                let mut null_group: Option<usize> = None;
                let mut gid: Vec<u32> = Vec::with_capacity(codes.len());
                for (i, &c) in codes.iter().enumerate() {
                    let g = if nulls.is_null(i) {
                        *null_group.get_or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    } else {
                        *of_code[c as usize].get_or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        })
                    };
                    groups[g].push(i as u32);
                    gid.push(g as u32);
                }
                return Ok((groups, Some(gid)));
            }
            _ => {}
        }
    }
    // Multi-key fast path: every key column yields exact per-row integer
    // keys (ints/dates by value, floats by bits, bools, dictionary codes),
    // so grouping hashes and compares u64 tuples — no string hashing, no
    // `Value` materialization.
    if let Some(groups) = group_by_exact_keys(&keycols, rel.len) {
        return Ok((groups, None));
    }
    // General case: intern each row's key (cheap batch hash + `Value`
    // equality on collisions, shared with DISTINCT and the FD check).
    let mut interner = RowInterner::new(keycols.iter().map(|c| c.as_ref()).collect());
    let mut group_of: FastMap<u32, usize> = FastMap::default();
    for i in 0..rel.len as u32 {
        match interner.intern(i) {
            Some(rep) => groups[group_of[&rep]].push(i),
            None => {
                group_of.insert(i, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    Ok((groups, None))
}

/// A key column whose rows reduce to exact `u64` ids: two rows of the
/// *same* column are [`ColumnData::eq_at`]-equal iff their ids (and null
/// flags) are equal. Strings and `Mixed` columns don't qualify.
pub(crate) enum ExactKeyCol<'a> {
    /// i64-valued (Int64/Date64).
    I64(&'a [i64], &'a NullMask),
    /// Floats compare by bits under `eq_at`.
    F64(&'a [f64], &'a NullMask),
    /// Booleans.
    Bool(&'a [bool], &'a NullMask),
    /// Dictionary codes (one shared dictionary per column).
    Code(&'a [u32], &'a NullMask),
}

impl ExactKeyCol<'_> {
    pub(crate) fn of(c: &ColumnData) -> Option<ExactKeyCol<'_>> {
        match c {
            ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
                Some(ExactKeyCol::I64(values, nulls))
            }
            ColumnData::Float64 { values, nulls } => Some(ExactKeyCol::F64(values, nulls)),
            ColumnData::Bool { values, nulls } => Some(ExactKeyCol::Bool(values, nulls)),
            ColumnData::Dict { codes, nulls, .. } => Some(ExactKeyCol::Code(codes, nulls)),
            ColumnData::Utf8 { .. } | ColumnData::Mixed(_) => None,
        }
    }

    /// The row's exact id; `None` marks NULL.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> Option<u64> {
        match self {
            ExactKeyCol::I64(v, n) => (!n.is_null(i)).then(|| v[i] as u64),
            ExactKeyCol::F64(v, n) => (!n.is_null(i)).then(|| v[i].to_bits()),
            ExactKeyCol::Bool(v, n) => (!n.is_null(i)).then(|| v[i] as u64),
            ExactKeyCol::Code(v, n) => (!n.is_null(i)).then(|| v[i] as u64),
        }
    }
}

/// FNV-style fold of one row's exact keys (the one hashing scheme the
/// exact-key grouping and DISTINCT paths share, so they cannot drift).
#[inline]
pub(crate) fn hash_exact_keys(keyers: &[ExactKeyCol<'_>], i: usize) -> u64 {
    #[inline]
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x100_0000_01b3)
    }
    let mut h = pi2_data::column::ROW_HASH_SEED;
    for k in keyers {
        h = match k.key(i) {
            Some(v) => mix(mix(h, 1), v),
            None => mix(h, 0),
        };
    }
    h
}

/// Group rows by exact integer key tuples (see [`ExactKeyCol`]); `None`
/// when some key column doesn't qualify. Groups are in first-encounter
/// order, like every other grouping path.
fn group_by_exact_keys(keycols: &[Arc<ColumnData>], n: usize) -> Option<Vec<Vec<u32>>> {
    let keyers: Vec<ExactKeyCol<'_>> = keycols
        .iter()
        .map(|c| ExactKeyCol::of(c))
        .collect::<Option<_>>()?;
    let mut groups: Vec<Vec<u32>> = Vec::new();
    // bucket entries: (representative row, group index).
    let mut buckets: FastMap<u64, Vec<(u32, u32)>> = FastMap::default();
    for i in 0..n {
        let h = hash_exact_keys(&keyers, i);
        let bucket = buckets.entry(h).or_default();
        let hit = bucket
            .iter()
            .find(|(rep, _)| keyers.iter().all(|k| k.key(i) == k.key(*rep as usize)))
            .map(|(_, g)| *g);
        match hit {
            Some(g) => groups[g as usize].push(i as u32),
            None => {
                bucket.push((i as u32, groups.len() as u32));
                groups.push(vec![i as u32]);
            }
        }
    }
    Some(groups)
}

pub(crate) fn exec_aggregate(
    query: &Query,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Table, EngineError> {
    let (mut groups, mut gid) = build_groups(query, rel, ctx, outer)?;
    let mut compacted: Option<VecRelation> = None;
    if let Some(h) = &query.having {
        let keep = eval_grouped_vec(h, rel, &groups, gid.as_deref(), ctx, outer)?;
        // Surviving groups are renumbered (and their rows possibly
        // remapped), so the per-row group ids no longer apply.
        gid = None;
        groups = groups
            .into_iter()
            .zip(keep)
            .filter(|(_, v)| v.as_bool() == Some(true))
            .map(|(g, _)| g)
            .collect();
        // Compact to the surviving groups' rows: dense aggregate-argument
        // evaluation must never touch rows of dropped groups (the scalar
        // interpreter never evaluates select expressions on them, and a
        // dropped row could be one that errors).
        let total: usize = groups.iter().map(Vec::len).sum();
        if total < rel.len {
            let mut sel: Vec<u32> = groups.iter().flatten().copied().collect();
            sel.sort_unstable();
            let mut remap = vec![0u32; rel.len];
            for (new, &old) in sel.iter().enumerate() {
                remap[old as usize] = new as u32;
            }
            for g in &mut groups {
                for i in g.iter_mut() {
                    *i = remap[*i as usize];
                }
            }
            compacted = Some(rel.gather(&sel));
        }
    }
    let rel = compacted.as_ref().unwrap_or(rel);
    // With no groups (empty input under GROUP BY, or HAVING dropped them
    // all) the scalar interpreter's per-group loop never runs; evaluate
    // nothing — not even `SELECT *`'s unsupported-shape error.
    let mut sel_vals: Vec<Vec<Value>> = Vec::with_capacity(query.select.len());
    for item in &query.select {
        match item {
            SelectItem::Star if !groups.is_empty() => {
                return Err(EngineError::Unsupported("SELECT * with GROUP BY".into()))
            }
            SelectItem::Star => {}
            SelectItem::Expr { expr, .. } => sel_vals.push(eval_grouped_vec(
                expr,
                rel,
                &groups,
                gid.as_deref(),
                ctx,
                outer,
            )?),
        }
    }
    let key_vals: Vec<Vec<Value>> = query
        .order_by
        .iter()
        .map(|o| eval_grouped_vec(&o.expr, rel, &groups, gid.as_deref(), ctx, outer))
        .collect::<Result<_, _>>()?;

    if groups.is_empty() {
        // No surviving groups: no rows, and no expressions were evaluated.
        let schema = derive_schema(query, ctx, &rel.cols, &rel.types, None);
        return Ok(Table::new(schema));
    }

    // Columnar output shaping: per-group value lists become typed columns
    // once; DISTINCT / ORDER BY / LIMIT permute group indices (matching the
    // scalar interpreter's row order exactly — `cmp_at`/`eq_at` mirror
    // `Value` semantics); the final gather builds each output column in a
    // single pass. No per-group `Value` row tuples are materialized, so
    // high-cardinality GROUP BY stays columnar end to end.
    let sel_cols: Vec<ColumnData> = sel_vals
        .into_iter()
        .map(|v| ColumnData::from_values(v, None))
        .collect();
    let key_cols: Vec<ColumnData> = key_vals
        .into_iter()
        .map(|v| ColumnData::from_values(v, None))
        .collect();
    let mut order: Vec<u32> = (0..groups.len() as u32).collect();
    if query.distinct {
        let mut interner = RowInterner::new(sel_cols.iter().collect());
        order.retain(|&g| interner.intern(g).is_none());
    }
    if !query.order_by.is_empty() {
        let descs: Vec<bool> = query.order_by.iter().map(|o| o.desc).collect();
        order.sort_by(|&a, &b| {
            for (k, key) in key_cols.iter().enumerate() {
                let ord = key.cmp_at(a as usize, key, b as usize);
                let ord = if descs[k] { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(l) = query.limit {
        order.truncate(l as usize);
    }

    let first: Option<Vec<Value>> = order
        .first()
        .map(|&g| sel_cols.iter().map(|c| c.value(g as usize)).collect());
    let schema = derive_schema(query, ctx, &rel.cols, &rel.types, first.as_deref());
    let identity =
        order.len() == groups.len() && order.iter().enumerate().all(|(k, &g)| g == k as u32);
    let cols: Vec<Arc<ColumnData>> = sel_cols
        .into_iter()
        .enumerate()
        .map(|(k, c)| {
            let col = if identity {
                Arc::new(c)
            } else {
                Arc::new(c.gather(&order))
            };
            match schema.columns.get(k) {
                Some(sc) => coerce_column(col, sc.dtype),
                None => col,
            }
        })
        .collect();
    Table::from_arc_columns(schema, cols).map_err(Into::into)
}

// ---------------------------------------------------------------------------
// Non-aggregate lane: fully columnar projection / distinct / order / limit
// ---------------------------------------------------------------------------

pub(crate) fn exec_projection(
    query: &Query,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Table, EngineError> {
    // Zero input rows: the scalar interpreter's per-row loops never run, so
    // no expression (not even an erroring constant) may be evaluated.
    if rel.len == 0 {
        let schema = derive_schema(query, ctx, &rel.cols, &rel.types, None);
        return Ok(Table::new(schema));
    }
    let mut out_vecs: Vec<Vector> = Vec::with_capacity(query.select.len());
    for item in &query.select {
        match item {
            SelectItem::Star => {
                for i in 0..rel.columns.len() {
                    out_vecs.push(Vector::Col(Arc::clone(rel.column(i))));
                }
            }
            SelectItem::Expr { expr, .. } => out_vecs.push(eval_vec(expr, rel, ctx, outer)?),
        }
    }
    let key_vecs: Vec<Vector> = query
        .order_by
        .iter()
        .map(|o| eval_vec(&o.expr, rel, ctx, outer))
        .collect::<Result<_, _>>()?;

    let mut idx: Vec<u32> = (0..rel.len as u32).collect();
    if query.distinct {
        idx = distinct_indices(&out_vecs, &idx);
    }
    if !query.order_by.is_empty() {
        let descs: Vec<bool> = query.order_by.iter().map(|o| o.desc).collect();
        // Stable sort on a row permutation: equal keys keep input order,
        // like the scalar interpreter's Vec::sort_by.
        let cmp = |a: u32, b: u32| {
            for (k, key) in key_vecs.iter().enumerate() {
                let ord = vec_cmp_at(key, a as usize, b as usize);
                let ord = if descs[k] { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        };
        let limit = query.limit.map(|l| l as usize);
        if !crate::par::parallel_sort_idx(&mut idx, &cmp, limit, ctx) {
            idx.sort_by(|&a, &b| cmp(a, b));
        }
    }
    if let Some(l) = query.limit {
        idx.truncate(l as usize);
    }

    let first: Option<Vec<Value>> = idx
        .first()
        .map(|&i| out_vecs.iter().map(|v| v.value(i as usize)).collect());
    let schema = derive_schema(query, ctx, &rel.cols, &rel.types, first.as_deref());

    let identity = idx.len() == rel.len && idx.iter().enumerate().all(|(k, &i)| i == k as u32);
    let cols: Vec<Arc<ColumnData>> = out_vecs
        .into_iter()
        .enumerate()
        .map(|(k, v)| {
            let col = match v {
                Vector::Col(c) if identity => c,
                Vector::Col(c) => Arc::new(c.gather(&idx)),
                Vector::Const(val) => Arc::new(ColumnData::broadcast(&val, idx.len())),
            };
            match schema.columns.get(k) {
                Some(sc) => coerce_column(col, sc.dtype),
                None => col,
            }
        })
        .collect();
    Table::from_arc_columns(schema, cols).map_err(Into::into)
}

/// First-occurrence row indices under row-wise distinctness of the output
/// vectors (hashing and equality match `Value` semantics).
fn distinct_indices(out_vecs: &[Vector], idx: &[u32]) -> Vec<u32> {
    // Constants are equal on every row; they cannot split rows.
    let cols: Vec<&ColumnData> = out_vecs
        .iter()
        .filter_map(|v| match v {
            Vector::Col(c) => Some(c.as_ref()),
            Vector::Const(_) => None,
        })
        .collect();
    // Exact-key fast path: every column reduces rows to exact u64 ids
    // (ints/dates, float bits, bools, dictionary codes) — dedup on id
    // tuples with a chained index, no per-bucket allocations.
    if let Some(keyers) = cols
        .iter()
        .map(|c| ExactKeyCol::of(c))
        .collect::<Option<Vec<ExactKeyCol<'_>>>>()
    {
        const NONE: u32 = u32::MAX;
        let mut head: FastMap<u64, u32> =
            FastMap::with_capacity_and_hasher(idx.len(), Default::default());
        let mut next: Vec<u32> = vec![NONE; idx.len()];
        let mut out: Vec<u32> = Vec::new();
        for &i in idx {
            let h = hash_exact_keys(&keyers, i as usize);
            let first = head.entry(h).or_insert(NONE);
            let mut p = *first;
            let mut dup = false;
            while p != NONE {
                let rep = out[p as usize] as usize;
                if keyers.iter().all(|k| k.key(i as usize) == k.key(rep)) {
                    dup = true;
                    break;
                }
                p = next[p as usize];
            }
            if !dup {
                let pos = out.len() as u32;
                next[pos as usize] = *first;
                *first = pos;
                out.push(i);
            }
        }
        return out;
    }
    let mut interner = RowInterner::new(cols);
    idx.iter()
        .copied()
        .filter(|&i| interner.intern(i).is_none())
        .collect()
}

fn vec_cmp_at(v: &Vector, a: usize, b: usize) -> std::cmp::Ordering {
    match v {
        Vector::Col(c) => c.cmp_at(a, c, b),
        Vector::Const(_) => std::cmp::Ordering::Equal,
    }
}

// ---------------------------------------------------------------------------
// FROM: scans, hash joins, cross products
// ---------------------------------------------------------------------------

/// Split an AND tree into its conjuncts, left to right.
pub(crate) fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    fn go<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            go(left, out);
            go(right, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    go(e, &mut out);
    out
}

/// A base-table (or subquery result) as a dense relation.
pub(crate) fn scan_rel(binding: &str, table: &Table) -> VecRelation {
    let mut cols = Vec::with_capacity(table.num_columns());
    let mut types = Vec::with_capacity(table.num_columns());
    let mut columns = Vec::with_capacity(table.num_columns());
    for (i, c) in table.schema.columns.iter().enumerate() {
        cols.push((binding.to_string(), c.name.clone()));
        types.push(c.dtype);
        columns.push(LazyCol::dense(Arc::clone(table.col_arc(i))));
    }
    VecRelation {
        cols: Arc::new(cols),
        types: Arc::new(types),
        columns,
        len: table.num_rows(),
    }
}

/// Which join sides (bit 0 = left, bit 1 = right) a column/literal atom
/// references, via the caller's joined-relation resolution; `None` for
/// anything that is not a plain column or literal.
fn atom_side_mask(e: &Expr, resolve: &dyn Fn(Option<&str>, &str) -> Option<u8>) -> Option<u8> {
    match e {
        Expr::Literal(_) => Some(0),
        Expr::Column { table, name } => resolve(table.as_deref(), name),
        _ => None,
    }
}

/// Side mask of a conjunct that is provably safe to evaluate below the
/// join: comparisons / BETWEEN / literal IN lists / IS NULL over plain
/// columns and literals, combined with AND/OR. These shapes never raise
/// (comparison kernels are total — unknowns become SQL NULL), so hoisting
/// them out of the WHERE clause cannot surface an error the row-at-a-time
/// interpreter would not. Anything else — arithmetic, LIKE, functions,
/// subqueries, unresolvable columns — returns `None` and stays above the
/// join.
fn pushdown_side_mask(e: &Expr, resolve: &dyn Fn(Option<&str>, &str) -> Option<u8>) -> Option<u8> {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            Some(atom_side_mask(left, resolve)? | atom_side_mask(right, resolve)?)
        }
        Expr::Binary { left, op, right } if *op == BinOp::And || *op == BinOp::Or => {
            Some(pushdown_side_mask(left, resolve)? | pushdown_side_mask(right, resolve)?)
        }
        Expr::Between {
            expr, low, high, ..
        } => Some(
            atom_side_mask(expr, resolve)?
                | atom_side_mask(low, resolve)?
                | atom_side_mask(high, resolve)?,
        ),
        Expr::InList { expr, list, .. } if list.iter().all(|i| matches!(i, Expr::Literal(_))) => {
            atom_side_mask(expr, resolve)
        }
        Expr::IsNull { expr, .. } => atom_side_mask(expr, resolve),
        _ => None,
    }
}

/// Filter a relation by predicates in order (selection vectors compose
/// lazily): the WHERE step, pushed-down join conjuncts, and IVM's delta
/// scan. Skipped on zero rows (the scalar interpreter never evaluates a
/// predicate then).
pub(crate) fn apply_filters(
    mut rel: VecRelation,
    conjuncts: &[&Expr],
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<VecRelation, EngineError> {
    for c in conjuncts {
        if rel.len == 0 {
            break;
        }
        let sel = match crate::par::parallel_truthy(c, &rel, ctx, outer) {
            Some(sel) => sel?,
            None => {
                let v = eval_vec(c, &rel, ctx, outer)?;
                truthy_indices(&v, rel.len)
            }
        };
        if sel.len() < rel.len {
            rel = rel.gather(&sel);
        }
    }
    Ok(rel)
}

/// Evaluate the FROM clause into a single relation. Two-table FROM clauses
/// with an equality conjunct between the tables (the SDSS `s.bestObjID =
/// gal.objID` shape) use a hash equijoin instead of a cross product; the
/// join consumes its conjunct and pulls provably-safe single-side
/// conjuncts below the join, so the returned residual predicate is what
/// the WHERE step still has to evaluate.
fn eval_from_vec<'q>(
    query: &'q Query,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<(VecRelation, Option<std::borrow::Cow<'q, Expr>>), EngineError> {
    use std::borrow::Cow;
    let mut parts: Vec<(String, Cow<'_, Table>)> = Vec::with_capacity(query.from.len());
    for tref in &query.from {
        let (binding, table) = match tref {
            TableRef::Table { name, alias } => {
                let meta = ctx.catalog.require_table(name)?;
                (
                    alias.clone().unwrap_or_else(|| name.clone()),
                    Cow::Borrowed(&meta.table), // zero-copy scan
                )
            }
            TableRef::Subquery { query: subq, alias } => {
                let t = execute_with_scope(subq, ctx, outer)?;
                (alias.clone().unwrap_or_default(), Cow::Owned(t))
            }
        };
        parts.push((binding, table));
    }
    let residual_all = || query.where_clause.as_ref().map(Cow::Borrowed);
    if parts.len() == 2 {
        let conjuncts = query
            .where_clause
            .as_ref()
            .map(|p| split_conjuncts(p))
            .unwrap_or_default();
        if let Some((cj, lc, rc)) = equijoin_columns(&conjuncts, &parts) {
            // Joined-relation name resolution (first match over left cols,
            // then right cols) as a side mask.
            let resolve = |t: Option<&str>, n: &str| -> Option<u8> {
                for (pi, (binding, table)) in parts.iter().enumerate() {
                    if t.is_none_or(|t| t.eq_ignore_ascii_case(binding))
                        && table.schema.index_of(n).is_some()
                    {
                        return Some(1 << pi);
                    }
                }
                None
            };
            let mut left_push: Vec<&Expr> = Vec::new();
            let mut right_push: Vec<&Expr> = Vec::new();
            let mut residual: Vec<&Expr> = Vec::new();
            for (k, c) in conjuncts.iter().enumerate() {
                if k == cj {
                    continue; // consumed by the hash join
                }
                match pushdown_side_mask(c, &resolve) {
                    Some(1) => left_push.push(c),
                    Some(2) => right_push.push(c),
                    _ => residual.push(c),
                }
            }
            let (right_binding, right_table) = parts.pop().unwrap();
            let (left_binding, left_table) = parts.pop().unwrap();
            let left_rel = apply_filters(
                scan_rel(&left_binding, left_table.as_ref()),
                &left_push,
                ctx,
                outer,
            )?;
            let right_rel = apply_filters(
                scan_rel(&right_binding, right_table.as_ref()),
                &right_push,
                ctx,
                outer,
            )?;
            let rel = hash_join_rel(left_rel, lc, right_rel, rc, ctx);
            let residual = residual.into_iter().cloned().reduce(|a, b| Expr::Binary {
                left: Box::new(a),
                op: BinOp::And,
                right: Box::new(b),
            });
            return Ok((rel, residual.map(Cow::Owned)));
        }
    }
    let mut rel = VecRelation {
        cols: Arc::new(vec![]),
        types: Arc::new(vec![]),
        columns: vec![],
        len: 1,
    };
    for (binding, table) in parts {
        rel = cross_product_vec(rel, &binding, table.as_ref());
    }
    Ok((rel, residual_all()))
}

/// Find a top-level equality conjunct `a.x = b.y` joining the two FROM
/// relations; returns the conjunct's index and the column indices
/// (left, right).
pub(crate) fn equijoin_columns<T: std::borrow::Borrow<Table>>(
    conjuncts: &[&Expr],
    parts: &[(String, T)],
) -> Option<(usize, usize, usize)> {
    for (k, c) in conjuncts.iter().enumerate() {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let (
            Expr::Column {
                table: lt,
                name: ln,
            },
            Expr::Column {
                table: rt,
                name: rn,
            },
        ) = (left.as_ref(), right.as_ref())
        else {
            continue;
        };
        let resolve = |t: &Option<String>, n: &str| -> Option<(usize, usize)> {
            for (pi, (binding, table)) in parts.iter().enumerate() {
                if t.as_deref().is_none_or(|t| t.eq_ignore_ascii_case(binding)) {
                    if let Some(ci) = table.borrow().schema.index_of(n) {
                        return Some((pi, ci));
                    }
                }
            }
            None
        };
        let (lp, lc) = resolve(lt, ln)?;
        let (rp, rc) = resolve(rt, rn)?;
        if lp == 0 && rp == 1 {
            return Some((k, lc, rc));
        }
        if lp == 1 && rp == 0 {
            return Some((k, rc, lc));
        }
    }
    None
}

/// Hash equijoin over two (possibly pre-filtered) relations, building
/// directly on the key columns (NULL keys never match, per SQL semantics).
/// Integer/date keys whose build-side range is dense use a direct-indexed
/// array instead of a hash map; dictionary keys join on codes through a
/// once-computed dictionary translation; mixed string representations
/// probe by `&str`; anything else falls back to `Value` keys, which
/// replicate the scalar join's cross-type equality. The joined relation
/// records both row mappings as lazy selections — no column is gathered
/// until something reads it.
fn hash_join_rel(
    left: VecRelation,
    left_col: usize,
    right: VecRelation,
    right_col: usize,
    ctx: &ExecContext<'_>,
) -> VecRelation {
    let lkey = Arc::clone(left.column(left_col));
    let rkey = Arc::clone(right.column(right_col));
    let lidx: Vec<u32>;
    let ridx: Vec<u32>;
    // Build-side index: key → first matching right row, with duplicates
    // chained through `next` (one map entry + no per-key Vec allocations).
    // Building in reverse keeps each chain in ascending right-row order,
    // matching the scalar join's match order.
    const NONE: u32 = u32::MAX;
    let rn_rows = right.len;
    let mut next: Vec<u32> = vec![NONE; rn_rows];
    fn probe(next: &[u32], lidx: &mut Vec<u32>, ridx: &mut Vec<u32>, i: u32, mut r: u32) {
        while r != NONE {
            lidx.push(i);
            ridx.push(r);
            r = next[r as usize];
        }
    }
    // Probe driver: over the threshold, left-side morsels probe in
    // parallel and concatenate in morsel order (identical to the
    // sequential ascending-row scan); otherwise one inline loop. Generic
    // so the sequential loop stays monomorphized — paper-scale joins never
    // pay a dyn call per probed row.
    let n_left = left.len;
    fn run_probe<F: Fn(usize, &mut Vec<u32>, &mut Vec<u32>) + Sync>(
        n_left: usize,
        ctx: &ExecContext<'_>,
        f: F,
    ) -> (Vec<u32>, Vec<u32>) {
        if let Some(out) = crate::par::parallel_probe(n_left, ctx, &f) {
            return out;
        }
        let (mut l, mut r) = (Vec::new(), Vec::new());
        for i in 0..n_left {
            f(i, &mut l, &mut r);
        }
        (l, r)
    }
    match (lkey.as_ref(), rkey.as_ref()) {
        (
            ColumnData::Int64 {
                values: lv,
                nulls: ln,
            },
            ColumnData::Int64 {
                values: rv,
                nulls: rn,
            },
        )
        | (
            ColumnData::Date64 {
                values: lv,
                nulls: ln,
            },
            ColumnData::Date64 {
                values: rv,
                nulls: rn,
            },
        ) => {
            // Dense build-side key range (primary-key-style ids): a
            // direct-indexed head array beats any hash map.
            let (mut min, mut max) = (i64::MAX, i64::MIN);
            for (i, v) in rv.iter().enumerate() {
                if !rn.is_null(i) {
                    min = min.min(*v);
                    max = max.max(*v);
                }
            }
            let span = if min <= max {
                (max as i128 - min as i128) as u128 + 1
            } else {
                0
            };
            if span > 0 && span <= (4 * rn_rows as u128).max(1024) {
                let mut head: Vec<u32> = vec![NONE; span as usize];
                for (i, v) in rv.iter().enumerate().rev() {
                    if !rn.is_null(i) {
                        let slot = (*v as i128 - min as i128) as usize;
                        if head[slot] != NONE {
                            next[i] = head[slot];
                        }
                        head[slot] = i as u32;
                    }
                }
                let (li, ri) = run_probe(n_left, ctx, |i, lidx, ridx| {
                    let v = lv[i];
                    if !ln.is_null(i) && v >= min && v <= max {
                        let r = head[(v as i128 - min as i128) as usize];
                        if r != NONE {
                            probe(&next, lidx, ridx, i as u32, r);
                        }
                    }
                });
                (lidx, ridx) = (li, ri);
            } else {
                // Sparse keys: partitioned parallel build over the
                // threshold (per-worker partial tables whose chains land in
                // disjoint `next` slots), else one sequential map. Lookups
                // route by the same key→partition function either way.
                let heads: Vec<FastMap<i64, u32>> =
                    match crate::par::parallel_int_build(rv, rn, &mut next, ctx) {
                        Some(heads) => heads,
                        None => {
                            let mut head: FastMap<i64, u32> =
                                FastMap::with_capacity_and_hasher(rn_rows, Default::default());
                            for (i, v) in rv.iter().enumerate().rev() {
                                if !rn.is_null(i) {
                                    if let Some(&h) = head.get(v) {
                                        next[i] = h;
                                    }
                                    head.insert(*v, i as u32);
                                }
                            }
                            vec![head]
                        }
                    };
                let (li, ri) = run_probe(n_left, ctx, |i, lidx, ridx| {
                    if !ln.is_null(i) {
                        let v = lv[i];
                        let p = crate::par::int_partition(v, heads.len());
                        if let Some(&r) = heads[p].get(&v) {
                            probe(&next, lidx, ridx, i as u32, r);
                        }
                    }
                });
                (lidx, ridx) = (li, ri);
            }
        }
        (
            ColumnData::Dict {
                codes: lc,
                dict: ld,
                nulls: ln,
            },
            ColumnData::Dict {
                codes: rc,
                dict: rd,
                nulls: rn,
            },
        ) => {
            // Build on right-side codes (dense by construction — a code
            // array the size of the dictionary); probe through a
            // once-computed left-dict → right-code translation (identity
            // when both sides share one dictionary Arc). The probe loop
            // never reads a string.
            let mut head: Vec<u32> = vec![NONE; rd.len()];
            for (i, c) in rc.iter().enumerate().rev() {
                if !rn.is_null(i) {
                    let slot = *c as usize;
                    if head[slot] != NONE {
                        next[i] = head[slot];
                    }
                    head[slot] = i as u32;
                }
            }
            let trans: Option<Vec<Option<u32>>> = if Arc::ptr_eq(ld, rd) {
                None
            } else {
                Some(
                    ld.iter()
                        .map(|s| {
                            rd.binary_search_by(|d| d.as_str().cmp(s))
                                .ok()
                                .map(|c| c as u32)
                        })
                        .collect(),
                )
            };
            let (li, ri) = run_probe(n_left, ctx, |i, lidx, ridx| {
                if ln.is_null(i) {
                    return;
                }
                let rc = match &trans {
                    None => Some(lc[i]),
                    Some(t) => t[lc[i] as usize],
                };
                if let Some(rc) = rc {
                    let r = head[rc as usize];
                    if r != NONE {
                        probe(&next, lidx, ridx, i as u32, r);
                    }
                }
            });
            (lidx, ridx) = (li, ri);
        }
        (
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. },
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. },
        ) => {
            // Mixed string representations: probe by &str views (NULLs are
            // `None` and never match).
            let mut head: FastMap<&str, u32> =
                FastMap::with_capacity_and_hasher(rn_rows, Default::default());
            for i in (0..rn_rows).rev() {
                if let Some(s) = rkey.str_at(i) {
                    if let Some(&h) = head.get(s) {
                        next[i] = h;
                    }
                    head.insert(s, i as u32);
                }
            }
            let (li, ri) = run_probe(n_left, ctx, |i, lidx, ridx| {
                if let Some(s) = lkey.str_at(i) {
                    if let Some(&r) = head.get(s) {
                        probe(&next, lidx, ridx, i as u32, r);
                    }
                }
            });
            (lidx, ridx) = (li, ri);
        }
        _ => {
            // Generic keys replicate the scalar join's `Value` hash/equality
            // (including Int/Float cross-type equality).
            let mut head: HashMap<Value, u32> = HashMap::new();
            for i in (0..rn_rows).rev() {
                let key = rkey.value(i);
                if !key.is_null() {
                    if let Some(&h) = head.get(&key) {
                        next[i] = h;
                    }
                    head.insert(key, i as u32);
                }
            }
            let (li, ri) = run_probe(n_left, ctx, |i, lidx, ridx| {
                let key = lkey.value(i);
                if key.is_null() {
                    return;
                }
                if let Some(&r) = head.get(&key) {
                    probe(&next, lidx, ridx, i as u32, r);
                }
            });
            (lidx, ridx) = (li, ri);
        }
    }
    drop(lkey);
    drop(rkey);

    let len = lidx.len();
    let l = left.gather(&lidx);
    let r = right.gather(&ridx);
    let mut cols = (*l.cols).clone();
    let mut types = (*l.types).clone();
    let mut columns = l.columns;
    cols.extend(r.cols.iter().cloned());
    types.extend(r.types.iter().copied());
    columns.extend(r.columns);
    VecRelation {
        cols: Arc::new(cols),
        types: Arc::new(types),
        columns,
        len,
    }
}

fn cross_product_vec(left: VecRelation, binding: &str, right: &Table) -> VecRelation {
    let mut cols = (*left.cols).clone();
    let mut types = (*left.types).clone();
    for c in &right.schema.columns {
        cols.push((binding.to_string(), c.name.clone()));
        types.push(c.dtype);
    }
    let (ln, rn) = (left.len, right.num_rows());
    // Unit left relation: the result *is* the right table (zero-copy scan).
    if ln == 1 && left.columns.is_empty() {
        let columns = (0..right.num_columns())
            .map(|i| LazyCol::dense(Arc::clone(right.col_arc(i))))
            .collect();
        return VecRelation {
            cols: Arc::new(cols),
            types: Arc::new(types),
            columns,
            len: rn,
        };
    }
    let n = ln * rn;
    let mut lidx = Vec::with_capacity(n);
    let mut ridx = Vec::with_capacity(n);
    for l in 0..ln as u32 {
        for r in 0..rn as u32 {
            lidx.push(l);
            ridx.push(r);
        }
    }
    let ridx: Arc<Vec<u32>> = Arc::new(ridx);
    let left = left.gather(&lidx);
    let mut columns: Vec<LazyCol> = left.columns;
    for i in 0..right.num_columns() {
        columns.push(LazyCol::selected(
            Arc::clone(right.col_arc(i)),
            Arc::clone(&ridx),
        ));
    }
    VecRelation {
        cols: Arc::new(cols),
        types: Arc::new(types),
        columns,
        len: n,
    }
}

// ---------------------------------------------------------------------------
// Output shaping shared by both executors
// ---------------------------------------------------------------------------

/// Coerce values to their declared column types where lossless (ISO date
/// strings → dates, ints → floats for float columns).
pub(crate) fn coerce_row(row: Vec<Value>, schema: &Schema) -> Vec<Value> {
    row.into_iter()
        .zip(schema.columns.iter())
        .map(|(v, c)| match (c.dtype, &v) {
            (DataType::Date, Value::Str(_)) => v.coerce_to_date().unwrap_or(v),
            (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
            _ => v,
        })
        .collect()
}

/// Column-wise [`coerce_row`]: casts whole columns when the representation
/// allows (Int64 → Float64), per-value otherwise.
fn coerce_column(col: Arc<ColumnData>, dtype: DataType) -> Arc<ColumnData> {
    match (dtype, col.as_ref()) {
        (DataType::Float, ColumnData::Int64 { values, nulls }) => Arc::new(ColumnData::Float64 {
            values: values.iter().map(|v| *v as f64).collect(),
            nulls: nulls.clone(),
        }),
        (DataType::Date, ColumnData::Utf8 { .. })
        | (DataType::Date, ColumnData::Dict { .. })
        | (DataType::Date, ColumnData::Mixed(_))
        | (DataType::Float, ColumnData::Mixed(_)) => {
            let vals: Vec<Value> = col
                .iter()
                .map(|v| match (dtype, &v) {
                    (DataType::Date, Value::Str(_)) => v.coerce_to_date().unwrap_or(v),
                    (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
                    _ => v,
                })
                .collect();
            Arc::new(ColumnData::from_values(vals, Some(dtype)))
        }
        _ => col,
    }
}

/// Output schema for a query: static analysis when it succeeds, else
/// [`fallback_schema`] from the first output row. The one derivation both
/// executors use, so their output schemas cannot diverge.
pub(crate) fn derive_schema(
    query: &Query,
    ctx: &ExecContext<'_>,
    input_cols: &[(String, String)],
    input_types: &[DataType],
    first: Option<&[Value]>,
) -> Schema {
    match analyze_query_cached(query, ctx.catalog).as_ref() {
        Ok(info) => Schema::new(
            info.cols
                .iter()
                .map(|c| Column::new(c.name.clone(), c.ty.dtype()))
                .collect(),
        ),
        Err(_) => fallback_schema(query, input_cols, input_types, first),
    }
}

/// Output schema when static analysis fails: names from the select list,
/// types from the first output row (correlated subqueries can defeat
/// analysis).
pub(crate) fn fallback_schema(
    query: &Query,
    input_cols: &[(String, String)],
    input_types: &[DataType],
    first: Option<&[Value]>,
) -> Schema {
    let mut cols = Vec::new();
    let mut idx = 0;
    for item in &query.select {
        match item {
            SelectItem::Star => {
                for (i, (_, name)) in input_cols.iter().enumerate() {
                    cols.push(Column::new(name.clone(), input_types[i]));
                    idx += 1;
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                let dtype = first
                    .and_then(|r| r.get(idx))
                    .and_then(|v| v.data_type())
                    .unwrap_or(DataType::Str);
                cols.push(Column::new(name, dtype));
                idx += 1;
            }
        }
    }
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(1), Value::Int(20)],
                vec![Value::Int(3), Value::Int(2), Value::Int(30)],
                vec![Value::Int(4), Value::Int(2), Value::Int(40)],
                vec![Value::Int(5), Value::Int(2), Value::Int(50)],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        let cities = Table::from_rows(
            vec![
                ("city", DataType::Str),
                ("product", DataType::Str),
                ("total", DataType::Int),
            ],
            vec![
                vec![
                    Value::Str("NY".into()),
                    Value::Str("x".into()),
                    Value::Int(10),
                ],
                vec![
                    Value::Str("NY".into()),
                    Value::Str("y".into()),
                    Value::Int(30),
                ],
                vec![
                    Value::Str("LA".into()),
                    Value::Str("x".into()),
                    Value::Int(25),
                ],
                vec![
                    Value::Str("LA".into()),
                    Value::Str("y".into()),
                    Value::Int(5),
                ],
            ],
        )
        .unwrap();
        c.add_table("sales", cities, vec![]);
        c
    }

    /// Execute with both engines, pin them equal, return the vectorized
    /// result — every test below is a differential test.
    fn run(sql: &str) -> Table {
        let catalog = catalog();
        let ctx = ExecContext::new(&catalog);
        let q = parse_query(sql).unwrap();
        let vectorized = execute(&q, &ctx).unwrap();
        let scalar = execute_scalar(&q, &ctx).unwrap();
        assert_eq!(vectorized, scalar, "executors disagree on {sql}");
        vectorized
    }

    #[test]
    fn filter_and_project() {
        let t = run("SELECT p, b FROM T WHERE a = 2");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema.names(), vec!["p", "b"]);
        assert_eq!(t.row(0), vec![Value::Int(3), Value::Int(30)]);
    }

    #[test]
    fn group_by_count() {
        let t = run("SELECT a, count(*) FROM T GROUP BY a");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(t.schema.names(), vec!["a", "count"]);
    }

    #[test]
    fn aggregates_without_group_by() {
        let t = run("SELECT count(*), sum(b), avg(b), min(b), max(b) FROM T");
        assert_eq!(
            t.row(0),
            vec![
                Value::Int(5),
                Value::Int(150),
                Value::Float(30.0),
                Value::Int(10),
                Value::Int(50)
            ]
        );
    }

    #[test]
    fn empty_input_aggregate_returns_one_row() {
        let t = run("SELECT count(*) FROM T WHERE a = 99");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0), vec![Value::Int(0)]);
    }

    #[test]
    fn having_filters_groups() {
        let t = run("SELECT a, count(*) FROM T GROUP BY a HAVING count(*) > 2");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0), vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn distinct_dedups() {
        let t = run("SELECT DISTINCT a FROM T");
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let t = run("SELECT p FROM T ORDER BY b DESC LIMIT 2");
        assert_eq!(t.to_rows(), vec![vec![Value::Int(5)], vec![Value::Int(4)]]);
    }

    #[test]
    fn order_by_aggregate() {
        let t = run("SELECT a FROM T GROUP BY a ORDER BY count(*) DESC");
        assert_eq!(t.to_rows(), vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
    }

    #[test]
    fn between_and_in() {
        let t = run("SELECT p FROM T WHERE b BETWEEN 20 AND 40 AND a IN (1, 2)");
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn subquery_in_from() {
        let t = run("SELECT x FROM (SELECT b AS x FROM T WHERE a = 1) AS sq WHERE x > 15");
        assert_eq!(t.to_rows(), vec![vec![Value::Int(20)]]);
        assert_eq!(t.schema.names(), vec!["x"]);
    }

    #[test]
    fn cross_join_with_predicate() {
        let t = run("SELECT t1.p, t2.p FROM T AS t1, T AS t2 WHERE t1.p = t2.p");
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn in_subquery() {
        let t = run("SELECT p FROM T WHERE a IN (SELECT a FROM T WHERE b > 25)");
        assert_eq!(t.num_rows(), 3); // a = 2 rows
    }

    #[test]
    fn scalar_subquery() {
        let t = run("SELECT p FROM T WHERE b = (SELECT max(b) FROM T)");
        assert_eq!(t.to_rows(), vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn correlated_having_subquery_sales_pattern() {
        // For each (city, product) keep the row whose total is the city max —
        // the exact pattern of the paper's Sales workload (Listing 7).
        let t = run(
            "SELECT city, product, sum(total) FROM sales AS ss GROUP BY city, product \
             HAVING sum(total) >= (SELECT max(t) FROM (SELECT sum(total) AS t \
             FROM sales AS s WHERE s.city = ss.city GROUP BY s.city, s.product) AS m)",
        );
        assert_eq!(t.num_rows(), 2);
        let mut got: Vec<(String, String, i64)> = t
            .iter_rows()
            .map(|r| {
                (
                    r[0].as_str().unwrap().to_string(),
                    r[1].as_str().unwrap().to_string(),
                    r[2].as_i64().unwrap(),
                )
            })
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![("LA".into(), "x".into(), 25), ("NY".into(), "y".into(), 30)]
        );
    }

    #[test]
    fn select_star() {
        let t = run("SELECT * FROM T WHERE p = 1");
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn expression_projection() {
        let t = run("SELECT b / 10 AS tens FROM T WHERE p = 3");
        assert_eq!(t.value(0, 0), Value::Float(3.0));
        assert_eq!(t.schema.columns[0].name, "tens");
    }

    #[test]
    fn boolean_projection() {
        let t = run("SELECT p, a IN (1) AS flag FROM T ORDER BY p");
        assert_eq!(t.value(0, 1), Value::Bool(true));
        assert_eq!(t.value(4, 1), Value::Bool(false));
        assert_eq!(t.schema.columns[1].dtype, DataType::Bool);
    }

    #[test]
    fn unknown_table_errors() {
        let catalog = catalog();
        let ctx = ExecContext::new(&catalog);
        let q = parse_query("SELECT a FROM missing").unwrap();
        assert!(matches!(
            execute(&q, &ctx),
            Err(EngineError::Data(pi2_data::DataError::UnknownTable(_)))
        ));
        assert!(matches!(
            execute_scalar(&q, &ctx),
            Err(EngineError::Data(pi2_data::DataError::UnknownTable(_)))
        ));
    }

    #[test]
    fn equijoin_uses_hash_join_and_matches_cross_product() {
        // Same query via the join path and via an IN-subquery reference.
        let t = run("SELECT t1.p, t2.b FROM T AS t1, T AS t2 WHERE t1.p = t2.p AND t2.b > 20");
        assert_eq!(t.num_rows(), 3); // p = 3, 4, 5 have b > 20
        for row in t.iter_rows() {
            assert!(row[1].as_i64().unwrap() > 20);
        }
    }

    #[test]
    fn join_skips_null_keys() {
        let mut catalog = Catalog::new();
        let a = Table::from_rows(
            vec![("k", DataType::Int)],
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let b = Table::from_rows(
            vec![("k2", DataType::Int)],
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        catalog.add_table("A", a, vec![]);
        catalog.add_table("B", b, vec![]);
        let ctx = ExecContext::new(&catalog);
        let q = parse_query("SELECT A.k FROM A, B WHERE A.k = B.k2").unwrap();
        let t = execute(&q, &ctx).unwrap();
        assert_eq!(t.num_rows(), 1, "NULL join keys never match");
        assert_eq!(t, execute_scalar(&q, &ctx).unwrap());
    }

    #[test]
    fn group_by_multiple_keys() {
        let t = run("SELECT city, product, sum(total) FROM sales GROUP BY city, product");
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn projection_of_base_columns_shares_storage() {
        // SELECT a, b FROM T with no filtering must not copy column data.
        let catalog = catalog();
        let ctx = ExecContext::new(&catalog);
        let q = parse_query("SELECT p, a, b FROM T").unwrap();
        let t = execute(&q, &ctx).unwrap();
        let base = &catalog.table("T").unwrap().table;
        for i in 0..3 {
            assert!(
                Arc::ptr_eq(t.col_arc(i), base.col_arc(i)),
                "column {i} was copied"
            );
        }
    }

    #[test]
    fn nulls_flow_through_filters_and_aggregates() {
        let mut catalog = Catalog::new();
        let t = Table::from_rows(
            vec![("x", DataType::Int), ("s", DataType::Str)],
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Null, Value::Str("a".into())],
                vec![Value::Int(3), Value::Null],
                vec![Value::Int(1), Value::Str("b".into())],
            ],
        )
        .unwrap();
        catalog.add_table("N", t, vec![]);
        let ctx = ExecContext::new(&catalog);
        for sql in [
            "SELECT x FROM N WHERE x > 0",
            "SELECT count(x), count(*), sum(x), min(x) FROM N",
            "SELECT s, count(*) FROM N GROUP BY s",
            "SELECT x FROM N WHERE x IS NOT NULL ORDER BY x DESC",
            "SELECT x FROM N WHERE s IS NULL",
            "SELECT DISTINCT x FROM N",
            "SELECT x FROM N WHERE x IN (1, 3)",
            "SELECT x, x IS NULL FROM N",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                execute(&q, &ctx).unwrap(),
                execute_scalar(&q, &ctx).unwrap(),
                "executors disagree on {sql}"
            );
        }
    }

    #[test]
    fn having_dropped_groups_are_never_evaluated() {
        // A group dropped by HAVING contains a row whose select expression
        // errors (a Str in an Int-declared column, so `s + 1` is a type
        // error). The scalar interpreter never evaluates select expressions
        // on dropped groups; the vectorized executor must not either.
        let mut catalog = Catalog::new();
        let mut t = Table::from_rows(
            vec![("g", DataType::Int), ("s", DataType::Int)],
            vec![
                vec![Value::Int(2), Value::Int(3)],
                vec![Value::Int(2), Value::Int(4)],
            ],
        )
        .unwrap();
        t.push_row(vec![Value::Int(1), Value::Str("x".into())])
            .unwrap();
        catalog.add_table("T", t, vec![]);
        let ctx = ExecContext::new(&catalog);
        let q = parse_query("SELECT g, sum(s + 1) FROM T GROUP BY g HAVING count(*) > 1").unwrap();
        let vectorized = execute(&q, &ctx).unwrap();
        let scalar = execute_scalar(&q, &ctx).unwrap();
        assert_eq!(vectorized, scalar);
        assert_eq!(vectorized.row(0), vec![Value::Int(2), Value::Int(9)]);
    }

    #[test]
    fn short_circuited_groups_are_never_evaluated() {
        // The right side of a grouped AND must only see the rows of groups
        // whose left side did not short-circuit; the g=1 group holds the
        // row that would make `s + 1` a type error.
        let mut catalog = Catalog::new();
        let mut t = Table::from_rows(
            vec![("g", DataType::Int), ("s", DataType::Int)],
            vec![
                vec![Value::Int(2), Value::Int(3)],
                vec![Value::Int(2), Value::Int(4)],
            ],
        )
        .unwrap();
        t.push_row(vec![Value::Int(1), Value::Str("x".into())])
            .unwrap();
        catalog.add_table("T", t, vec![]);
        let ctx = ExecContext::new(&catalog);
        let q = parse_query(
            "SELECT g, count(*) FROM T GROUP BY g HAVING count(*) > 1 AND sum(s + 1) > 0",
        )
        .unwrap();
        let vectorized = execute(&q, &ctx).unwrap();
        assert_eq!(vectorized, execute_scalar(&q, &ctx).unwrap());
        assert_eq!(
            vectorized.to_rows(),
            vec![vec![Value::Int(2), Value::Int(2)]]
        );
    }

    #[test]
    fn empty_inputs_never_evaluate_expressions() {
        // With zero input rows (or zero groups) the scalar interpreter's
        // per-row/per-group loops never run, so even erroring constant
        // expressions and the SELECT-*-with-GROUP-BY shape must not raise.
        let catalog = catalog();
        let ctx = ExecContext::new(&catalog);
        for sql in [
            "SELECT 'a' + 1 FROM T WHERE a = 99",
            "SELECT * FROM T WHERE a = 99 GROUP BY a",
            "SELECT a, 'a' + 1 FROM T WHERE a = 99 GROUP BY a",
        ] {
            let q = parse_query(sql).unwrap();
            let vectorized = execute(&q, &ctx).unwrap();
            let scalar = execute_scalar(&q, &ctx).unwrap();
            assert_eq!(vectorized, scalar, "executors disagree on {sql}");
            assert_eq!(vectorized.num_rows(), 0);
        }
    }

    #[test]
    fn dates_and_strings_compare_vectorized() {
        let mut catalog = Catalog::new();
        let t = Table::from_rows(
            vec![("d", DataType::Date), ("s", DataType::Str)],
            vec![
                vec![Value::Date(10), Value::Str("CA".into())],
                vec![Value::Date(20), Value::Str("NY".into())],
                vec![Value::Date(30), Value::Str("CA".into())],
            ],
        )
        .unwrap();
        catalog.add_table("D", t, vec![]);
        let ctx = ExecContext::new(&catalog);
        for sql in [
            "SELECT d FROM D WHERE d > '1970-01-15'",
            "SELECT d FROM D WHERE s = 'CA'",
            "SELECT d FROM D WHERE s LIKE 'C%'",
            "SELECT d + 5 FROM D",
            "SELECT d FROM D WHERE d BETWEEN '1970-01-05' AND '1970-01-25'",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                execute(&q, &ctx).unwrap(),
                execute_scalar(&q, &ctx).unwrap(),
                "executors disagree on {sql}"
            );
        }
    }
}
