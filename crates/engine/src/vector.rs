//! Vectorized expression evaluation over column slices.
//!
//! [`eval_vec`] evaluates a row-level expression against a whole
//! [`VecRelation`] at once, producing a [`Vector`] — either a column of
//! results or a broadcast constant. Typed fast paths cover the hot shapes
//! (numeric/string comparisons against literals, column-column arithmetic,
//! `IN` membership over integer/string sets); everything else falls back to
//! per-element evaluation through the *same* scalar kernels the row
//! interpreter uses ([`crate::eval`]), so both executors agree by
//! construction.
//!
//! Expressions containing **correlated subqueries** (detected by static
//! analysis failing to resolve their columns internally) cannot be
//! vectorized; they drop to a per-row scalar fallback that materializes one
//! row at a time — exactly what the row interpreter would have done.
//! Uncorrelated subqueries are hoisted: executed once and folded into a
//! constant (scalar subqueries) or a membership set (`IN`).
//!
//! [`eval_grouped_vec`] is the group-level counterpart: aggregates consume
//! dense argument columns through per-group selection indices; the
//! per-group combination logic (a few values per group) reuses the scalar
//! kernels.

use crate::error::EngineError;
use crate::eval::{
    self, apply_binary, apply_scalar_function, apply_unary, eval_between, eval_logical, like_match,
    literal_value, Scope,
};
use crate::exec::{execute_with_scope, ExecContext};
use pi2_data::column::{ColumnData, NullMask};
use pi2_data::kernels::{self, CmpOp, Kleene};
use pi2_data::{DataType, Value};
use pi2_sql::ast::{is_aggregate_function, BinOp, Expr, Query, UnaryOp};
use std::cmp::Ordering;
use std::sync::Arc;

/// A shared selection vector: row indices into a base column, deferred
/// until (and unless) the column is actually read.
pub(crate) type SelVec = Arc<Vec<u32>>;

/// One column of a [`VecRelation`], possibly behind a pending selection
/// vector. `WHERE`, joins, and HAVING compaction only *record* the row
/// mapping; the gather runs once, on first read, and only for columns a
/// projection/aggregate/predicate actually touches — wide relations with
/// selective predicates never pay one gather per untouched column.
pub(crate) struct LazyCol {
    /// The underlying storage (a base-table column or a prior result).
    base: Arc<ColumnData>,
    /// Pending row selection into `base`; `None` means the column is dense.
    sel: Option<SelVec>,
    /// Pending contiguous window `[lo, hi)` into `base` (used by worker
    /// morsels); mutually exclusive with `sel`.
    range: Option<(usize, usize)>,
    /// The materialized (gathered/sliced) column, filled on first read.
    cache: std::cell::OnceCell<Arc<ColumnData>>,
}

impl LazyCol {
    /// A dense column (no pending selection).
    pub fn dense(base: Arc<ColumnData>) -> LazyCol {
        LazyCol {
            base,
            sel: None,
            range: None,
            cache: std::cell::OnceCell::new(),
        }
    }

    /// A column viewed through a selection vector.
    pub fn selected(base: Arc<ColumnData>, sel: SelVec) -> LazyCol {
        LazyCol {
            base,
            sel: Some(sel),
            range: None,
            cache: std::cell::OnceCell::new(),
        }
    }

    /// A column viewed through a contiguous row window `[lo, hi)` of the
    /// base: the morsel view. Materializes (only if read) through the
    /// word-level [`ColumnData::slice`], not a per-row gather.
    pub fn windowed(base: Arc<ColumnData>, lo: usize, hi: usize) -> LazyCol {
        debug_assert!(lo <= hi && hi <= base.len());
        LazyCol {
            base,
            sel: None,
            range: Some((lo, hi)),
            cache: std::cell::OnceCell::new(),
        }
    }

    /// The materialized column (gathers/slices through the pending view
    /// once, then caches).
    fn get(&self) -> &Arc<ColumnData> {
        match (&self.sel, self.range) {
            (None, None) => &self.base,
            (Some(sel), _) => self.cache.get_or_init(|| Arc::new(self.base.gather(sel))),
            (None, Some((lo, hi))) => self.cache.get_or_init(|| Arc::new(self.base.slice(lo, hi))),
        }
    }

    /// One cell, without materializing the whole column.
    fn value(&self, i: usize) -> Value {
        if let Some(c) = self.cache.get() {
            return c.value(i);
        }
        match (&self.sel, self.range) {
            (Some(sel), _) => self.base.value(sel[i] as usize),
            (None, Some((lo, _))) => self.base.value(lo + i),
            (None, None) => self.base.value(i),
        }
    }

    /// Snapshot of the column as Send/Sync `(storage, selection)` parts, for
    /// building worker-local morsel windows: the cached materialization when
    /// present, else the base plus its pending selection. A range window
    /// (only built inside workers, which never re-window) materializes.
    pub(crate) fn parts(&self) -> (Arc<ColumnData>, Option<SelVec>) {
        if self.range.is_some() {
            return (Arc::clone(self.get()), None);
        }
        match (self.cache.get(), &self.sel) {
            (Some(c), _) => (Arc::clone(c), None),
            (None, Some(sel)) => (Arc::clone(&self.base), Some(Arc::clone(sel))),
            (None, None) => (Arc::clone(&self.base), None),
        }
    }

    /// This column further restricted to `idx` (rows of the *current*
    /// view). Composes selection vectors without touching cell data;
    /// `memo` shares the composed vector between columns that share one.
    fn narrowed(&self, idx: &SelVec, memo: &mut ComposeMemo) -> LazyCol {
        if let Some(c) = self.cache.get() {
            // Already materialized: restart from the gathered column.
            return LazyCol::selected(Arc::clone(c), Arc::clone(idx));
        }
        match (&self.sel, self.range) {
            (Some(sel), _) => {
                let composed = memo.compose(sel, idx);
                LazyCol::selected(Arc::clone(&self.base), composed)
            }
            (None, Some((lo, _))) => LazyCol::selected(
                Arc::clone(&self.base),
                Arc::new(idx.iter().map(|&i| lo as u32 + i).collect()),
            ),
            (None, None) => LazyCol::selected(Arc::clone(&self.base), Arc::clone(idx)),
        }
    }
}

/// Memo for composing selection vectors during [`VecRelation::gather`]:
/// columns of one relation typically share a handful of selection vectors
/// (one per join side), so each composition runs once.
#[derive(Default)]
struct ComposeMemo {
    entries: Vec<(*const Vec<u32>, SelVec)>,
}

impl ComposeMemo {
    fn compose(&mut self, old: &SelVec, idx: &SelVec) -> SelVec {
        let key = Arc::as_ptr(old);
        if let Some((_, composed)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(composed);
        }
        let composed: SelVec = Arc::new(idx.iter().map(|&i| old[i as usize]).collect());
        self.entries.push((key, Arc::clone(&composed)));
        composed
    }
}

/// The binding of a maintained-aggregate column (see
/// [`VecRelation::maintained`]). Its brackets lie outside Latin-1, and the
/// SQL lexer's identifiers are ASCII (unquoted) or one Latin-1 char per
/// byte (quoted), so no parsed query can bind this name.
pub(crate) const MAINTAINED: &str = "\u{27e8}maintained\u{27e9}";

/// A relation during vectorized execution: tagged, typed, `Arc`-shared
/// columns (scans of base tables are zero-copy) behind lazy selection
/// vectors (filters/joins defer their gathers until a column is read).
pub(crate) struct VecRelation {
    /// `(binding, column)` pairs (shared: narrowing a relation never
    /// re-allocates the name tags).
    pub cols: Arc<Vec<(String, String)>>,
    /// Storage type per column (used to label untyped outputs; shared like
    /// `cols`).
    pub types: Arc<Vec<DataType>>,
    /// The columns, parallel to `cols`.
    pub columns: Vec<LazyCol>,
    /// Row count (kept separately: a FROM-less relation has one row and no
    /// columns).
    pub len: usize,
}

impl VecRelation {
    /// Column index for a (possibly qualified) name, with the same
    /// first-match semantics as [`Scope::lookup`].
    pub fn lookup(&self, table: Option<&str>, name: &str) -> Option<usize> {
        self.cols.iter().position(|(b, c)| {
            c.eq_ignore_ascii_case(name) && table.is_none_or(|t| b.eq_ignore_ascii_case(t))
        })
    }

    /// The column carrying aggregate call `agg`'s maintained per-group
    /// value, if any: incremental view maintenance tags such columns with
    /// the [`MAINTAINED`] binding and the call's SQL text (see
    /// `crate::ivm`). Ordinary relations carry none.
    pub fn maintained(&self, agg: &Expr) -> Option<usize> {
        if !self.cols.iter().any(|(b, _)| b == MAINTAINED) {
            return None;
        }
        let key = agg.to_string();
        self.cols
            .iter()
            .position(|(b, c)| b == MAINTAINED && *c == key)
    }

    /// The materialized column at `i` (runs the pending gather on first
    /// read).
    pub fn column(&self, i: usize) -> &Arc<ColumnData> {
        self.columns[i].get()
    }

    /// One cell of column `i`, read through any pending selection without
    /// materializing the column.
    pub fn cell(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` (reads through pending selections; used by the
    /// per-row scalar fallback and group representatives).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The relation restricted to the given rows — lazily: selection
    /// vectors compose, no cell data moves until a column is read.
    pub fn gather(&self, idx: &[u32]) -> VecRelation {
        let idx: SelVec = Arc::new(idx.to_vec());
        let mut memo = ComposeMemo::default();
        VecRelation {
            cols: Arc::clone(&self.cols),
            types: Arc::clone(&self.types),
            columns: self
                .columns
                .iter()
                .map(|c| c.narrowed(&idx, &mut memo))
                .collect(),
            len: idx.len(),
        }
    }
}

/// A vectorized evaluation result: a column, or a constant broadcast over
/// the relation's rows.
#[derive(Clone)]
pub(crate) enum Vector {
    /// One value per row.
    Col(Arc<ColumnData>),
    /// The same value for every row.
    Const(Value),
}

impl Vector {
    pub(crate) fn owned(col: ColumnData) -> Vector {
        Vector::Col(Arc::new(col))
    }

    /// The value at row `i`.
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            Vector::Col(c) => c.value(i),
            Vector::Const(v) => v.clone(),
        }
    }

    /// The vector as a full column of `n` rows.
    pub(crate) fn into_column(self, n: usize) -> Arc<ColumnData> {
        match self {
            Vector::Col(c) => c,
            Vector::Const(v) => Arc::new(ColumnData::broadcast(&v, n)),
        }
    }

    /// SQL truthiness at row `i` (matches `Value::as_bool` + NULL rules).
    fn truthy(&self, i: usize) -> bool {
        match self {
            Vector::Const(v) => v.as_bool() == Some(true),
            Vector::Col(c) => match c.as_ref() {
                ColumnData::Bool { values, nulls } => values[i] && !nulls.is_null(i),
                ColumnData::Int64 { values, nulls } => values[i] != 0 && !nulls.is_null(i),
                ColumnData::Mixed(values) => values[i].as_bool() == Some(true),
                _ => false,
            },
        }
    }

    /// Three-valued boolean view at row `i`.
    fn bool3(&self, i: usize) -> Option<bool> {
        match self {
            Vector::Const(v) => v.as_bool(),
            Vector::Col(c) => match c.as_ref() {
                ColumnData::Bool { values, nulls } => (!nulls.is_null(i)).then(|| values[i]),
                ColumnData::Int64 { values, nulls } => (!nulls.is_null(i)).then(|| values[i] != 0),
                ColumnData::Mixed(values) => values[i].as_bool(),
                _ => None,
            },
        }
    }
}

/// Row indices where the predicate vector is true.
pub(crate) fn truthy_indices(v: &Vector, n: usize) -> Vec<u32> {
    match v {
        Vector::Const(c) => {
            if c.as_bool() == Some(true) {
                (0..n as u32).collect()
            } else {
                Vec::new()
            }
        }
        Vector::Col(c) => match c.as_ref() {
            // Word-level kernel: predicate bytes → bitmap, AND validity,
            // bits → indices (64 rows per step; see `pi2_data::kernels`).
            ColumnData::Bool { values, nulls } => {
                pi2_data::kernels::bool_selection(values, nulls, 0)
            }
            _ => (0..n as u32).filter(|&i| v.truthy(i as usize)).collect(),
        },
    }
}

/// Accumulates a nullable boolean column.
struct BoolBuilder {
    values: Vec<bool>,
    nulls: NullMask,
}

impl BoolBuilder {
    fn with_capacity(n: usize) -> BoolBuilder {
        BoolBuilder {
            values: Vec::with_capacity(n),
            nulls: NullMask::new(),
        }
    }

    #[inline]
    fn push(&mut self, v: Option<bool>) {
        self.values.push(v.unwrap_or(false));
        self.nulls.push(v.is_none());
    }

    fn finish(self) -> Vector {
        Vector::owned(ColumnData::Bool {
            values: self.values,
            nulls: self.nulls,
        })
    }
}

/// Evaluate a row-level expression over a relation.
pub(crate) fn eval_vec(
    expr: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    match expr {
        Expr::Literal(l) => Ok(Vector::Const(literal_value(l))),
        Expr::Column { table, name } => match rel.lookup(table.as_deref(), name) {
            Some(i) => Ok(Vector::Col(Arc::clone(rel.column(i)))),
            None => outer
                .and_then(|s| s.lookup(table.as_deref(), name))
                .map(|v| Vector::Const(v.clone()))
                .ok_or_else(|| EngineError::UnresolvedColumn(expr.to_string())),
        },
        Expr::Star => Err(EngineError::Unsupported("bare * outside count(*)".into())),
        Expr::Unary { op, expr: inner } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            unary_vec(*op, v, rel.len)
        }
        Expr::Binary { left, op, right } => {
            if *op == BinOp::And || *op == BinOp::Or {
                let l = eval_vec(left, rel, ctx, outer)?;
                return logical_vec(*op, l, right, expr, rel, ctx, outer);
            }
            let l = eval_vec(left, rel, ctx, outer)?;
            let r = eval_vec(right, rel, ctx, outer)?;
            binary_vec(*op, &l, &r, rel.len)
        }
        Expr::Between {
            expr: inner,
            negated,
            low,
            high,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            let lo = eval_vec(low, rel, ctx, outer)?;
            let hi = eval_vec(high, rel, ctx, outer)?;
            between_vec(&v, &lo, &hi, *negated, rel.len)
        }
        Expr::InList {
            expr: inner,
            negated,
            list,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                match eval_vec(item, rel, ctx, outer) {
                    Ok(Vector::Const(c)) => items.push(c),
                    // Non-constant or failing items: evaluate the whole IN
                    // per row (preserves the interpreter's lazy item order).
                    _ => return eval_per_row(expr, rel, ctx, outer),
                }
            }
            Ok(membership_vec(&v, &items, *negated, rel.len))
        }
        Expr::InSubquery {
            expr: inner,
            negated,
            query,
        } => {
            if !is_uncorrelated(query, ctx) {
                return eval_per_row(expr, rel, ctx, outer);
            }
            let v = eval_vec(inner, rel, ctx, outer)?;
            let result = execute_with_scope(query, ctx, None)?;
            let items: Vec<Value> = if result.num_columns() > 0 {
                result.column_values(0).collect()
            } else {
                vec![Value::Null; result.num_rows()]
            };
            Ok(membership_vec(&v, &items, *negated, rel.len))
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            Ok(match v {
                Vector::Const(c) => Vector::Const(Value::Bool(c.is_null() != *negated)),
                Vector::Col(c) => {
                    // Typed columns: IS [NOT] NULL comes straight off the
                    // null-bitmap words; only Mixed walks rows.
                    let values = match c.as_ref() {
                        ColumnData::Int64 { nulls, .. }
                        | ColumnData::Float64 { nulls, .. }
                        | ColumnData::Date64 { nulls, .. }
                        | ColumnData::Bool { nulls, .. }
                        | ColumnData::Utf8 { nulls, .. }
                        | ColumnData::Dict { nulls, .. } => kernels::null_flags(nulls, *negated),
                        ColumnData::Mixed(_) => {
                            (0..rel.len).map(|i| c.is_null(i) != *negated).collect()
                        }
                    };
                    Vector::owned(ColumnData::Bool {
                        values,
                        nulls: NullMask::all_valid(rel.len),
                    })
                }
            })
        }
        Expr::Func { name, args } => {
            if is_aggregate_function(name) {
                return Err(EngineError::MisplacedAggregate(expr.to_string()));
            }
            let argv = args
                .iter()
                .map(|a| eval_vec(a, rel, ctx, outer))
                .collect::<Result<Vec<_>, _>>()?;
            if argv.iter().all(|v| matches!(v, Vector::Const(_))) {
                let vals: Vec<Value> = argv.iter().map(|v| v.value(0)).collect();
                return Ok(Vector::Const(apply_scalar_function(name, &vals, ctx)?));
            }
            let mut out = Vec::with_capacity(rel.len);
            for i in 0..rel.len {
                let vals: Vec<Value> = argv.iter().map(|v| v.value(i)).collect();
                out.push(apply_scalar_function(name, &vals, ctx)?);
            }
            Ok(Vector::owned(ColumnData::from_values(out, None)))
        }
        Expr::ScalarSubquery(q) => {
            if !is_uncorrelated(q, ctx) {
                return eval_per_row(expr, rel, ctx, outer);
            }
            let result = execute_with_scope(q, ctx, None)?;
            if result.schema.len() != 1 {
                return Err(EngineError::NonScalarSubquery);
            }
            Ok(Vector::Const(if result.num_rows() > 0 {
                result.value(0, 0)
            } else {
                Value::Null
            }))
        }
    }
}

/// Whether a subquery's columns all resolve against its own FROM clause —
/// i.e. it can be hoisted out of the per-row loop. Analysis failing for any
/// reason keeps the (always-correct) per-row path.
fn is_uncorrelated(q: &Query, ctx: &ExecContext<'_>) -> bool {
    crate::analyze::analyze_query_cached(q, ctx.catalog).is_ok()
}

/// Fallback: evaluate `expr` per row through the scalar interpreter,
/// materializing one row at a time (used for correlated subqueries and any
/// shape the vectorized kernels refuse).
fn eval_per_row(
    expr: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    let mut out = Vec::with_capacity(rel.len);
    for i in 0..rel.len {
        let row = rel.row(i);
        let scope = Scope {
            cols: &rel.cols,
            row: &row,
            parent: outer,
        };
        out.push(eval::eval_expr(expr, &scope, ctx)?);
    }
    Ok(Vector::owned(ColumnData::from_values(out, None)))
}

fn unary_vec(op: UnaryOp, v: Vector, n: usize) -> Result<Vector, EngineError> {
    match v {
        Vector::Const(c) => Ok(Vector::Const(apply_unary(op, c)?)),
        Vector::Col(c) => match (op, c.as_ref()) {
            (UnaryOp::Neg, ColumnData::Int64 { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Int64 {
                    values: values.iter().map(|v| -v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            (UnaryOp::Neg, ColumnData::Float64 { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Float64 {
                    values: values.iter().map(|v| -v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            (UnaryOp::Not, ColumnData::Bool { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Bool {
                    values: values.iter().map(|v| !v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            _ => {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(apply_unary(op, c.value(i))?);
                }
                Ok(Vector::owned(ColumnData::from_values(out, None)))
            }
        },
    }
}

/// Numeric accessor classification for comparison/arithmetic fast paths.
enum NumSide<'a> {
    Col(&'a ColumnData),
    Const(Option<f64>),
}

impl NumSide<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        match self {
            NumSide::Col(c) => c.numeric(i),
            NumSide::Const(v) => *v,
        }
    }
}

/// Classify a vector as a numeric side for fast-path loops. Date columns
/// compared against ISO date string constants fold the parse to once.
fn numeric_side<'a>(v: &'a Vector, other_is_date: bool) -> Option<NumSide<'a>> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Int64 { .. }
            | ColumnData::Float64 { .. }
            | ColumnData::Date64 { .. }
            | ColumnData::Bool { .. } => Some(NumSide::Col(c)),
            _ => None,
        },
        Vector::Const(c) => match c {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Date(_) => {
                Some(NumSide::Const(c.as_f64()))
            }
            // `date_col > '2021-01-01'`: coerce the literal once.
            Value::Str(s) if other_is_date => Some(NumSide::Const(
                pi2_data::date::parse_iso_date(s).map(|d| d as f64),
            )),
            _ => None,
        },
    }
}

fn is_date_vector(v: &Vector) -> bool {
    match v {
        Vector::Col(c) => matches!(c.as_ref(), ColumnData::Date64 { .. }),
        Vector::Const(c) => matches!(c, Value::Date(_)),
    }
}

fn str_side<'a>(v: &'a Vector) -> Option<StrSide<'a>> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. } => Some(StrSide::Col(c)),
            _ => None,
        },
        Vector::Const(Value::Str(s)) => Some(StrSide::Const(s)),
        _ => None,
    }
}

enum StrSide<'a> {
    Col(&'a ColumnData),
    Const(&'a str),
}

impl StrSide<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<&str> {
        match self {
            StrSide::Col(c) => c.str_at(i),
            StrSide::Const(s) => Some(s),
        }
    }
}

/// Numeric column vs. numeric constant: the comparison runs through the
/// SIMD filter kernels (`pi2_data::kernels`), with NULL slots knocked out
/// afterwards at word level — nullable columns take the same fast path as
/// null-free ones. `swapped` flips the operator when the constant is on
/// the left. Returns `None` when the shape doesn't fit (NaN anywhere,
/// non-numeric), deferring to the general paths: NaN comparisons are NULL
/// (not false) under the engine's `partial_cmp` semantics, which the IEEE
/// kernels cannot express.
fn cmp_const_fast(op: BinOp, col: &Vector, konst: &Vector, swapped: bool) -> Option<Vector> {
    let Vector::Const(c) = konst else { return None };
    let Vector::Col(col) = col else { return None };
    let c = match c {
        Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Date(_) => c.as_f64()?,
        Value::Str(s) if matches!(col.as_ref(), ColumnData::Date64 { .. }) => {
            pi2_data::date::parse_iso_date(s)? as f64
        }
        _ => return None,
    };
    if c.is_nan() {
        return None;
    }
    let op = if swapped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    let kop = cmp_op_kernel(op)?;
    let (mut out, nulls) = match col.as_ref() {
        ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
            (kernels::cmp_i64(values, c, kop), nulls)
        }
        ColumnData::Float64 { values, nulls } if !kernels::has_nan(values) => {
            (kernels::cmp_f64(values, c, kop), nulls)
        }
        _ => return None,
    };
    // NULL comparisons are NULL with a false placeholder, exactly what the
    // general per-row path produces.
    kernels::zero_nulls(&mut out, nulls);
    Some(Vector::owned(ColumnData::Bool {
        values: out,
        nulls: nulls.clone(),
    }))
}

/// The kernel operator for a SQL comparison, if it is one.
fn cmp_op_kernel(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::Ge,
        _ => return None,
    })
}

/// Dictionary column vs. string constant: the constant resolves to a
/// dictionary code (or a partition point when absent) once, and the
/// comparison runs over integer codes — no string compares at all. The
/// sorted-dictionary invariant makes order predicates code-order
/// predicates. `swapped` flips the operator when the constant is on the
/// left.
fn dict_cmp_const_fast(op: BinOp, col: &Vector, konst: &Vector, swapped: bool) -> Option<Vector> {
    let Vector::Const(Value::Str(s)) = konst else {
        return None;
    };
    let Vector::Col(c) = col else { return None };
    let target = c.dict_code_of(s)?;
    let (codes, _, nulls) = c.dict_parts().expect("dict_code_of implies dict");
    let op = if swapped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    // `pt` = number of dictionary entries sorting strictly before `s`.
    let (present, pt) = match target {
        Ok(t) => (true, t),
        Err(p) => (false, p),
    };
    // An absent constant shifts the effective operator: `= absent` is
    // uniformly false, `<= absent` is `< partition point`, and so on. The
    // code compare itself is one SIMD u32-filter kernel call.
    let mut out = match op {
        BinOp::Eq if !present => vec![false; codes.len()],
        BinOp::NotEq if !present => vec![true; codes.len()],
        BinOp::Eq => kernels::cmp_u32(codes, pt, CmpOp::Eq),
        BinOp::NotEq => kernels::cmp_u32(codes, pt, CmpOp::Ne),
        BinOp::Lt => kernels::cmp_u32(codes, pt, CmpOp::Lt),
        BinOp::LtEq => kernels::cmp_u32(codes, pt, if present { CmpOp::Le } else { CmpOp::Lt }),
        BinOp::Gt => kernels::cmp_u32(codes, pt, if present { CmpOp::Gt } else { CmpOp::Ge }),
        BinOp::GtEq => kernels::cmp_u32(codes, pt, CmpOp::Ge),
        _ => return None,
    };
    kernels::zero_nulls(&mut out, nulls);
    Some(Vector::owned(ColumnData::Bool {
        values: out,
        nulls: nulls.clone(),
    }))
}

/// Dictionary column LIKE constant pattern: the pattern matches each
/// dictionary entry once; rows map codes through the precomputed table.
fn dict_like_fast(l: &Vector, r: &Vector) -> Option<Vector> {
    let Vector::Const(Value::Str(pattern)) = r else {
        return None;
    };
    let Vector::Col(c) = l else { return None };
    let (codes, dict, nulls) = c.dict_parts()?;
    let table: Vec<bool> = dict.iter().map(|s| like_match(s, pattern)).collect();
    let mut out = BoolBuilder::with_capacity(codes.len());
    for (i, &code) in codes.iter().enumerate() {
        out.push((!nulls.is_null(i)).then(|| table[code as usize]));
    }
    Some(out.finish())
}

/// A boolean column's value/null slices (any null count), for the
/// word-level three-valued kernels.
fn bool_col_parts(v: &Vector) -> Option<(&[bool], &NullMask)> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Bool { values, nulls } => Some((values, nulls)),
            _ => None,
        },
        _ => None,
    }
}

/// Both sides null-free boolean columns → direct slice combine.
fn bool_cols_fast<'a>(a: &'a Vector, b: &'a Vector) -> Option<(&'a [bool], &'a [bool])> {
    let get = |v: &'a Vector| match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Bool { values, nulls } if nulls.null_count() == 0 => {
                Some(values.as_slice())
            }
            _ => None,
        },
        _ => None,
    };
    Some((get(a)?, get(b)?))
}

#[inline]
fn cmp_result(op: BinOp, ord: Option<Ordering>) -> Option<bool> {
    ord.map(|o| match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::NotEq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!("cmp_result on non-comparison"),
    })
}

/// Vectorized binary operator (comparisons, LIKE, arithmetic; logical ops
/// go through [`logical_vec`]). Matches `apply_binary` exactly; typed fast
/// paths cover numeric/string columns, everything else evaluates
/// element-wise through the scalar kernel.
pub(crate) fn binary_vec(
    op: BinOp,
    l: &Vector,
    r: &Vector,
    n: usize,
) -> Result<Vector, EngineError> {
    if let (Vector::Const(a), Vector::Const(b)) = (l, r) {
        return Ok(Vector::Const(apply_binary(op, a.clone(), b.clone())?));
    }
    if op.is_comparison() {
        // Hot path: a null-free numeric column against a numeric constant —
        // one tight slice loop with the comparison hoisted out.
        if let Some(v) = cmp_const_fast(op, l, r, false).or_else(|| cmp_const_fast(op, r, l, true))
        {
            return Ok(v);
        }
        // Dictionary column against a string constant: compare codes.
        if let Some(v) =
            dict_cmp_const_fast(op, l, r, false).or_else(|| dict_cmp_const_fast(op, r, l, true))
        {
            return Ok(v);
        }
        // Numeric × numeric (dates are numeric; date↔string coerces once).
        if let (Some(a), Some(b)) = (
            numeric_side(l, is_date_vector(r)),
            numeric_side(r, is_date_vector(l)),
        ) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                let ord = match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => None,
                };
                out.push(cmp_result(op, ord));
            }
            return Ok(out.finish());
        }
        // String × string.
        if let (Some(a), Some(b)) = (str_side(l), str_side(r)) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                let ord = match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => Some(x.cmp(y)),
                    _ => None,
                };
                out.push(cmp_result(op, ord));
            }
            return Ok(out.finish());
        }
        // Generic: element-wise through Value::sql_cmp.
        let mut out = BoolBuilder::with_capacity(n);
        for i in 0..n {
            out.push(cmp_result(op, l.value(i).sql_cmp(&r.value(i))));
        }
        return Ok(out.finish());
    }
    if op == BinOp::Like {
        if let Some(v) = dict_like_fast(l, r) {
            return Ok(v);
        }
        if let (Some(a), Some(b)) = (str_side(l), str_side(r)) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                // NULL propagates; non-string non-null is a type error,
                // which the str fast path cannot produce.
                let v = match (l.value_is_null(i), r.value_is_null(i)) {
                    (false, false) => match (a.get(i), b.get(i)) {
                        (Some(s), Some(p)) => Some(like_match(s, p)),
                        _ => None,
                    },
                    _ => None,
                };
                out.push(v);
            }
            return Ok(out.finish());
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(apply_binary(op, l.value(i), r.value(i))?);
        }
        return Ok(Vector::owned(ColumnData::from_values(out, None)));
    }
    // Arithmetic. Result typing follows the scalar kernel: date on the left
    // of +/- stays a date, int⊕int stays int for +,-,*, everything else is
    // float (division always).
    let l_int = is_int_vector(l);
    let r_int = is_int_vector(r);
    let l_date = is_date_vector(l);
    if let (Some(a), Some(b)) = (numeric_side(l, false), numeric_side(r, false)) {
        let mut values = Vec::with_capacity(n);
        let mut nulls = NullMask::new();
        for i in 0..n {
            match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) => {
                    let v = match op {
                        BinOp::Add => Some(x + y),
                        BinOp::Sub => Some(x - y),
                        BinOp::Mul => Some(x * y),
                        BinOp::Div => (y != 0.0).then(|| x / y),
                        _ => unreachable!("non-arithmetic op"),
                    };
                    values.push(v.unwrap_or(0.0));
                    nulls.push(v.is_none());
                }
                _ => {
                    values.push(0.0);
                    nulls.push(true);
                }
            }
        }
        let col = if l_date && matches!(op, BinOp::Add | BinOp::Sub) {
            ColumnData::Date64 {
                values: values.iter().map(|v| *v as i64).collect(),
                nulls,
            }
        } else if l_int && r_int && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
            ColumnData::Int64 {
                values: values.iter().map(|v| *v as i64).collect(),
                nulls,
            }
        } else {
            ColumnData::Float64 { values, nulls }
        };
        return Ok(Vector::owned(col));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_binary(op, l.value(i), r.value(i))?);
    }
    Ok(Vector::owned(ColumnData::from_values(out, None)))
}

fn is_int_vector(v: &Vector) -> bool {
    match v {
        Vector::Col(c) => matches!(c.as_ref(), ColumnData::Int64 { .. }),
        Vector::Const(c) => matches!(c, Value::Int(_)),
    }
}

impl Vector {
    #[inline]
    fn value_is_null(&self, i: usize) -> bool {
        match self {
            Vector::Const(v) => v.is_null(),
            Vector::Col(c) => c.is_null(i),
        }
    }
}

/// Three-valued AND/OR. The left side is already evaluated; the right side
/// only evaluates when the left cannot short-circuit it away, and a right
/// side that fails to vectorize drops the whole expression to the per-row
/// path (preserving the interpreter's lazy short-circuit errors).
#[allow(clippy::too_many_arguments)]
fn logical_vec(
    op: BinOp,
    l: Vector,
    right: &Expr,
    whole: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    if let Vector::Const(c) = &l {
        let lb = c.as_bool();
        match (op, lb) {
            (BinOp::And, Some(false)) => return Ok(Vector::Const(Value::Bool(false))),
            (BinOp::Or, Some(true)) => return Ok(Vector::Const(Value::Bool(true))),
            _ => {}
        }
    }
    let r = match eval_vec(right, rel, ctx, outer) {
        Ok(r) => r,
        Err(_) => return eval_per_row(whole, rel, ctx, outer),
    };
    if let Some((a, b)) = bool_cols_fast(&l, &r) {
        let values: Vec<bool> = match op {
            BinOp::And => a.iter().zip(b).map(|(&x, &y)| x && y).collect(),
            _ => a.iter().zip(b).map(|(&x, &y)| x || y).collect(),
        };
        return Ok(Vector::owned(ColumnData::Bool {
            values,
            nulls: NullMask::all_valid(rel.len),
        }));
    }
    // Nullable boolean columns: word-level Kleene kernel, 64 rows per step
    // (the per-row three-valued loop below only remains for Const/Int64
    // operands).
    if let (Some((av, an)), Some((bv, bn))) = (bool_col_parts(&l), bool_col_parts(&r)) {
        let k = if op == BinOp::And {
            Kleene::And
        } else {
            Kleene::Or
        };
        let (values, nulls) = kernels::kleene(k, av, an, bv, bn);
        return Ok(Vector::owned(ColumnData::Bool { values, nulls }));
    }
    let mut out = BoolBuilder::with_capacity(rel.len);
    for i in 0..rel.len {
        let a = l.bool3(i);
        let b = r.bool3(i);
        let v = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("logical_vec on non-logical op"),
        };
        out.push(v);
    }
    Ok(out.finish())
}

/// `v BETWEEN lo AND hi`: NULL when either bound comparison is unknown,
/// else `(ge && le) != negated` — matching the scalar `eval_between`.
fn between_vec(
    v: &Vector,
    lo: &Vector,
    hi: &Vector,
    negated: bool,
    n: usize,
) -> Result<Vector, EngineError> {
    let ge = binary_vec(BinOp::GtEq, v, lo, n)?;
    let le = binary_vec(BinOp::LtEq, v, hi, n)?;
    if let (Vector::Const(a), Vector::Const(b)) = (&ge, &le) {
        return Ok(Vector::Const(eval_between_bools(
            a.as_bool(),
            b.as_bool(),
            negated,
        )));
    }
    if let Some((a, b)) = bool_cols_fast(&ge, &le) {
        let values: Vec<bool> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x && y) != negated)
            .collect();
        return Ok(Vector::owned(ColumnData::Bool {
            values,
            nulls: NullMask::all_valid(n),
        }));
    }
    // Nullable bound predicates: word-level BETWEEN combiner.
    if let (Some((av, an)), Some((bv, bn))) = (bool_col_parts(&ge), bool_col_parts(&le)) {
        let (values, nulls) = kernels::between_combine(av, an, bv, bn, negated);
        return Ok(Vector::owned(ColumnData::Bool { values, nulls }));
    }
    let mut out = BoolBuilder::with_capacity(n);
    for i in 0..n {
        match eval_between_bools(ge.bool3(i), le.bool3(i), negated) {
            Value::Bool(b) => out.push(Some(b)),
            _ => out.push(None),
        }
    }
    Ok(out.finish())
}

fn eval_between_bools(ge: Option<bool>, le: Option<bool>, negated: bool) -> Value {
    match (ge, le) {
        (Some(a), Some(b)) => Value::Bool((a && b) != negated),
        _ => Value::Null,
    }
}

/// Membership of each row of `v` in a constant item set: any match ⇒
/// `!negated`; otherwise NULL if any comparison was unknown, else
/// `negated`. Typed fast paths hash integer and string sets.
fn membership_vec(v: &Vector, items: &[Value], negated: bool, n: usize) -> Vector {
    use std::collections::HashSet;
    let any_null_item = items.iter().any(|c| c.is_null());
    // Fast path: integer-like column probed against an all-integer set
    // (bit-exact with the scalar f64 comparison: i64→f64 casts never
    // produce -0.0 or NaN).
    if let Vector::Col(c) = v {
        if let ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } =
            c.as_ref()
        {
            if items
                .iter()
                .all(|c| matches!(c, Value::Int(_) | Value::Date(_) | Value::Null))
            {
                // Date↔Int comparison is numeric in `sql_eq`, so a joint
                // f64-bits set is exact.
                let set: HashSet<u64> = items
                    .iter()
                    .filter_map(|c| c.as_f64())
                    .map(|f| f.to_bits())
                    .collect();
                let mut out = BoolBuilder::with_capacity(n);
                for (i, x) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.contains(&(*x as f64).to_bits()) {
                        out.push(Some(!negated));
                    } else if any_null_item {
                        out.push(None);
                    } else {
                        out.push(Some(negated));
                    }
                }
                return out.finish();
            }
        }
        if let ColumnData::Dict { codes, nulls, .. } = c.as_ref() {
            if items
                .iter()
                .all(|c| matches!(c, Value::Str(_) | Value::Null))
            {
                // Resolve each item to a dictionary code once; the probe
                // then tests integer codes only.
                let mut set: Vec<u32> = items
                    .iter()
                    .filter_map(|c| c.as_str())
                    .filter_map(|s| c.dict_code_of(s)?.ok())
                    .collect();
                set.sort_unstable();
                set.dedup();
                if !any_null_item {
                    // SIMD IN kernel: misses are plain `negated`, so the
                    // result is contains-XOR-negated with NULLs knocked out.
                    let mut out = kernels::in_set_u32(codes, &set);
                    if negated {
                        for v in out.iter_mut() {
                            *v = !*v;
                        }
                    }
                    kernels::zero_nulls(&mut out, nulls);
                    return Vector::owned(ColumnData::Bool {
                        values: out,
                        nulls: nulls.clone(),
                    });
                }
                let mut out = BoolBuilder::with_capacity(n);
                for (i, code) in codes.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.binary_search(code).is_ok() {
                        out.push(Some(!negated));
                    } else {
                        // A NULL item makes every miss unknown.
                        out.push(None);
                    }
                }
                return out.finish();
            }
        }
        if let ColumnData::Utf8 { values, nulls } = c.as_ref() {
            if items
                .iter()
                .all(|c| matches!(c, Value::Str(_) | Value::Null))
            {
                let set: HashSet<&str> = items.iter().filter_map(|c| c.as_str()).collect();
                let mut out = BoolBuilder::with_capacity(n);
                for (i, x) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.contains(x.as_str()) {
                        out.push(Some(!negated));
                    } else if any_null_item {
                        out.push(None);
                    } else {
                        out.push(Some(negated));
                    }
                }
                return out.finish();
            }
        }
    }
    // Generic scan replicating the scalar IN loop.
    let one = |val: Value| -> Option<bool> {
        let mut saw_null = false;
        for item in items {
            match val.sql_eq(item) {
                Some(true) => return Some(!negated),
                Some(false) => {}
                None => saw_null = true,
            }
        }
        if saw_null {
            None
        } else {
            Some(negated)
        }
    };
    match v {
        Vector::Const(c) => match one(c.clone()) {
            Some(b) => Vector::Const(Value::Bool(b)),
            None => Vector::Const(Value::Null),
        },
        _ => {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(one(v.value(i)));
            }
            out.finish()
        }
    }
}

// ---------------------------------------------------------------------------
// Group-level evaluation
// ---------------------------------------------------------------------------

/// Evaluate an expression in aggregate context, producing one value per
/// group. Aggregate arguments are evaluated densely over the whole
/// relation once; per-group combination uses the scalar kernels (a few
/// values per group). Expressions the scalar interpreter evaluates against
/// the representative row — columns, literals, correlated subqueries —
/// do the same here.
pub(crate) fn eval_grouped_vec(
    expr: &Expr,
    rel: &VecRelation,
    groups: &[Vec<u32>],
    gid: Option<&[u32]>,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vec<Value>, EngineError> {
    // No groups ⇒ the scalar interpreter's per-group loop never runs and
    // no sub-expression (even an erroring one) is evaluated.
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    match expr {
        Expr::Func { name, args } if is_aggregate_function(name) => match rel.maintained(expr) {
            // Incremental view maintenance finalizes over one row per group
            // that carries each aggregate's running value (see
            // `crate::ivm`); groups are never empty there.
            Some(ci) => Ok(groups.iter().map(|g| rel.cell(ci, g[0] as usize)).collect()),
            None => eval_aggregate_vec(name, args, rel, groups, gid, ctx, outer),
        },
        Expr::Unary { op, expr: inner } => {
            let vals = eval_grouped_vec(inner, rel, groups, gid, ctx, outer)?;
            vals.into_iter().map(|v| apply_unary(*op, v)).collect()
        }
        Expr::Binary { left, op, right } => {
            let lvals = eval_grouped_vec(left, rel, groups, gid, ctx, outer)?;
            if *op == BinOp::And || *op == BinOp::Or {
                // Eager right side when it evaluates cleanly; lazy per-group
                // fallback preserves short-circuit on errors.
                return match eval_grouped_vec(right, rel, groups, gid, ctx, outer) {
                    Ok(rvals) => lvals
                        .into_iter()
                        .zip(rvals)
                        .map(|(l, r)| eval_logical(*op, l, || Ok(r)))
                        .collect(),
                    Err(_) => lvals
                        .into_iter()
                        .enumerate()
                        .map(|(g, l)| {
                            eval_logical(*op, l, || {
                                // Evaluate the right side over THIS group's
                                // rows only: dense aggregate arguments must
                                // not touch rows of groups whose left side
                                // short-circuited (the scalar interpreter
                                // never evaluates them, and another group's
                                // row could be one that errors).
                                let sub = rel.gather(&groups[g]);
                                let local: Vec<u32> = (0..sub.len as u32).collect();
                                eval_grouped_vec(right, &sub, &[local], None, ctx, outer)
                                    .map(|mut v| v.pop().expect("one group in, one value out"))
                            })
                        })
                        .collect(),
                };
            }
            let rvals = eval_grouped_vec(right, rel, groups, gid, ctx, outer)?;
            lvals
                .into_iter()
                .zip(rvals)
                .map(|(l, r)| apply_binary(*op, l, r))
                .collect()
        }
        Expr::Between {
            expr: inner,
            negated,
            low,
            high,
        } => {
            let v = eval_grouped_vec(inner, rel, groups, gid, ctx, outer)?;
            let lo = eval_grouped_vec(low, rel, groups, gid, ctx, outer)?;
            let hi = eval_grouped_vec(high, rel, groups, gid, ctx, outer)?;
            v.into_iter()
                .zip(lo.into_iter().zip(hi))
                .map(|(v, (lo, hi))| eval_between(&v, &lo, &hi, *negated))
                .collect()
        }
        Expr::Func { name, args } => {
            let argvals = args
                .iter()
                .map(|a| eval_grouped_vec(a, rel, groups, gid, ctx, outer))
                .collect::<Result<Vec<_>, _>>()?;
            // One closure serves both paths: the pool runs it over chunks
            // of whole groups, the sequential fallback over [0, len).
            let eval_range = |lo: usize, hi: usize| {
                (lo..hi)
                    .map(|g| {
                        let vals: Vec<Value> = argvals.iter().map(|a| a[g].clone()).collect();
                        apply_scalar_function(name, &vals, ctx)
                    })
                    .collect::<Result<Vec<Value>, EngineError>>()
            };
            if let Some(out) =
                crate::par::parallel_grouped_eval(groups.len(), rel.len, ctx, &eval_range)
            {
                return out;
            }
            eval_range(0, groups.len())
        }
        Expr::Literal(l) => Ok(vec![literal_value(l); groups.len()]),
        Expr::Column { table, name } if rel.lookup(table.as_deref(), name).is_some() => {
            let ci = rel.lookup(table.as_deref(), name).expect("checked");
            Ok(groups
                .iter()
                .map(|idx| match idx.first() {
                    Some(&i) => rel.cell(ci, i as usize),
                    // Empty group + bare column: the scalar interpreter
                    // indexes an empty representative row here and panics;
                    // match its Scope semantics short of the panic.
                    None => Value::Null,
                })
                .collect())
        }
        // Representative-row semantics (correlated subqueries, IN, IS NULL,
        // outer columns): one scalar evaluation per group. Representative
        // rows materialize up front so the pool can share them (the lazy
        // column cache is not Sync); the sequential fallback pays the same
        // per-group row cost it always did.
        other => {
            let rows: Vec<Vec<Value>> = groups
                .iter()
                .map(|idx| match idx.first() {
                    Some(&i) => rel.row(i as usize),
                    None => Vec::new(),
                })
                .collect();
            let cols = &rel.cols;
            let eval_range = |lo: usize, hi: usize| {
                (lo..hi)
                    .map(|g| {
                        let scope = Scope {
                            cols,
                            row: &rows[g],
                            parent: outer,
                        };
                        eval::eval_expr(other, &scope, ctx)
                    })
                    .collect::<Result<Vec<Value>, EngineError>>()
            };
            if let Some(out) =
                crate::par::parallel_grouped_eval(groups.len(), rel.len, ctx, &eval_range)
            {
                return out;
            }
            eval_range(0, groups.len())
        }
    }
}

fn eval_aggregate_vec(
    name: &str,
    args: &[Expr],
    rel: &VecRelation,
    groups: &[Vec<u32>],
    gid: Option<&[u32]>,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vec<Value>, EngineError> {
    let lname = name.to_ascii_lowercase();
    // count(*) counts rows including NULLs.
    if lname == "count" && matches!(args.first(), Some(Expr::Star) | None) {
        return Ok(groups
            .iter()
            .map(|idx| Value::Int(idx.len() as i64))
            .collect());
    }
    let arg = args
        .first()
        .ok_or_else(|| EngineError::BadFunction(format!("{name} needs an argument")))?;
    // Evaluate the argument densely, once for all groups.
    let argv = eval_vec(arg, rel, ctx, outer)?;
    let col = argv.into_column(rel.len);
    // Fused path: when grouping produced per-row group ids, sum/avg/count
    // accumulate all groups in ONE sequential pass over the column instead
    // of one strided gather per group — the per-group gathers each touch
    // cache lines spread across the whole column, so at 10⁷ rows this is
    // an order of magnitude less memory traffic. Per-group accumulation
    // order is ascending row order, exactly the per-group fold's.
    if let Some(gid) = gid {
        if let Some(out) = aggregate_fused(&lname, &col, groups.len(), gid) {
            return Ok(out);
        }
    }
    // Parallel path: contiguous chunks of whole groups (a group's rows are
    // never split, so float accumulation order is untouched).
    if let Some(out) = crate::par::parallel_aggregate_over(&lname, name, &col, groups, rel.len, ctx)
    {
        return out;
    }
    let mut out = Vec::with_capacity(groups.len());
    for idx in groups {
        out.push(aggregate_over(&lname, name, &col, idx)?);
    }
    Ok(out)
}

/// Single-pass grouped sum/avg/count over a typed numeric column using
/// per-row group ids, bit-identical to [`aggregate_over`] run per group:
/// rows accumulate into their group's slot in ascending row order — the
/// same f64 additions, in the same order, as the per-group fold (the
/// `sum_i64` kernel's integer fast path only engages when those additions
/// are all exact, so its results coincide too). `None` defers to the
/// per-group paths.
fn aggregate_fused(
    lname: &str,
    col: &ColumnData,
    n_groups: usize,
    gid: &[u32],
) -> Option<Vec<Value>> {
    enum Kind {
        Int,
        Date,
        Float,
    }
    let (kind, nulls) = match col {
        ColumnData::Int64 { nulls, .. } => (Kind::Int, nulls),
        ColumnData::Date64 { nulls, .. } => (Kind::Date, nulls),
        ColumnData::Float64 { nulls, .. } => (Kind::Float, nulls),
        _ => return None,
    };
    if !matches!(lname, "sum" | "avg" | "count") {
        return None;
    }
    debug_assert_eq!(gid.len(), col.len());
    if lname == "count" {
        // Count of non-null rows per group; order-independent.
        let mut counts = vec![0i64; n_groups];
        for (i, &g) in gid.iter().enumerate() {
            counts[g as usize] += !nulls.is_null(i) as i64;
        }
        return Some(counts.into_iter().map(Value::Int).collect());
    }
    let mut totals = vec![0.0f64; n_groups];
    let mut counts = vec![0i64; n_groups];
    match col {
        ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
            for (i, &v) in values.iter().enumerate() {
                if nulls.is_null(i) {
                    continue;
                }
                let g = gid[i] as usize;
                totals[g] += v as f64;
                counts[g] += 1;
            }
        }
        ColumnData::Float64 { values, nulls } => {
            for (i, &v) in values.iter().enumerate() {
                if nulls.is_null(i) {
                    continue;
                }
                let g = gid[i] as usize;
                totals[g] += v;
                counts[g] += 1;
            }
        }
        _ => unreachable!("matched above"),
    }
    let avg = lname == "avg";
    Some(
        totals
            .into_iter()
            .zip(counts)
            .map(|(total, count)| {
                if count == 0 {
                    Value::Null
                } else if avg {
                    Value::Float(total / count as f64)
                } else {
                    match kind {
                        Kind::Int => Value::Int(total as i64),
                        // Date sums degrade to Float in the generic fold.
                        Kind::Date | Kind::Float => Value::Float(total),
                    }
                }
            })
            .collect(),
    )
}

/// One aggregate over one group's rows of a dense argument column,
/// matching the scalar `eval_aggregate` (NULLs skipped; `sum` stays Int
/// only when every non-null value is an Int; min/max keep the scalar
/// iterator's first-min/last-max tie behavior).
pub(crate) fn aggregate_over(
    lname: &str,
    name: &str,
    col: &ColumnData,
    idx: &[u32],
) -> Result<Value, EngineError> {
    if let Some(v) = aggregate_over_typed(lname, col, idx) {
        return Ok(v);
    }
    let mut acc = Acc::new(lname, name)?;
    acc.fold(Some(col), idx);
    Ok(acc.value())
}

/// A running aggregate, folded in ascending row order: the generic path of
/// [`aggregate_over`] folds one group's rows onto a fresh one, and
/// incremental view maintenance (`crate::ivm`) keeps one per group and
/// aggregate, folding each append's rows onto it — so a maintained float
/// `sum` adds the same f64s in the same order as one fold over the whole
/// appended table.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    /// `count`: non-null rows (every row for `count(*)`).
    Count(i64),
    /// `sum`/`avg`: the total of `n` non-null rows, and whether every one
    /// was an Int (a `sum` then stays Int).
    Sum {
        total: f64,
        n: i64,
        all_int: bool,
        avg: bool,
    },
    /// `min`: the first minimal value so far.
    Min(Option<Value>),
    /// `max`: the last maximal value so far.
    Max(Option<Value>),
}

impl Acc {
    /// A fresh accumulator for aggregate `lname` (lowercased `name`).
    pub(crate) fn new(lname: &str, name: &str) -> Result<Acc, EngineError> {
        Ok(match lname {
            "count" => Acc::Count(0),
            "sum" | "avg" => Acc::Sum {
                total: 0.0,
                n: 0,
                all_int: true,
                avg: lname == "avg",
            },
            "min" => Acc::Min(None),
            "max" => Acc::Max(None),
            _ => return Err(EngineError::BadFunction(name.to_string())),
        })
    }

    /// Fold rows `idx` (ascending) of `col` onto the running value. `None`
    /// stands for `count(*)`'s argument: every row counts.
    pub(crate) fn fold(&mut self, col: Option<&ColumnData>, idx: &[u32]) {
        let Some(col) = col else {
            if let Acc::Count(n) = self {
                *n += idx.len() as i64;
            }
            return;
        };
        let want_min = matches!(self, Acc::Min(_));
        match self {
            Acc::Count(n) => *n += idx.iter().filter(|&&i| !col.is_null(i as usize)).count() as i64,
            Acc::Sum {
                total, n, all_int, ..
            } => {
                let int_col = matches!(col, ColumnData::Int64 { .. });
                for &i in idx {
                    let i = i as usize;
                    if col.is_null(i) {
                        continue;
                    }
                    *n += 1;
                    if let Some(f) = col.numeric(i) {
                        *total += f;
                    }
                    *all_int &= int_col
                        || matches!(col, ColumnData::Mixed(vals) if matches!(vals[i], Value::Int(_)));
                }
            }
            Acc::Min(best) | Acc::Max(best) => {
                // This batch's first minimal / last maximal row, then the
                // same tie rule against the value carried in.
                let mut pick: Option<u32> = None;
                for &i in idx {
                    if col.is_null(i as usize) {
                        continue;
                    }
                    pick = Some(match pick {
                        Some(b) if !replaces(col.cmp_at(i as usize, col, b as usize), want_min) => {
                            b
                        }
                        _ => i,
                    });
                }
                if let Some(i) = pick {
                    let v = col.value(i as usize);
                    if best.as_ref().is_none_or(|b| replaces(v.cmp(b), want_min)) {
                        *best = Some(v);
                    }
                }
            }
        }
    }

    /// The aggregate's value over every row folded so far.
    pub(crate) fn value(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::Sum { n: 0, .. } => Value::Null,
            Acc::Sum {
                total,
                n,
                avg: true,
                ..
            } => Value::Float(*total / *n as f64),
            Acc::Sum {
                total,
                all_int: true,
                ..
            } => Value::Int(*total as i64),
            Acc::Sum { total, .. } => Value::Float(*total),
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// Whether a candidate ordered `ord` against the current best replaces it:
/// `min` keeps the first minimal value, `max` takes the last maximal one
/// (the row interpreter's `Iterator::min`/`max` ties).
fn replaces(ord: Ordering, want_min: bool) -> bool {
    if want_min {
        ord == Ordering::Less
    } else {
        ord != Ordering::Less
    }
}

/// Typed SIMD-kernel fast paths for [`aggregate_over`], bit-identical to
/// the generic folds (the integer-sum and min/max kernels prove a 2⁵³
/// exactness bound before skipping the sequential f64 accumulation; f64
/// sums are never reassociated). `None` defers to the generic code.
fn aggregate_over_typed(lname: &str, col: &ColumnData, idx: &[u32]) -> Option<Value> {
    match col {
        ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
            let is_int = matches!(col, ColumnData::Int64 { .. });
            match lname {
                "count" => Some(Value::Int(kernels::count_valid(nulls, idx) as i64)),
                "min" | "max" => Some(
                    kernels::min_max_i64(values, nulls, idx, lname == "min")
                        .map(|v| {
                            if is_int {
                                Value::Int(v)
                            } else {
                                Value::Date(v)
                            }
                        })
                        .unwrap_or(Value::Null),
                ),
                "sum" | "avg" => {
                    let (total, count) = kernels::sum_i64(values, nulls, idx);
                    if count == 0 {
                        return Some(Value::Null);
                    }
                    Some(if lname == "avg" {
                        Value::Float(total / count as f64)
                    } else if is_int {
                        Value::Int(total as i64)
                    } else {
                        // Date sums degrade to Float in the generic fold.
                        Value::Float(total)
                    })
                }
                _ => None,
            }
        }
        ColumnData::Float64 { values, nulls } => match lname {
            "count" => Some(Value::Int(kernels::count_valid(nulls, idx) as i64)),
            "min" | "max" => Some(
                kernels::min_max_f64(values, nulls, idx, lname == "min")
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
            ),
            "sum" | "avg" => {
                let (total, count) = kernels::sum_f64(values, nulls, idx);
                if count == 0 {
                    return Some(Value::Null);
                }
                Some(if lname == "avg" {
                    Value::Float(total / count as f64)
                } else {
                    Value::Float(total)
                })
            }
            _ => None,
        },
        _ => None,
    }
}
