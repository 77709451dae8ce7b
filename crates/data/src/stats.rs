//! Column statistics backing the catalogue.
//!
//! PI2 consults these in three places: attribute-type domains for `VAL`
//! generalisation (§2 "initialized with the minimum and maximum of attribute
//! a and b's domains"), the cardinality-below-20 categorical rule (§4.1), and
//! widget initialisation (radio/dropdown option lists).

use crate::column::{f64_ord_key, ColumnData};
use crate::hash::FastSet;
use crate::table::Table;
use crate::value::Value;

/// Per-column summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub distinct_count: usize,
    /// Domain minimum (non-null), if the column is non-empty.
    pub min: Option<Value>,
    /// Domain maximum (non-null), if the column is non-empty.
    pub max: Option<Value>,
    /// The distinct values themselves, retained only when there are at most
    /// [`ColumnStats::DISTINCT_RETENTION_LIMIT`]; enough for widget domains.
    pub distinct_values: Option<Vec<Value>>,
    /// Whether all non-null values are unique (candidate key).
    pub unique: bool,
}

impl ColumnStats {
    /// Retain explicit distinct-value lists only for low-cardinality columns.
    /// The categorical cutoff in §4.1 is 20; we keep a little slack so that
    /// widget domains for borderline columns remain available.
    pub const DISTINCT_RETENTION_LIMIT: usize = 64;

    /// Compute statistics for column `idx` of `table` in one O(rows) pass
    /// over the typed storage: distinct values go through a primitive-keyed
    /// hash set (not a whole-column sort/dedup, which allocated a full copy
    /// and cost O(rows · log rows) on the 10⁷-row tier), min/max fold
    /// inline, and the non-null count reads the null bitmap. Only the
    /// retained distinct-value *list* (at most
    /// [`ColumnStats::DISTINCT_RETENTION_LIMIT`] entries) is ever sorted.
    /// The column is read in place — morsel-chunked scans elsewhere never
    /// re-materialize it here.
    pub fn compute(table: &Table, idx: usize) -> ColumnStats {
        // Fold one column variant: `K: the primitive distinct key`, ordered
        // by `ord`, materialized by `val`. Returns the finished stats so
        // every variant shares the retention/uniqueness logic.
        fn fold<K, I, Ord2, V>(rows: I, ord: Ord2, val: V, non_null_total: usize) -> ColumnStats
        where
            K: Copy + Eq + std::hash::Hash,
            I: Iterator<Item = K>,
            Ord2: Fn(&K, &K) -> std::cmp::Ordering,
            V: Fn(K) -> Value,
        {
            let mut seen: FastSet<K> = FastSet::default();
            let (mut min, mut max): (Option<K>, Option<K>) = (None, None);
            for k in rows {
                seen.insert(k);
                match &mut min {
                    Some(m) if ord(&k, m).is_lt() => *m = k,
                    None => min = Some(k),
                    _ => {}
                }
                match &mut max {
                    Some(m) if ord(&k, m).is_ge() => *m = k,
                    None => max = Some(k),
                    _ => {}
                }
            }
            let distinct_count = seen.len();
            let distinct_values =
                (distinct_count <= ColumnStats::DISTINCT_RETENTION_LIMIT).then(|| {
                    let mut keys: Vec<K> = seen.into_iter().collect();
                    keys.sort_unstable_by(&ord);
                    keys.into_iter().map(&val).collect()
                });
            ColumnStats {
                distinct_count,
                min: min.map(&val),
                max: max.map(&val),
                distinct_values,
                unique: non_null_total == distinct_count,
            }
        }

        // Non-null items of a typed column, in row order.
        fn valid<'a, T>(
            values: &'a [T],
            nulls: &'a crate::column::NullMask,
        ) -> impl Iterator<Item = &'a T> + 'a {
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| !nulls.is_null(*i))
                .map(|(_, v)| v)
        }

        let non_null_total = table.non_null_count(idx);
        match table.col(idx) {
            ColumnData::Int64 { values, nulls } => fold(
                valid(values, nulls).copied(),
                i64::cmp,
                Value::Int,
                non_null_total,
            ),
            ColumnData::Date64 { values, nulls } => fold(
                valid(values, nulls).copied(),
                i64::cmp,
                Value::Date,
                non_null_total,
            ),
            // Floats key by bit pattern (NaNs and -0.0/0.0 stay distinct,
            // matching `Table::distinct_values`) and order by the IEEE754
            // total order.
            ColumnData::Float64 { values, nulls } => fold(
                valid(values, nulls).map(|v| v.to_bits()),
                |a, b| f64_ord_key(f64::from_bits(*a)).cmp(&f64_ord_key(f64::from_bits(*b))),
                |bits| Value::Float(f64::from_bits(bits)),
                non_null_total,
            ),
            ColumnData::Utf8 { values, nulls } => fold(
                valid(values, nulls).map(String::as_str),
                |a, b| a.cmp(b),
                |s| Value::Str(s.to_string()),
                non_null_total,
            ),
            // Dictionary codes already order like their strings (sorted
            // dictionary invariant), so a seen-bitmap replaces the hash set.
            ColumnData::Dict { codes, dict, nulls } => {
                let mut seen = vec![false; dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    if !nulls.is_null(i) {
                        seen[c as usize] = true;
                    }
                }
                let used: Vec<u32> = (0..dict.len() as u32)
                    .filter(|&c| seen[c as usize])
                    .collect();
                fold(
                    used.into_iter(),
                    u32::cmp,
                    |c| Value::Str(dict[c as usize].clone()),
                    non_null_total,
                )
            }
            ColumnData::Bool { values, nulls } => fold(
                valid(values, nulls).copied(),
                bool::cmp,
                Value::Bool,
                non_null_total,
            ),
            // The rare heterogeneous escape hatch pays `Value` clones.
            ColumnData::Mixed(values) => {
                let vals: Vec<Value> = values.iter().filter(|v| !v.is_null()).cloned().collect();
                fold(
                    vals.iter().collect::<Vec<&Value>>().into_iter(),
                    |a, b| a.cmp(b),
                    |v| v.clone(),
                    non_null_total,
                )
            }
        }
    }

    /// The §4.1 rule: a column is usable as a categorical visual variable
    /// when its cardinality is below 20.
    pub fn is_low_cardinality(&self) -> bool {
        self.distinct_count > 0 && self.distinct_count < 20
    }

    /// Merge the stats of an appended chunk into a base column's stats
    /// incrementally (O(distinct), never O(rows)). Min/max are exact.
    /// When both sides retained their distinct-value lists the merged
    /// distinct count and uniqueness stay exact — the union is unique
    /// exactly when both sides are and no value repeats across them;
    /// otherwise the distinct count is the lower bound `max(base, delta)`
    /// and uniqueness degrades to `false` — stats are advisory (widget
    /// domains, categorical cutoffs), executor correctness never depends
    /// on them.
    pub fn merge(&self, delta: &ColumnStats) -> ColumnStats {
        fn tighter(a: &Option<Value>, b: &Option<Value>, keep_lt: bool) -> Option<Value> {
            match (a, b) {
                (Some(x), Some(y)) => Some(if (y < x) == keep_lt {
                    y.clone()
                } else {
                    x.clone()
                }),
                (Some(x), None) => Some(x.clone()),
                (None, Some(y)) => Some(y.clone()),
                (None, None) => None,
            }
        }
        let min = tighter(&self.min, &delta.min, true);
        let max = tighter(&self.max, &delta.max, false);
        match (&self.distinct_values, &delta.distinct_values) {
            (Some(a), Some(b)) => {
                let mut union: Vec<Value> = a.iter().chain(b.iter()).cloned().collect();
                union.sort();
                union.dedup();
                let distinct_count = union.len();
                let unique = self.unique
                    && delta.unique
                    && distinct_count == self.distinct_count + delta.distinct_count;
                ColumnStats {
                    distinct_count,
                    min,
                    max,
                    distinct_values: (distinct_count <= Self::DISTINCT_RETENTION_LIMIT)
                        .then_some(union),
                    unique,
                }
            }
            _ => ColumnStats {
                distinct_count: self.distinct_count.max(delta.distinct_count),
                min,
                max,
                distinct_values: None,
                unique: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Table};
    use crate::types::DataType;

    fn table_with_ints(vals: Vec<i64>) -> Table {
        Table::from_rows(
            vec![("x", DataType::Int)],
            vals.into_iter().map(|v| vec![Value::Int(v)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn basic_stats() {
        let t = table_with_ints(vec![3, 1, 2, 2, 3]);
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.distinct_count, 3);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(3)));
        assert!(!s.unique);
        assert_eq!(
            s.distinct_values,
            Some(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn uniqueness_detected() {
        let t = table_with_ints((0..10).collect());
        let s = ColumnStats::compute(&t, 0);
        assert!(s.unique);
    }

    #[test]
    fn cardinality_rule_matches_paper_threshold() {
        let t = table_with_ints((0..19).collect());
        assert!(ColumnStats::compute(&t, 0).is_low_cardinality());
        let t = table_with_ints((0..20).collect());
        assert!(!ColumnStats::compute(&t, 0).is_low_cardinality());
        // Empty columns are not categorical — there is nothing to enumerate.
        let t = table_with_ints(vec![]);
        assert!(!ColumnStats::compute(&t, 0).is_low_cardinality());
    }

    #[test]
    fn high_cardinality_drops_value_list() {
        let t = table_with_ints((0..100).collect());
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.distinct_count, 100);
        assert!(s.distinct_values.is_none());
        assert_eq!(s.min, Some(Value::Int(0)));
        assert_eq!(s.max, Some(Value::Int(99)));
    }

    /// The single-pass rewrite on a 10⁷-row generated column: exact
    /// distinct count, min/max, and no retained value list — without the
    /// old whole-column sort (this test is why `compute` must stay
    /// O(rows)).
    #[test]
    fn ten_million_row_column_single_pass() {
        let n = 10_000_000usize;
        let mut seed = 0x5EEDu64;
        let values: Vec<i64> = (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z % 1000) as i64
            })
            .collect();
        let schema = crate::table::Schema::new(vec![Column::new("x", DataType::Int)]);
        let t = Table::from_columns(schema, vec![ColumnData::ints(values)]).unwrap();
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.distinct_count, 1000);
        assert_eq!(s.min, Some(Value::Int(0)));
        assert_eq!(s.max, Some(Value::Int(999)));
        assert!(s.distinct_values.is_none());
        assert!(!s.unique);
    }

    #[test]
    fn nulls_excluded_from_stats() {
        let mut t = table_with_ints(vec![5]);
        t.push_row(vec![Value::Null]).unwrap();
        let s = ColumnStats::compute(&t, 0);
        assert_eq!(s.distinct_count, 1);
        assert!(s.unique);
    }
}
