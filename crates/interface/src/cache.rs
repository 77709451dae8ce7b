//! Process-wide evaluation cache for mapping-context construction.
//!
//! Reward estimation (§6.2.1) builds a [`crate::MappingContext`] for every
//! search state it evaluates. Almost everything in that context is a pure
//! function of *(tree structure, the query set the tree expresses,
//! catalogue)* — not of the particular forest — so this cache memoizes it
//! per tree fingerprint and shares it across every search state **and every
//! parallel worker** (the map is sharded by key to keep lock contention
//! negligible). Executed query results are likewise cached once per input
//! query, because binding verification guarantees a tree's resolved queries
//! are exactly the workload's original queries.
//!
//! Cached artifacts store **tree-local** node ids (tree roots are id 0), so
//! an artifact computed for a tree in one forest transfers unchanged to any
//! other forest sharing that tree; [`crate::MappingContext::build`] offsets
//! ids to forest-global space on assembly.

use crate::flat::{flatten_node, FlatSchema};
use crate::vis::{vis_mapping_candidates, VisMapping};
use crate::widget::{widget_candidates, WidgetCandidate};
use pi2_data::hash::fnv1a_64;
use pi2_data::{Catalog, CatalogDelta, ShardedMemo, Table};
use pi2_difftree::{
    infer_types_cached, result_schema, BindingMap, Forest, ResultSchema, Tree, TypeMap, Workload,
};
use pi2_engine::{execute, ExecContext, IvmState};
use pi2_sql::ast::Query;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const MAX_ENTRIES_PER_SHARD: usize = 8_192;

/// Everything about one (tree, expressed-query-set) pair that mapping
/// candidate generation needs, with tree-local node ids.
#[derive(Debug)]
pub struct TreeArtifacts {
    /// Inferred node types (tree-local ids).
    pub types: Arc<TypeMap>,
    /// §3.2.2 result schema over the expressed queries.
    pub schema: ResultSchema,
    /// Candidate visualization mappings.
    pub vis_cands: Vec<VisMapping>,
    /// Candidate widgets (tree-local target/cover ids).
    pub widget_cands: Vec<WidgetCandidate>,
    /// Flattenable dynamic nodes (tree-local ids).
    pub flats: Vec<(u32, FlatSchema)>,
    /// DFS-ordered choice node ids (tree-local).
    pub choice_ids: Vec<u32>,
    /// Executed result tables, one per expressed query (shared).
    pub results: Vec<Arc<Table>>,
}

/// Hit/miss counters of the executed-result memo, surfaced through the
/// session service's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to execute the query.
    pub misses: u64,
}

/// Counters for the live-data subsystem, surfaced under `live{…}` in
/// `/metrics`. All relaxed-atomic; monotone over the process lifetime.
#[derive(Debug, Default)]
pub struct LiveCounters {
    ivm_hits: AtomicU64,
    ivm_fallbacks: AtomicU64,
    invalidated_views: AtomicU64,
}

/// A point-in-time snapshot of [`LiveCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Result lookups served incrementally (state absorbed a delta, or was
    /// built fresh and will absorb the next one).
    pub ivm_hits: u64,
    /// Lookups whose table was touched by an append but whose query shape
    /// forced a full re-execution.
    pub ivm_fallbacks: u64,
    /// Cached result entries dropped by epoch-eviction sweeps.
    pub invalidated_views: u64,
}

/// Lock-sharded memo shared process-wide: per-tree mapping artifacts keyed
/// by (tree fp, qset hash, catalogue fp), executed query results keyed by
/// (catalogue fp, resolved-SQL fingerprint), and incremental-view states
/// keyed like results. All are the generic cap-checked [`ShardedMemo`]
/// from `pi2-data` (see the module docs).
///
/// The result memo is keyed by the *text* of the resolved query, so every
/// interaction state a session can reach shares one execution with every
/// other session (and with the search phase, whose initial queries resolve
/// to the workload's original SQL).
pub struct EvalCache {
    artifacts: ShardedMemo<(u64, u64, u64), Option<Arc<TreeArtifacts>>>,
    results: ShardedMemo<(u64, u64), Option<Arc<Table>>>,
    /// Incremental view-maintenance state per (catalogue fp, resolved-SQL
    /// fp): the accumulators that produced the result cached under the same
    /// key, ready to absorb the *next* append's delta.
    ivm: ShardedMemo<(u64, u64), Arc<IvmState>>,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    live: LiveCounters,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache {
            artifacts: ShardedMemo::new(MAX_ENTRIES_PER_SHARD),
            results: ShardedMemo::new(MAX_ENTRIES_PER_SHARD),
            ivm: ShardedMemo::new(MAX_ENTRIES_PER_SHARD),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            live: LiveCounters::default(),
        }
    }
}

/// The process-wide cache instance every mapping-context build shares.
pub fn global_eval_cache() -> &'static EvalCache {
    static CACHE: OnceLock<EvalCache> = OnceLock::new();
    CACHE.get_or_init(EvalCache::default)
}

/// A remote tier behind the executed-result memo: in a fleet, each
/// `(catalogue fp, resolved-SQL fp)` key has one owning node, and a local
/// miss consults the owner before paying for an execution (read-through),
/// while local computes are pushed to the owner afterwards (write-behind).
/// The tier is a *cache*, never a correctness dependency — `fetch`
/// returning `None` (miss, timeout, open circuit breaker) simply means
/// "compute locally".
pub trait RemoteResultTier: Send + Sync {
    /// Look `(catalog_fp, sql_fp)` up on the owning peer. `None` on a
    /// remote miss or any peer failure.
    fn fetch(&self, catalog_fp: u64, sql_fp: u64) -> Option<Table>;
    /// Hand a locally computed result to the owning peer (best-effort,
    /// typically queued behind the caller's back).
    fn publish(&self, catalog_fp: u64, sql_fp: u64, table: &Arc<Table>);
}

static REMOTE_RESULTS: OnceLock<Arc<dyn RemoteResultTier>> = OnceLock::new();

/// Install the process-wide remote result tier (one-shot; returns whether
/// this call installed it). `pi2-cluster` calls this when joining a fleet.
pub fn set_remote_result_tier(tier: Arc<dyn RemoteResultTier>) -> bool {
    REMOTE_RESULTS.set(tier).is_ok()
}

fn remote_result_tier() -> Option<&'static Arc<dyn RemoteResultTier>> {
    REMOTE_RESULTS.get()
}

/// Order-sensitive hash of a query set, over the queries' *content*
/// fingerprints — never their workload indices, which collide between
/// workloads sharing a catalogue.
fn qset_hash(w: &Workload, queries: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &q in queries {
        h = (h ^ w.gst_fps[q]).wrapping_mul(0x100_0000_01b3);
    }
    h ^ (queries.len() as u64) << 48
}

impl EvalCache {
    /// The executed result of input query `qi` (`None` when execution
    /// fails), computed once per (catalogue, query content).
    pub fn query_result(&self, w: &Workload, qi: usize) -> Option<Arc<Table>> {
        self.resolved_result(&w.catalog, &w.queries[qi])
    }

    /// The executed result of an arbitrary resolved query (`None` when
    /// execution fails), computed once per (catalogue, resolved-SQL
    /// fingerprint) and shared across every session and worker. This is the
    /// memo behind `Session` patch fills: identical interaction states in
    /// different sessions pay for one execution.
    pub fn resolved_result(&self, catalog: &Catalog, query: &Query) -> Option<Arc<Table>> {
        self.resolved_result_fp(catalog, fnv1a_64(query.to_string().as_bytes()), query)
    }

    /// Like [`EvalCache::resolved_result`], but with the resolved-SQL
    /// fingerprint (`fnv1a_64` over the query's SQL text) precomputed by
    /// the caller — sessions cache it per tree, so the memo-warm path
    /// never re-serialises the query.
    pub fn resolved_result_fp(
        &self,
        catalog: &Catalog,
        sql_fp: u64,
        query: &Query,
    ) -> Option<Arc<Table>> {
        let key = (catalog.fingerprint(), sql_fp);
        if let Some(hit) = self.results.get(&key) {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Append-aware paths: when this catalogue version was produced by
        // an append, the previous version's cache may still serve us —
        // unchanged tables carry entries forward, and IVM-shaped queries
        // absorb just the delta.
        if let Some(delta) = catalog.delta() {
            let referenced = pi2_engine::referenced_tables(query);
            let touched = delta.tables.keys().any(|t| referenced.contains(t));
            if !touched {
                // The append cannot have changed this result: copy the old
                // entry (including cached failures) to the new key.
                if let Some(prev) = self.results.get(&(delta.prev_fingerprint, sql_fp)) {
                    self.results.insert(key, prev.clone());
                    self.result_hits.fetch_add(1, Ordering::Relaxed);
                    return prev;
                }
            } else if pi2_engine::ivm::supported(query, catalog) {
                if let Some(value) = self.try_ivm(catalog, delta, sql_fp, query) {
                    self.live.ivm_hits.fetch_add(1, Ordering::Relaxed);
                    self.result_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(value);
                }
                self.live.ivm_fallbacks.fetch_add(1, Ordering::Relaxed);
            } else {
                self.live.ivm_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Local miss: in a fleet, ask the key's owning peer before
        // executing (read-through). A remote fill counts as a hit — the
        // query is served from the shared memo, just a remote shard of it.
        if let Some(tier) = remote_result_tier() {
            if let Some(table) = tier.fetch(key.0, key.1) {
                let value = Some(Arc::new(table));
                self.results.insert(key, value.clone());
                self.result_hits.fetch_add(1, Ordering::Relaxed);
                return value;
            }
        }
        self.result_misses.fetch_add(1, Ordering::Relaxed);
        let ctx = ExecContext::new(catalog);
        let value = execute(query, &ctx).ok().map(Arc::new);
        self.results.insert(key, value.clone());
        // Write-behind: hand successful computes to the owning peer.
        // Failures stay local — `None` marks "don't retry here", which is
        // not a fact worth exporting.
        if let Some(tier) = remote_result_tier() {
            if let Some(table) = &value {
                tier.publish(key.0, key.1, table);
            }
        }
        value
    }

    /// Serve one lookup incrementally: absorb the append's delta rows into
    /// the previous epoch's maintained state (or build the state fresh from
    /// the current catalogue when this query was never maintained), then
    /// cache both the finalized result and the state under the new
    /// fingerprint. `None` on any internal error — the caller falls back to
    /// full execution, so IVM can only ever degrade performance, never
    /// results.
    fn try_ivm(
        &self,
        catalog: &Catalog,
        delta: &CatalogDelta,
        sql_fp: u64,
        query: &Query,
    ) -> Option<Arc<Table>> {
        let (name, table_delta) = delta.tables.iter().next()?;
        let ctx = ExecContext::new(catalog);
        let prev_key = (delta.prev_fingerprint, sql_fp);
        let state = match self.ivm.get(&prev_key) {
            Some(prev) => {
                // Clone-then-absorb: a failed absorb discards the clone,
                // leaving the previous epoch's state intact.
                let mut state = (*prev).clone();
                state.absorb(query, name, &table_delta.rows, &ctx).ok()?;
                state
            }
            None => IvmState::build(query, &ctx).ok()?,
        };
        let table = Arc::new(state.finalize(query, &ctx).ok()?);
        let key = (catalog.fingerprint(), sql_fp);
        self.results.insert(key, Some(Arc::clone(&table)));
        self.ivm.insert(key, Arc::new(state));
        Some(table)
    }

    /// The epoch-tagged eviction sweep: drop every memo entry keyed to a
    /// retired catalogue fingerprint (two appends old — see
    /// `pi2_data::live`), including the analysis memo in `pi2-engine`.
    /// Dropped result entries count as invalidated views.
    pub fn evict_catalog(&self, catalog_fingerprint: u64) {
        let mut dropped: u64 = 0;
        self.results.retain(|(fp, _), _| {
            let keep = *fp != catalog_fingerprint;
            if !keep {
                dropped += 1;
            }
            keep
        });
        self.ivm.retain(|(fp, _), _| *fp != catalog_fingerprint);
        self.artifacts
            .retain(|(_, _, fp), _| *fp != catalog_fingerprint);
        pi2_engine::analyze::evict_analyses_for(catalog_fingerprint);
        self.live
            .invalidated_views
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// A snapshot of the live-data counters.
    pub fn live_stats(&self) -> LiveStats {
        LiveStats {
            ivm_hits: self.live.ivm_hits.load(Ordering::Relaxed),
            ivm_fallbacks: self.live.ivm_fallbacks.load(Ordering::Relaxed),
            invalidated_views: self.live.invalidated_views.load(Ordering::Relaxed),
        }
    }

    /// Local-only lookup by raw key parts, bypassing counters and the
    /// remote tier. The cluster peer server answers `MemoGet` frames with
    /// this — routing through [`EvalCache::resolved_result_fp`] would
    /// recurse into the fleet. Cached failures (`None` entries) read as
    /// misses: only successful results are shareable.
    pub fn peek_result(&self, catalog_fp: u64, sql_fp: u64) -> Option<Arc<Table>> {
        self.results.get(&(catalog_fp, sql_fp)).flatten()
    }

    /// Admit a result computed on (and pushed by) a remote peer, without
    /// touching the hit/miss counters.
    pub fn admit_result(&self, catalog_fp: u64, sql_fp: u64, table: Arc<Table>) {
        self.results.insert((catalog_fp, sql_fp), Some(table));
    }

    /// Pre-warm the result memo with every input query of a workload
    /// (registration-time entry point). Returns how many executed
    /// successfully. Sessions start at the input queries, so their first
    /// patches are memo-warm.
    pub fn warm_workload(&self, w: &Workload) -> usize {
        (0..w.queries.len())
            .filter(|&qi| self.query_result(w, qi).is_some())
            .count()
    }

    /// Pre-warm the per-tree mapping artifacts of a forest (types, schemas,
    /// candidates, flats) by building a throwaway mapping context. Returns
    /// whether the forest was mappable. Registration calls this once so
    /// concurrent sessions never rebuild artifacts.
    pub fn warm_forest(&self, forest: &Forest, w: &Workload) -> bool {
        crate::iface::MappingContext::build(forest, w).is_some()
    }

    /// Hit/miss counters of the executed-result memo.
    pub fn result_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.result_hits.load(Ordering::Relaxed),
            misses: self.result_misses.load(Ordering::Relaxed),
        }
    }

    /// Drop every cached executed result (benchmark cold-start path; the
    /// hit/miss counters are left running).
    pub fn clear_results(&self) {
        self.results.clear();
    }

    /// Artifacts for `tree` expressing `queries` (workload indices), with
    /// `maps` the per-query bindings (tree-local). `None` when the tree has
    /// no defined result schema — cached too, since the search revisits
    /// unmappable trees.
    pub fn tree_artifacts(
        &self,
        tree: &Tree,
        queries: &[usize],
        maps: &[&BindingMap],
        w: &Workload,
    ) -> Option<Arc<TreeArtifacts>> {
        let key = (
            tree.fingerprint(),
            qset_hash(w, queries),
            w.catalog.fingerprint(),
        );
        self.artifacts
            .get_or_insert_with(&key, || self.compute_artifacts(tree, queries, maps, w))
    }

    fn compute_artifacts(
        &self,
        tree: &Tree,
        queries: &[usize],
        maps: &[&BindingMap],
        w: &Workload,
    ) -> Option<Arc<TreeArtifacts>> {
        // Result schema over the expressed queries' precomputed analyses.
        let infos: Vec<_> = queries
            .iter()
            .filter_map(|&qi| w.infos[qi].clone())
            .collect();
        if infos.is_empty() {
            return None;
        }
        let schema = result_schema(&infos)?;

        let types = infer_types_cached(tree, &w.catalog);
        let results: Vec<Arc<Table>> = queries
            .iter()
            .filter_map(|&qi| self.query_result(w, qi))
            .collect();
        let samples: Vec<&Table> = results.iter().map(|t| t.as_ref()).collect();
        let vis_cands = vis_mapping_candidates(&schema, &samples);
        let widget_cands = widget_candidates(tree.node(), &types, maps, &w.catalog);

        let mut flats = Vec::new();
        let mut nodes = Vec::new();
        tree.walk(&mut nodes);
        for node in nodes {
            if node.is_dynamic() {
                if let Some(flat) = flatten_node(node, &types) {
                    flats.push((node.id, flat));
                }
            }
        }
        let choice_ids: Vec<u32> = tree.choice_nodes().iter().map(|c| c.id).collect();

        Some(Arc::new(TreeArtifacts {
            types,
            schema,
            vis_cands,
            widget_cands,
            flats,
            choice_ids,
            results,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Value};
    use pi2_difftree::Forest;
    use pi2_sql::parse_query;

    fn workload() -> Workload {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * i)])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        Workload::new(
            vec![
                parse_query("SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a").unwrap(),
                parse_query("SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a").unwrap(),
            ],
            c,
        )
    }

    #[test]
    fn query_results_are_shared() {
        let w = workload();
        let cache = EvalCache::default();
        let a = cache.query_result(&w, 0).unwrap();
        let b = cache.query_result(&w, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert!(a.num_rows() > 0);
    }

    fn delta_rows(vals: &[(i64, i64)]) -> Table {
        Table::from_rows(
            vec![("a", DataType::Int), ("b", DataType::Int)],
            vals.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn untouched_queries_carry_forward_across_appends() {
        let mut base = Catalog::new();
        base.add_table("t", delta_rows(&[(1, 10), (2, 20)]), vec![]);
        base.add_table("u", delta_rows(&[(7, 70)]), vec![]);
        let cache = EvalCache::default();
        let q = parse_query("SELECT a, b FROM u").unwrap();
        let before = cache.resolved_result(&base, &q).unwrap();

        // Appending to `t` must not re-execute a query over `u`.
        let next = base.append_rows("t", delta_rows(&[(3, 30)])).unwrap();
        let misses_before = cache.result_stats().misses;
        let after = cache.resolved_result(&next, &q).unwrap();
        assert!(
            Arc::ptr_eq(&before, &after),
            "entry must be carried forward"
        );
        assert_eq!(cache.result_stats().misses, misses_before);
        assert_eq!(cache.live_stats().ivm_fallbacks, 0);
    }

    #[test]
    fn supported_shapes_are_served_incrementally() {
        let mut base = Catalog::new();
        base.add_table("t", delta_rows(&[(1, 10), (2, 20), (1, 5)]), vec![]);
        let cache = EvalCache::default();
        let q = parse_query("SELECT a, sum(b) FROM t GROUP BY a").unwrap();
        cache.resolved_result(&base, &q).unwrap();

        let next = base
            .append_rows("t", delta_rows(&[(2, 7), (3, 1)]))
            .unwrap();
        let misses_before = cache.result_stats().misses;
        let incr = cache.resolved_result(&next, &q).unwrap();
        assert_eq!(cache.result_stats().misses, misses_before, "no execution");
        assert!(cache.live_stats().ivm_hits >= 1);
        assert_eq!(cache.live_stats().ivm_fallbacks, 0);

        // The incremental result matches a from-scratch execution.
        let full = pi2_engine::execute_scalar(&q, &ExecContext::new(&next)).unwrap();
        assert_eq!(*incr, full);

        // A second append keeps absorbing into the maintained state.
        let third = next.append_rows("t", delta_rows(&[(3, 2)])).unwrap();
        let again = cache.resolved_result(&third, &q).unwrap();
        let full = pi2_engine::execute_scalar(&q, &ExecContext::new(&third)).unwrap();
        assert_eq!(*again, full);
        assert!(cache.live_stats().ivm_hits >= 2);
    }

    #[test]
    fn unsupported_shapes_fall_back_to_full_execution() {
        let mut base = Catalog::new();
        base.add_table("t", delta_rows(&[(1, 10), (2, 20)]), vec![]);
        let cache = EvalCache::default();
        // DISTINCT projection is outside the IVM-supported shapes.
        let q = parse_query("SELECT DISTINCT a FROM t").unwrap();
        cache.resolved_result(&base, &q).unwrap();

        let next = base.append_rows("t", delta_rows(&[(3, 30)])).unwrap();
        let misses_before = cache.result_stats().misses;
        let got = cache.resolved_result(&next, &q).unwrap();
        assert_eq!(cache.result_stats().misses, misses_before + 1);
        assert_eq!(cache.live_stats().ivm_fallbacks, 1);
        let full = pi2_engine::execute_scalar(&q, &ExecContext::new(&next)).unwrap();
        assert_eq!(*got, full);
    }

    #[test]
    fn eviction_sweeps_a_retired_fingerprint() {
        let mut base = Catalog::new();
        base.add_table("t", delta_rows(&[(1, 10)]), vec![]);
        let cache = EvalCache::default();
        let q = parse_query("SELECT a FROM t").unwrap();
        cache.resolved_result(&base, &q).unwrap();
        let sql_fp = fnv1a_64(q.to_string().as_bytes());
        assert!(cache.peek_result(base.fingerprint(), sql_fp).is_some());

        cache.evict_catalog(base.fingerprint());
        assert!(cache.peek_result(base.fingerprint(), sql_fp).is_none());
        assert_eq!(cache.live_stats().invalidated_views, 1);
        // Sweeping an unknown fingerprint is a no-op.
        cache.evict_catalog(0xdead_beef);
        assert_eq!(cache.live_stats().invalidated_views, 1);
    }

    #[test]
    fn tree_artifacts_are_shared_across_states() {
        let w = workload();
        let f = Forest::from_workload(&w);
        let assignments = f.bind_all(&w).unwrap();
        let cache = EvalCache::default();
        let maps = [&assignments[0].binding];
        let a = cache
            .tree_artifacts(&f.trees[0], &[0], &maps, &w)
            .expect("artifacts for a mappable tree");
        // A second forest sharing the tree structure hits the same entry.
        let f2 = Forest::from_workload(&w);
        let b = cache.tree_artifacts(&f2.trees[0], &[0], &maps, &w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.choice_ids.len(), 0);
        assert_eq!(a.results.len(), 1);
        assert!(!a.vis_cands.is_empty());
    }
}
