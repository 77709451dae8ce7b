//! Differential property tests for the live append path.
//!
//! - **Chunked storage.** A catalogue whose tables were built as a flat
//!   prefix plus successive [`Catalog::append_rows`] deltas (chunk
//!   sharing, dictionary remap, incremental stats merge) must be
//!   indistinguishable, through the executor, from the same rows loaded
//!   flat from scratch (`chunked_matches_flat_*`).
//! - **Incremental view maintenance.** An [`IvmState`] built on a prefix
//!   of a query's table, fed the rest as appends and finalized, must have
//!   the row interpreter's schema and values over the appended catalogue,
//!   and the wire bytes of a full `execute` (`ivm_matches_scalar_*`).
//!   Together with the `pin_ivm` cases in `pi2-engine`'s `ivm.rs` and the
//!   result cache's IVM tests, these pin IVM on the vectorized executor.
//!
//! The split point and delta count are generated, so the tests cover
//! empty bases (everything appended), empty tails (nothing appended),
//! one-row deltas, and multi-delta chains — against generated queries
//! and the paper's seven query logs. CI reruns this file with
//! `PI2_CHUNK_ROWS=1024`, so the appends cross real chunk boundaries.

use pi2_data::wire::table_to_json;
use pi2_data::Catalog;
use pi2_engine::ivm::{ivm_table, supported};
use pi2_engine::{execute, execute_scalar, ExecContext, IvmState};
use pi2_sql::parse_query;
use pi2_workloads::{all_logs, catalog};
use proptest::prelude::*;

mod querygen;
use querygen::{build_query, TABLES};

/// Rebuild every catalogue table through the live append path: keep a
/// `keep_pct`% prefix as the flat base, then append the remainder in
/// `n_deltas` successive `append_rows` calls.
fn chunked_catalog(keep_pct: usize, n_deltas: usize) -> Catalog {
    let flat = catalog();
    let names: Vec<String> = flat.table_names().map(str::to_string).collect();
    let mut live = flat.clone();
    for name in &names {
        let meta = flat.table(name).expect("known table");
        let total = meta.table.num_rows();
        let keep = total * keep_pct / 100;
        let pk: Vec<&str> = meta.primary_key.iter().map(String::as_str).collect();
        live.add_table(meta.name.clone(), meta.table.slice_rows(0, keep), pk);
        let per = (total - keep).div_ceil(n_deltas.max(1)).max(1);
        let mut lo = keep;
        while lo < total {
            let hi = (lo + per).min(total);
            live = live
                .append_rows(name, meta.table.slice_rows(lo, hi))
                .expect("append of a schema-identical delta");
            lo = hi;
        }
    }
    live
}

/// Both catalogues answer `sql` identically (same table or same error).
fn assert_chunked_matches_flat(sql: &str, live: &Catalog) {
    let flat = catalog();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("generated bad SQL {sql}: {e}"));
    let from_flat = execute(&q, &ExecContext::new(&flat));
    let from_live = execute(&q, &ExecContext::new(live));
    match (from_flat, from_live) {
        (Ok(f), Ok(l)) => {
            assert_eq!(
                f.schema, l.schema,
                "schemas disagree on {sql}\nflat: {f}\nchunked: {l}"
            );
            assert_eq!(f, l, "tables disagree on {sql}\nflat: {f}\nchunked: {l}");
        }
        (Err(fe), Err(le)) => assert_eq!(fe, le, "errors disagree on {sql}"),
        (f, l) => panic!("one build failed on {sql}: flat {f:?}, chunked {l:?}"),
    }
}

/// IVM over appends equals full execution over the appended catalogue:
/// build the state on a `keep_pct`% prefix of the query's table, absorb the
/// rest in `n_deltas` successive appends, and finalize. The result must
/// have `execute_scalar`'s schema and values, and `execute`'s wire bytes
/// (the bytes the memo would hold after a full execution: a projected
/// dictionary column stays dictionary-encoded there, where the row
/// interpreter's output is plain strings). Returns `false` (checking
/// nothing) when IVM rejects the query or its build errs — the cache then
/// executes in full, so only a state that exists must be exact.
fn assert_ivm_matches_scalar(sql: &str, keep_pct: usize, n_deltas: usize) -> bool {
    let flat = catalog();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("bad SQL {sql}: {e}"));
    if !supported(&q, &flat) {
        return false;
    }
    let name = ivm_table(&q).expect("supported queries scan one table");
    let meta = flat.table(&name).expect("analysis resolved the table");
    let total = meta.table.num_rows();
    let keep = total * keep_pct / 100;
    let pk: Vec<&str> = meta.primary_key.iter().map(String::as_str).collect();
    let mut live = flat.clone();
    live.add_table(meta.name.clone(), meta.table.slice_rows(0, keep), pk);
    let Ok(mut state) = IvmState::build(&q, &ExecContext::new(&live)) else {
        return false;
    };
    let per = (total - keep).div_ceil(n_deltas.max(1)).max(1);
    let mut lo = keep;
    while lo < total {
        let hi = (lo + per).min(total);
        let delta = meta.table.slice_rows(lo, hi);
        live = live
            .append_rows(&name, delta.clone())
            .expect("append of a schema-identical delta");
        state
            .absorb(&q, &name, &delta, &ExecContext::new(&live))
            .unwrap_or_else(|e| panic!("absorb failed on {sql}: {e}"));
        lo = hi;
    }
    let ctx = ExecContext::new(&live);
    match (state.finalize(&q, &ctx), execute_scalar(&q, &ctx)) {
        (Ok(ivm), Ok(full)) => {
            assert_eq!(ivm.schema, full.schema, "schemas disagree on {sql}");
            assert_eq!(ivm, full, "IVM diverged from the row interpreter on {sql}");
            let executed = execute(&q, &ctx).expect("the row interpreter succeeded");
            assert_eq!(
                table_to_json(&ivm),
                table_to_json(&executed),
                "IVM bytes diverged from full execution on {sql} (keep {keep_pct}%, {n_deltas} deltas)"
            );
        }
        (Err(ie), Err(fe)) => assert_eq!(ie, fe, "errors disagree on {sql}"),
        (i, f) => panic!("one side failed on {sql}: IVM {i:?}, scalar {f:?}"),
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated single-table queries over a chunk-rebuilt catalogue:
    /// identical output tables at every split point.
    #[test]
    fn chunked_matches_flat_on_generated_queries(
        keep_pct in 0usize..=100,
        n_deltas in 1usize..4,
        tbl in 0usize..4,
        // bit 0: aggregate, bit 1: distinct
        flags in 0u8..4,
        n_atoms in 0usize..3,
        ks in (0u8..8, 0u8..8),
        ps in (0usize..8, 0usize..8),
        consts in (-20i64..1200, -20i64..1200, -20i64..1200, -20i64..1200),
        ol in 0u8..48,
    ) {
        let live = chunked_catalog(keep_pct, n_deltas);
        let t = &TABLES[tbl];
        let sql = build_query(
            t,
            flags & 1 == 1,
            flags & 2 == 2,
            n_atoms,
            ks,
            ps,
            consts,
            ol % 6,
            ol / 6,
        );
        assert_chunked_matches_flat(&sql, &live);
    }

    /// SDSS-shaped equijoins where *both* sides are chunk-rebuilt: the
    /// hash-join build and probe sides each consolidate chunked storage.
    #[test]
    fn chunked_matches_flat_on_joins(
        keep_pct in 0usize..=100,
        lo in 0i64..12,
        width in 1i64..10,
    ) {
        let live = chunked_catalog(keep_pct, 2);
        let ra_lo = 213.0 + lo as f64 / 10.0;
        let ra_hi = ra_lo + width as f64 / 10.0;
        let sql = format!(
            "SELECT gal.objID, gal.u, s.ra, s.dec FROM galaxy AS gal, specObj AS s \
             WHERE s.bestObjID = gal.objID AND s.ra BETWEEN {ra_lo} AND {ra_hi}"
        );
        assert_chunked_matches_flat(&sql, &live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated single-table queries maintained incrementally: IVM built
    /// on a generated prefix and fed the rest as appends stays
    /// byte-identical to the row interpreter over the appended catalogue.
    #[test]
    fn ivm_matches_scalar_on_generated_queries(
        keep_pct in 0usize..=100,
        n_deltas in 1usize..4,
        tbl in 0usize..4,
        // bit 0: aggregate, bit 1: distinct
        flags in 0u8..4,
        n_atoms in 0usize..3,
        ks in (0u8..8, 0u8..8),
        ps in (0usize..8, 0usize..8),
        consts in (-20i64..1200, -20i64..1200, -20i64..1200, -20i64..1200),
        ol in 0u8..48,
    ) {
        let t = &TABLES[tbl];
        let sql = build_query(
            t,
            flags & 1 == 1,
            flags & 2 == 2,
            n_atoms,
            ks,
            ps,
            consts,
            ol % 6,
            ol / 6,
        );
        assert_ivm_matches_scalar(&sql, keep_pct, n_deltas);
    }
}

/// Every query of the paper's seven logs answers identically over a
/// catalogue rebuilt through appends, at an empty-base split (the whole
/// table arrived live) and a mid-table split.
#[test]
fn chunked_matches_flat_on_all_workload_logs() {
    for keep_pct in [0, 60] {
        let live = chunked_catalog(keep_pct, 3);
        for log in all_logs() {
            for sql in &log.queries {
                assert_chunked_matches_flat(sql, &live);
            }
        }
    }
}

/// Every IVM-supported query of the seven logs, maintained from an empty
/// base (the whole table arrives live), a mid-table split, and the full
/// table (build only), matches the row interpreter.
#[test]
fn ivm_matches_scalar_on_all_workload_logs() {
    let mut checked = 0;
    for keep_pct in [0, 60, 100] {
        for log in all_logs() {
            for sql in &log.queries {
                checked += assert_ivm_matches_scalar(sql, keep_pct, 3) as usize;
            }
        }
    }
    assert!(checked > 0, "the logs must exercise IVM");
}
