//! Physical operators.
//!
//! The extraction layer composes three operators: filtered scans with
//! projection, hash equi-joins, and duplicate elimination. A nested-loop
//! join is provided as the test oracle.
//!
//! # Operator contract
//!
//! Every operator consumes and produces [`RowSet`]s — flat arenas of
//! dictionary ids ([`Vid`]s) with index-addressed rows:
//!
//! * [`scan_project`] evaluates the predicate against the table columns in
//!   place and resolves only the projected cells of passing rows to their
//!   ids, once, through the database dictionary;
//! * [`hash_join_project`] builds a `Vid`-keyed index (row indices as
//!   payload) on the **smaller** input and emits only the requested output
//!   columns;
//! * [`distinct_rows`] keeps the first occurrence of every id row.
//!
//! After the scan, every hash, partition and equality test is on `u32`s:
//! two cells are equal exactly when their values are, and NULL is
//! [`NULL_VID`]. Values are built again only at the query's output
//! ([`crate::query::Query::run_threaded`]).
//!
//! # Parallelism and determinism
//!
//! Each operator takes a `threads` knob (plumbed from
//! `GraphGenConfig::threads()` through every segment query). Scans and join
//! probes are morsel-parallel, join builds and DISTINCT are hash-partitioned
//! (`std::thread::scope`, no external deps). Per-thread partial results are
//! merged in morsel/partition order, so **for any `threads` value the output
//! is byte-identical to the serial run**: scans preserve table order, joins
//! preserve left-outer/right-inner order, DISTINCT preserves first
//! occurrence. Inputs below `graphgen_common::parallel::MIN_PARALLEL_ITEMS`
//! run serially regardless of `threads`.

use crate::expr::Predicate;
use crate::intern::{Interner, Vid, NULL_VID};
use crate::rowset::RowSet;
use crate::table::Table;
use graphgen_common::metrics;
use graphgen_common::parallel::{
    effective_threads, map_morsels, map_partitions, scatter_partitions,
};
use graphgen_common::region::Region;
use graphgen_common::{FxBuildHasher, FxHashMap, FxHashSet};
use std::hash::BuildHasher;

// Every operator opens a metrics span at entry: it enters an allocation
// region (`graphgen_common::region`) so the counting allocator in
// `graphgen-bench` can attribute bytes per operator, and on drop it logs
// the operator's wall time into the caller's phase log
// (`graphgen_common::metrics::collect_phases`) so the serving layer can
// report extraction phase breakdowns. The parallel helpers propagate the
// caller's region label onto their worker threads, and the span guard
// lives on the calling thread for the whole operator, so one guard at
// operator entry covers the whole fan-out (scatter buckets included).

/// Row indices are carried as `u32` inside the operators to halve the
/// footprint of join/distinct bookkeeping.
const MAX_ROWS: usize = u32::MAX as usize;

/// Merge per-thread partial outputs in morsel order.
fn merge(arity: usize, parts: Vec<RowSet>) -> RowSet {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_else(|| RowSet::new(arity));
    for p in parts {
        out.append(p);
    }
    out
}

/// Scan `table`, keep rows satisfying `pred`, and project the columns in
/// `cols` (by index, in output order) as ids of `dict`, which must be the
/// dictionary of the database `table` is registered in. The predicate is
/// evaluated against the table's columns directly; only the projected cells
/// of passing rows are looked up. Morsel-parallel over `threads`, output in
/// table row order.
pub fn scan_project(
    table: &Table,
    pred: &Predicate,
    cols: &[usize],
    threads: usize,
    dict: &Interner,
) -> RowSet {
    let _span = metrics::span("scan", Region::Scan);
    // Morsels split the physical row space; tombstoned rows are skipped so
    // the output is the live rows in physical (= insertion) order.
    let n = table.physical_rows();
    let t = effective_threads(threads, n);
    let parts = map_morsels(n, t, |range| {
        let mut out = RowSet::new(cols.len());
        for r in range {
            if table.is_live(r) && pred.eval_at(table, r) {
                out.push_row(cols.iter().map(|&c| {
                    dict.lookup(table.cell(r, c))
                        .expect("live cell is interned")
                }));
            }
        }
        out
    });
    merge(cols.len(), parts)
}

/// A hash-partitioned join index over one side's key column: partition `p`
/// owns the keys with `key % parts == p`. Per-key row-index lists are
/// ascending because every partition scans the build side in row order.
type JoinIndex = Vec<FxHashMap<Vid, Vec<u32>>>;

fn build_index(build: &RowSet, key: usize, parts: usize) -> JoinIndex {
    let _span = metrics::span("join", Region::Build);
    assert!(build.num_rows() <= MAX_ROWS, "row set too large");
    // Scatter row indices into per-morsel partition buckets; each partition
    // thread then touches only its own rows, and scatter order keeps
    // per-key index lists ascending.
    let buckets = scatter_partitions(build.num_rows(), parts, |r| {
        ((build.row(r)[key] as usize) % parts, r as u32)
    });
    map_partitions(parts, |p| {
        let mut index: FxHashMap<Vid, Vec<u32>> = FxHashMap::default();
        for morsel in &buckets {
            for &i in &morsel[p] {
                let k = build.row(i as usize)[key];
                if k != NULL_VID {
                    index.entry(k).or_default().push(i);
                }
            }
        }
        index
    })
}

fn index_lookup(index: &JoinIndex, key: Vid) -> Option<&[u32]> {
    index[(key as usize) % index.len()]
        .get(&key)
        .map(Vec::as_slice)
}

/// Hash equi-join of `left` and `right` on `left[lkey] == right[rkey]`,
/// fused with a projection: `cols` indexes into the virtual concatenated
/// row `left ++ right`, and only those columns are ever materialized.
///
/// Rows with NULL join keys never match (SQL semantics). Output order is the
/// nested-loop order (left rows outer, matching right rows in row order)
/// regardless of `threads` or which side the hash table is built on.
///
/// The hash table is built on the smaller input (ties build on `right`);
/// when the build side is `left`, matches are collected as index pairs and
/// sorted back into left-outer order, so the output is identical either way.
pub fn hash_join_project(
    left: &RowSet,
    lkey: usize,
    right: &RowSet,
    rkey: usize,
    cols: &[usize],
    threads: usize,
) -> RowSet {
    let t = effective_threads(threads, left.num_rows().max(right.num_rows()));
    if right.num_rows() <= left.num_rows() {
        // Build on `right`, probe with `left` outer: morsel concatenation
        // already yields left-outer order. The partition count is sized by
        // the *build* side so a tiny build stays serial under a big probe.
        let index = build_index(right, rkey, effective_threads(threads, right.num_rows()));
        let _span = metrics::span("join", Region::Probe);
        let parts = map_morsels(left.num_rows(), t, |range| {
            let mut out = RowSet::new(cols.len());
            for l in range {
                let lrow = left.row(l);
                if lrow[lkey] == NULL_VID {
                    continue;
                }
                if let Some(matches) = index_lookup(&index, lrow[lkey]) {
                    for &r in matches {
                        push_joined(&mut out, lrow, right.row(r as usize), cols);
                    }
                }
            }
            out
        });
        merge(cols.len(), parts)
    } else {
        // `left` is strictly smaller: build on it, probe with `right`, then
        // reorder the matched index pairs into left-outer order.
        assert!(right.num_rows() <= MAX_ROWS, "row set too large");
        let index = build_index(left, lkey, effective_threads(threads, left.num_rows()));
        let _span = metrics::span("join", Region::Probe);
        let pairs: Vec<(u32, u32)> = map_morsels(right.num_rows(), t, |range| {
            let mut local = Vec::new();
            for r in range {
                let k = right.row(r)[rkey];
                if k == NULL_VID {
                    continue;
                }
                if let Some(matches) = index_lookup(&index, k) {
                    local.extend(matches.iter().map(|&l| (l, r as u32)));
                }
            }
            local
        })
        .concat();
        // Restore (left, right) lexicographic order == nested-loop emission
        // order. The concatenated pairs are already sorted by `r` with
        // ascending `r` per `l`, so a *stable* counting sort on `l` alone
        // finishes the job in O(m + |left|) instead of O(m log m).
        let pairs = counting_sort_by_left(pairs, left.num_rows());
        let parts = map_morsels(
            pairs.len(),
            effective_threads(threads, pairs.len()),
            |range| {
                let mut out = RowSet::with_row_capacity(cols.len(), range.len());
                for &(l, r) in &pairs[range] {
                    push_joined(&mut out, left.row(l as usize), right.row(r as usize), cols);
                }
                out
            },
        );
        merge(cols.len(), parts)
    }
}

/// Stable counting sort of match pairs by their left row index. Input pairs
/// arrive sorted by the right index (probe morsel order), so stability
/// yields full `(l, r)` lexicographic order — the nested-loop emission
/// order — in two linear passes.
fn counting_sort_by_left(pairs: Vec<(u32, u32)>, left_rows: usize) -> Vec<(u32, u32)> {
    let mut offsets = vec![0usize; left_rows + 1];
    for &(l, _) in &pairs {
        offsets[l as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut sorted = vec![(0u32, 0u32); pairs.len()];
    for &(l, r) in &pairs {
        let slot = &mut offsets[l as usize];
        sorted[*slot] = (l, r);
        *slot += 1;
    }
    sorted
}

fn push_joined(out: &mut RowSet, lrow: &[Vid], rrow: &[Vid], cols: &[usize]) {
    out.push_row(cols.iter().map(|&c| {
        if c < lrow.len() {
            lrow[c]
        } else {
            rrow[c - lrow.len()]
        }
    }));
}

/// Reference nested-loop join emitting whole `left ++ right` rows, with
/// the semantics of [`hash_join_project`]; the correctness oracle in tests.
/// Serial by construction.
pub fn nested_loop_join(left: &RowSet, lkey: usize, right: &RowSet, rkey: usize) -> RowSet {
    let mut out = RowSet::new(left.arity() + right.arity());
    let cols: Vec<usize> = (0..left.arity() + right.arity()).collect();
    for lrow in left.iter() {
        if lrow[lkey] == NULL_VID {
            continue;
        }
        for rrow in right.iter() {
            if lrow[lkey] == rrow[rkey] {
                push_joined(&mut out, lrow, rrow, &cols);
            }
        }
    }
    out
}

/// Remove duplicate rows, preserving first-occurrence order (`DISTINCT`).
///
/// Row indices are scattered into hash partitions (with `threads > 1`):
/// duplicates always land in the same partition, each partition keeps its
/// first occurrences, and the kept row indices are merged back into input
/// order before the survivors are copied out. The input arena is consumed
/// and freed.
pub fn distinct_rows(rows: RowSet, threads: usize) -> RowSet {
    let _span = metrics::span("distinct", Region::Distinct);
    let n = rows.num_rows();
    assert!(n <= MAX_ROWS, "row set too large");
    let t = effective_threads(threads, n);
    // Phase 1: scatter row indices into per-morsel partition buckets
    // (duplicates share a hash, hence a partition; scatter order keeps
    // buckets ascending). One partition needs no hash.
    let hasher = FxBuildHasher::default();
    let buckets = scatter_partitions(n, t, |r| {
        let part = if t > 1 {
            (hasher.hash_one(rows.row(r)) as usize) % t
        } else {
            0
        };
        (part, r as u32)
    });
    // Phase 2: each partition keeps the first occurrence of the rows it
    // owns; kept lists are ascending and pairwise disjoint.
    let kept: Vec<Vec<u32>> = map_partitions(t, |p| {
        let mut seen: FxHashSet<&[Vid]> = FxHashSet::default();
        buckets
            .iter()
            .flat_map(|morsel| &morsel[p])
            .copied()
            .filter(|&r| seen.insert(rows.row(r as usize)))
            .collect()
    });
    drop(buckets);
    let mut kept = kept.concat();
    kept.sort_unstable();
    // Phase 3: materialize the survivors, morsel-parallel, in input order.
    let parts = map_morsels(
        kept.len(),
        effective_threads(threads, kept.len()),
        |range| {
            let mut out = RowSet::with_row_capacity(rows.arity(), range.len());
            for &r in &kept[range] {
                out.push_row_from(rows.row(r as usize));
            }
            out
        },
    );
    merge(rows.arity(), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn rows(pairs: &[(Vid, Vid)]) -> RowSet {
        RowSet::from_rows(2, pairs.iter().map(|&(a, b)| [a, b]))
    }

    fn join(l: &RowSet, lkey: usize, r: &RowSet, rkey: usize, threads: usize) -> RowSet {
        let cols: Vec<usize> = (0..l.arity() + r.arity()).collect();
        hash_join_project(l, lkey, r, rkey, &cols, threads)
    }

    #[test]
    fn scan_project_filters_and_projects() {
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
        let mut dict = Interner::new();
        for (a, b) in [(1, 10), (2, 20), (3, 30)] {
            let row = vec![Value::int(a), Value::int(b)];
            for v in &row {
                dict.acquire(v);
            }
            t.push_row(row).unwrap();
        }
        let out = scan_project(&t, &Predicate::Gt(0, Value::int(1)), &[1], 1, &dict);
        let id = |v: i64| dict.lookup(&Value::int(v)).unwrap();
        assert_eq!(out, RowSet::from_rows(1, [[id(20)], [id(30)]]));
    }

    #[test]
    fn hash_join_basic() {
        let l = rows(&[(1, 100), (2, 200), (3, 100)]);
        let r = rows(&[(100, 7), (100, 8), (300, 9)]);
        let out = join(&l, 1, &r, 0, 1);
        // rows with b=100 match both r-rows with key 100
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.row(0), &[1, 100, 100, 7]);
    }

    #[test]
    fn hash_join_matches_nested_loop_in_order() {
        let l = rows(&[(1, 1), (2, 2), (3, 1), (4, 4), (5, 2)]);
        let r = rows(&[(1, 10), (2, 20), (1, 11), (9, 90)]);
        // Exact order equality, not set equality: the operator promises
        // nested-loop emission order for every thread count and build side.
        let n = nested_loop_join(&l, 1, &r, 0);
        for threads in [1, 2, 8] {
            assert_eq!(join(&l, 1, &r, 0, threads), n);
        }
    }

    #[test]
    fn hash_join_builds_on_smaller_side_transparently() {
        // Asymmetric inputs in both directions: output must be identical.
        let small = rows(&[(1, 0), (2, 0), (7, 0)]);
        let big = rows(&(0..50).map(|i| (i % 5, i)).collect::<Vec<_>>());
        let small_left = join(&small, 0, &big, 0, 1);
        assert_eq!(small_left, nested_loop_join(&small, 0, &big, 0));
        let big_left = join(&big, 0, &small, 0, 1);
        assert_eq!(big_left, nested_loop_join(&big, 0, &small, 0));
    }

    #[test]
    fn hash_join_project_fuses_projection() {
        let l = rows(&[(1, 100), (3, 100)]);
        let r = rows(&[(100, 7)]);
        let out = hash_join_project(&l, 1, &r, 0, &[0, 3], 1);
        assert_eq!(out, rows(&[(1, 7), (3, 7)]));
    }

    #[test]
    fn nulls_never_join() {
        let l = rows(&[(1, NULL_VID)]);
        let r = rows(&[(NULL_VID, 2)]);
        assert!(join(&l, 1, &r, 0, 1).is_empty());
        assert!(nested_loop_join(&l, 1, &r, 0).is_empty());
    }

    #[test]
    fn distinct_preserves_order() {
        let input = rows(&[(1, 1), (2, 2), (1, 1), (3, 3), (2, 2)]);
        let expected = rows(&[(1, 1), (2, 2), (3, 3)]);
        for threads in [1, 2, 8] {
            assert_eq!(distinct_rows(input.clone(), threads), expected);
        }
    }

    #[test]
    fn empty_inputs() {
        let e = RowSet::new(2);
        let r = rows(&[(1, 1)]);
        assert!(join(&e, 0, &r, 0, 4).is_empty());
        assert!(join(&r, 0, &e, 0, 4).is_empty());
        assert!(distinct_rows(RowSet::new(2), 4).is_empty());
        let t = Table::new(Schema::new(vec![Column::int("a")]));
        assert!(scan_project(&t, &Predicate::True, &[0], 4, &Interner::new()).is_empty());
    }
}
