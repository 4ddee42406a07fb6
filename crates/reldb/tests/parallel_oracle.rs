//! Seeded-random oracle tests for the parallel operators.
//!
//! These run in the tier-1 suite using `SplitMix64` seeds, on the id rows
//! that chain queries actually execute (NULL is `NULL_VID`). They assert
//! the operator contract of `reldb::exec`:
//!
//! * `hash_join_project` equals the `nested_loop_join` oracle **including
//!   row order**, for every thread count and both build sides;
//! * `scan_project` over a registered table equals per-row
//!   `Predicate::eval` mapped through the database dictionary, and
//!   `scan_project` and `distinct_rows` are byte-identical across
//!   1/2/8 threads;
//! * NULL-heavy, skewed-key, empty, and size-asymmetric inputs are covered,
//!   at sizes both below and above the serial-fallback threshold.

use graphgen_common::parallel::MIN_PARALLEL_ITEMS;
use graphgen_common::SplitMix64;
use graphgen_reldb::exec::{distinct_rows, hash_join_project, nested_loop_join, scan_project};
use graphgen_reldb::{Column, Database, Predicate, RowSet, Schema, Table, Value, Vid, NULL_VID};

const THREADS: [usize; 3] = [1, 2, 8];

/// Random arity-2 cells. `null_pct` percent of cells are NULL; with
/// `skew`, ~80% of key-column draws collapse onto a single hot value.
/// Non-NULL cells are drawn from `0..domain`.
fn random_cells(
    rng: &mut SplitMix64,
    n: usize,
    domain: u64,
    null_pct: u64,
    skew: bool,
) -> Vec<[Option<u64>; 2]> {
    let cell = |rng: &mut SplitMix64| {
        if rng.next_below(100) < null_pct {
            None
        } else if skew && rng.next_below(100) < 80 {
            Some(0)
        } else {
            Some(rng.next_below(domain))
        }
    };
    (0..n).map(|_| [cell(rng), cell(rng)]).collect()
}

/// Random id rows: a non-NULL cell `x` is id `x + 1`, NULL is `NULL_VID`.
fn random_rows(rng: &mut SplitMix64, n: usize, domain: u64, null_pct: u64, skew: bool) -> RowSet {
    let id = |c: Option<u64>| c.map_or(NULL_VID, |x| x as Vid + 1);
    RowSet::from_rows(
        2,
        random_cells(rng, n, domain, null_pct, skew)
            .into_iter()
            .map(|row| row.map(id)),
    )
}

fn join(l: &RowSet, lk: usize, r: &RowSet, rk: usize, threads: usize) -> RowSet {
    let cols: Vec<usize> = (0..l.arity() + r.arity()).collect();
    hash_join_project(l, lk, r, rk, &cols, threads)
}

fn check_join(l: &RowSet, r: &RowSet, label: &str) {
    for (lk, rk) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let oracle = nested_loop_join(l, lk, r, rk);
        for threads in THREADS {
            let h = join(l, lk, r, rk, threads);
            assert_eq!(
                h, oracle,
                "{label}: join keys ({lk},{rk}) at {threads} threads"
            );
        }
    }
}

/// For inputs large enough that the quadratic oracle is slow: nested-loop
/// oracle on one key pair, serial-vs-parallel byte-equality on all pairs.
fn check_join_large(l: &RowSet, r: &RowSet, label: &str) {
    assert_eq!(
        join(l, 0, r, 1, 1),
        nested_loop_join(l, 0, r, 1),
        "{label}: serial vs oracle"
    );
    for (lk, rk) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let serial = join(l, lk, r, rk, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                join(l, lk, r, rk, threads),
                serial,
                "{label}: join keys ({lk},{rk}) at {threads} threads"
            );
        }
    }
}

#[test]
fn join_oracle_null_heavy() {
    let mut rng = SplitMix64::new(0xA11CE);
    for n in [0usize, 7, 200] {
        let l = random_rows(&mut rng, n, 10, 40, false);
        let r = random_rows(&mut rng, n / 2 + 1, 10, 40, false);
        check_join(&l, &r, "null-heavy");
    }
    // Large enough that effective_threads grants multiple workers.
    let n = MIN_PARALLEL_ITEMS * 3;
    let l = random_rows(&mut rng, n, 10, 40, false);
    let r = random_rows(&mut rng, n / 2 + 1, 10, 40, false);
    check_join_large(&l, &r, "null-heavy-large");
}

#[test]
fn join_oracle_skewed_keys() {
    let mut rng = SplitMix64::new(0xBEEF);
    // Skewed keys produce quadratic match lists on the hot key; keep sizes
    // moderate but still crossing the parallel threshold via asymmetry.
    let l = random_rows(&mut rng, 300, 40, 5, true);
    let r = random_rows(&mut rng, 120, 40, 5, true);
    check_join(&l, &r, "skewed");
}

#[test]
fn join_oracle_empty_inputs() {
    let mut rng = SplitMix64::new(7);
    let some = random_rows(&mut rng, 50, 5, 20, false);
    let empty = RowSet::new(2);
    check_join(&empty, &some, "empty-left");
    check_join(&some, &empty, "empty-right");
    check_join(&empty, &empty, "empty-both");
}

#[test]
fn join_builds_on_smaller_side_either_direction() {
    let mut rng = SplitMix64::new(0xD15C);
    // Heavy asymmetry in both directions, large enough that the bigger side
    // gets multiple workers from effective_threads.
    let big = random_rows(&mut rng, MIN_PARALLEL_ITEMS * 3, 64, 10, false);
    let small = random_rows(&mut rng, 60, 64, 10, false);
    check_join_large(&big, &small, "big-left/small-right");
    check_join_large(&small, &big, "small-left/big-right");
}

#[test]
fn fused_projection_matches_join_then_project() {
    let mut rng = SplitMix64::new(0xF00D);
    let l = random_rows(&mut rng, 500, 12, 10, false);
    let r = random_rows(&mut rng, 800, 12, 10, false);
    let full = nested_loop_join(&l, 1, &r, 0);
    let projected = RowSet::from_rows(2, full.iter().map(|row| [row[0], row[3]]));
    for threads in THREADS {
        assert_eq!(
            hash_join_project(&l, 1, &r, 0, &[0, 3], threads),
            projected,
            "{threads} threads"
        );
    }
}

#[test]
fn scan_project_parallel_is_byte_identical() {
    let mut rng = SplitMix64::new(0x5CA9);
    for n in [0usize, 33, MIN_PARALLEL_ITEMS * 3] {
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
        for row in random_cells(&mut rng, n, 30, 25, false) {
            let value = |c: Option<u64>| c.map_or(Value::Null, |x| Value::int(x as i64));
            t.push_row(row.map(value).to_vec()).unwrap();
        }
        // Tombstone every 5th row: the scan must skip dead rows.
        let dead: Vec<Vec<Value>> = t.iter_rows().step_by(5).collect();
        let mut db = Database::new();
        db.register("t", t).unwrap();
        db.delete_rows("t", &dead).unwrap();
        let (t, dict) = (db.table("t").unwrap(), db.dict());
        for pred in [
            Predicate::True,
            Predicate::Lt(0, Value::int(15)),
            Predicate::Eq(1, Value::Null),
            Predicate::Gt(0, Value::int(5)).and(Predicate::Ne(1, Value::int(2))),
        ] {
            let serial = scan_project(t, &pred, &[1, 0], 1, dict);
            // Oracle: per-row eval + manual projection through the
            // dictionary.
            let mut expected = RowSet::new(2);
            for row in t.iter_rows() {
                if pred.eval(&row) {
                    expected.push_row([&row[1], &row[0]].map(|v| dict.lookup(v).unwrap()));
                }
            }
            assert_eq!(serial, expected, "{pred:?} serial vs oracle");
            for threads in THREADS {
                assert_eq!(
                    scan_project(t, &pred, &[1, 0], threads, dict),
                    serial,
                    "{pred:?} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn distinct_parallel_preserves_first_occurrence() {
    let mut rng = SplitMix64::new(0xDED0);
    for n in [0usize, 100, MIN_PARALLEL_ITEMS * 2] {
        // Small domain forces many duplicates; NULLs participate as values.
        let rows = random_rows(&mut rng, n, 8, 20, true);
        let serial = distinct_rows(rows.clone(), 1);
        // Oracle: first-occurrence filter via a set of materialized rows.
        let mut seen = std::collections::HashSet::new();
        let mut expected = RowSet::new(2);
        for row in rows.iter() {
            if seen.insert(row.to_vec()) {
                expected.push_row_from(row);
            }
        }
        assert_eq!(serial, expected, "serial vs oracle at n={n}");
        for threads in THREADS {
            assert_eq!(
                distinct_rows(rows.clone(), threads),
                serial,
                "{threads} threads at n={n}"
            );
        }
    }
}
