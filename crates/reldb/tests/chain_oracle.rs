//! Seeded-random oracle for the production chain-query path.
//!
//! `Query::run_threaded` is what every extraction segment runs: scans that
//! resolve cells to dictionary ids, id-keyed joins and DISTINCT, and the
//! id-to-value step at the output. These tests drive it end to end on
//! `SplitMix64`-seeded two-column tables with NULLs, once with int keys and
//! once with string keys, and check that:
//!
//! * the run at 2 and 8 threads equals the serial run exactly (same pairs,
//!   same order);
//! * the serial run equals a brute-force nested evaluation over the base
//!   tables — as a set with DISTINCT, as a bag without.

use graphgen_common::parallel::MIN_PARALLEL_ITEMS;
use graphgen_common::SplitMix64;
use graphgen_reldb::query::{ChainStep, Query};
use graphgen_reldb::{Column, Database, Predicate, Schema, Table, Value};
use std::collections::BTreeSet;

/// Key type of the random tables.
#[derive(Clone, Copy, Debug)]
enum Keys {
    Int,
    Str,
}

impl Keys {
    fn value(self, x: u64) -> Value {
        match self {
            Keys::Int => Value::int(x as i64),
            Keys::Str => Value::str(format!("k{x:03}")),
        }
    }

    fn column(self, name: &str) -> Column {
        match self {
            Keys::Int => Column::int(name),
            Keys::Str => Column::str(name),
        }
    }
}

/// A two-column table of `n` random rows over `0..domain`; ~15% of cells
/// are NULL.
fn random_table(rng: &mut SplitMix64, keys: Keys, n: usize, domain: u64) -> Table {
    let mut t = Table::new(Schema::new(vec![keys.column("a"), keys.column("b")]));
    for _ in 0..n {
        let mut cell = || {
            if rng.next_below(100) < 15 {
                Value::Null
            } else {
                keys.value(rng.next_below(domain))
            }
        };
        let row = vec![cell(), cell()];
        t.push_row(row).unwrap();
    }
    t
}

fn step(table: &str, pred: Predicate, in_col: usize, out_col: usize) -> ChainStep {
    ChainStep {
        table: table.into(),
        pred,
        in_col,
        out_col,
    }
}

/// Brute-force nested evaluation: every combination of one row per step
/// that passes the step predicates and joins consecutive steps on equal,
/// non-NULL values contributes its `(first.in, last.out)` pair. No
/// intermediate deduplication; the caller compares as a set or a bag.
fn brute_force(db: &Database, q: &Query) -> Vec<(Value, Value)> {
    let passing = |s: &ChainStep| -> Vec<Vec<Value>> {
        let t = db.table(&s.table).unwrap();
        t.iter_rows().filter(|row| s.pred.eval(row)).collect()
    };
    let first = &q.steps[0];
    let mut frontier: Vec<(Value, Value)> = passing(first)
        .into_iter()
        .map(|row| (row[first.in_col].clone(), row[first.out_col].clone()))
        .collect();
    for s in &q.steps[1..] {
        let rows = passing(s);
        let mut next = Vec::new();
        for (x, carry) in &frontier {
            for row in &rows {
                if !carry.is_null() && *carry == row[s.in_col] {
                    next.push((x.clone(), row[s.out_col].clone()));
                }
            }
        }
        frontier = next;
    }
    frontier
}

fn check(db: &Database, q: &Query, label: &str) {
    let serial = q.run(db).unwrap();
    for threads in [2usize, 8] {
        assert_eq!(
            q.run_threaded(db, threads).unwrap(),
            serial,
            "{label}: {threads} threads vs serial"
        );
    }
    let mut expected = brute_force(db, q);
    if q.distinct {
        let got: BTreeSet<_> = serial.iter().cloned().collect();
        assert_eq!(got.len(), serial.len(), "{label}: duplicate output pair");
        let expected: BTreeSet<_> = expected.into_iter().collect();
        assert_eq!(got, expected, "{label}: serial vs brute force");
    } else {
        let mut got = serial;
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "{label}: serial vs brute force (bag)");
    }
}

/// The chain shapes extraction issues: single-table, two-step
/// co-membership, and a filtered three-step chain across two tables — each
/// with and without DISTINCT.
fn queries(keys: Keys) -> Vec<(&'static str, Query)> {
    let co_member = vec![
        step("R", Predicate::True, 0, 1),
        step("R", Predicate::True, 1, 0),
    ];
    let three_step = vec![
        step("R", Predicate::Ne(0, keys.value(3)), 0, 1),
        step("S", Predicate::Lt(1, keys.value(20)), 0, 1),
        step("R", Predicate::True, 1, 0),
    ];
    let mut out = Vec::new();
    for distinct in [true, false] {
        let mut single = Query::single("S", Predicate::Ge(0, keys.value(2)), 1, 0);
        single.distinct = distinct;
        out.push(("single", single));
        out.push((
            "co-member",
            Query {
                steps: co_member.clone(),
                distinct,
            },
        ));
        out.push((
            "three-step",
            Query {
                steps: three_step.clone(),
                distinct,
            },
        ));
    }
    out
}

fn check_keys(keys: Keys, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for n in [0usize, 1, 30, 150] {
        let mut db = Database::new();
        db.register("R", random_table(&mut rng, keys, n, 25))
            .unwrap();
        db.register("S", random_table(&mut rng, keys, n / 2 + 1, 25))
            .unwrap();
        for (label, q) in queries(keys) {
            check(&db, &q, &format!("{keys:?} n={n} {label}"));
        }
    }
    // Large enough that every operator of the chain fans out.
    let n = MIN_PARALLEL_ITEMS * 3;
    let mut db = Database::new();
    db.register("R", random_table(&mut rng, keys, n, n as u64 / 4))
        .unwrap();
    let (label, q) = &queries(keys)[1];
    check(&db, q, &format!("{keys:?} n={n} {label}"));
}

#[test]
fn chain_query_matches_bruteforce_int_keys() {
    check_keys(Keys::Int, 0xC4A1);
}

#[test]
fn chain_query_matches_bruteforce_string_keys() {
    check_keys(Keys::Str, 0x57C4);
}
