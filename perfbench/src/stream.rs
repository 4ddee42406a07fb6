//! Seeded inputs: the databases the workloads start from and the request
//! streams the serving clients send. Everything here is a pure function
//! of the seed, so the same seed gives byte-identical inputs.

use graphgen_common::SplitMix64;
use graphgen_reldb::{Column, Database, Schema, Table, Value};
use std::collections::VecDeque;

/// The co-actor program the library workloads extract.
pub const IMDB_DSL: &str = graphgen_datagen::relational::IMDB_COACTORS;

/// The co-author program the serving workloads register, on one line as
/// the protocol needs it.
pub fn dblp_dsl() -> String {
    graphgen_datagen::relational::DBLP_COAUTHORS.replace('\n', " ")
}

/// Graph name the serving workloads register.
pub const GRAPH: &str = "g";

/// Table the serving write streams churn.
pub const CHURN_TABLE: &str = "AuthorPub";

/// Seed of the membership structure every workload database shares; the
/// run's seed relabels it (see [`cooccurrence_db`]).
const STRUCTURE_SEED: u64 = 0x6A09_E667_F3BC_C908;

/// Zipf(s) sampler over ranks `0..n` (rank 0 most popular), by inverse
/// CDF over a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Popularity ∝ 1/(rank+1)^s.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// A seeded shuffle of `0..n`.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<i64> {
    let mut ids: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    ids
}

/// Entities with Zipf popularity whose ids the seed shuffles: rank `r`
/// is entity `ids[r]`. The database and every request stream of a run
/// share one population, so hot ranks are the same entities everywhere.
#[derive(Debug, Clone)]
pub struct Population {
    zipf: Zipf,
    ids: Vec<i64>,
}

impl Population {
    /// `n` entities with skew `s`, labelled by `seed`.
    pub fn new(seed: u64, n: usize, s: f64) -> Self {
        Self {
            zipf: Zipf::new(n, s),
            ids: permutation(n, &mut SplitMix64::new(seed ^ 0x1ABE_1500)),
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when there are no entities.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Draw one entity id by popularity.
    pub fn sample(&self, rng: &mut SplitMix64) -> i64 {
        self.ids[self.zipf.sample(rng)]
    }
}

/// A co-occurrence database: `<entity>(id, name)` for every member of
/// `pop` and a membership table `<member>(<entity id>, <group id>)` over
/// `groups` groups. Group sizes follow an exponential distribution with
/// mean `mean`, taken at fixed quantiles; members are drawn by
/// popularity. The membership structure comes from a fixed seed and the
/// run's seed relabels it: `pop` shuffles entity ids, `seed` shuffles
/// group ids. Every seed therefore gives different rows describing
/// graphs of one shape, so runs on different seeds load the program
/// equally and their spread is the machine's, not the generator's.
fn cooccurrence_db(
    pop: &Population,
    seed: u64,
    tables: [&str; 2],
    member_cols: [&str; 2],
    groups: usize,
    mean: f64,
) -> Database {
    let [entity, member] = tables;
    let mut names = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    names.reserve(pop.len());
    for e in 0..pop.len() {
        names
            .push_row(vec![
                Value::int(e as i64),
                Value::str(format!("{entity}_{e}")),
            ])
            .expect("schema");
    }
    let mut structure = SplitMix64::new(STRUCTURE_SEED);
    let group_ids = permutation(groups, &mut SplitMix64::new(seed ^ 0x6_0F5));
    let mut members = Table::new(Schema::new(vec![
        Column::int(member_cols[0]),
        Column::int(member_cols[1]),
    ]));
    let mut group = Vec::new();
    for (g, &group_id) in group_ids.iter().enumerate() {
        let q = (g as f64 + 0.5) / groups as f64;
        let k = ((-(1.0 - q).ln() * mean).round() as usize).clamp(1, pop.len());
        group.clear();
        while group.len() < k {
            let e = pop.sample(&mut structure);
            if !group.contains(&e) {
                group.push(e);
            }
        }
        for &e in &group {
            members
                .push_row(vec![Value::int(e), Value::int(group_id)])
                .expect("schema");
        }
    }
    let mut db = Database::new();
    db.register(entity, names).expect("fresh db");
    db.register(member, members).expect("fresh db");
    db
}

/// The IMDB-shaped population: `actors` actors, skew 0.9.
pub fn imdb_population(seed: u64, actors: usize) -> Population {
    Population::new(seed, actors, 0.9)
}

/// An IMDB-shaped database: `actors` actors, `actors·13/40` movies with
/// about ten cast members each, so many rows share a movie and the
/// co-actor graph expands about 8x over its condensed form.
pub fn imdb_db(seed: u64, actors: usize) -> Database {
    cooccurrence_db(
        &imdb_population(seed, actors),
        seed,
        ["name", "cast_info"],
        ["person_id", "movie_id"],
        actors * 13 / 40,
        10.0,
    )
}

/// Authors in the serving database.
pub const DBLP_AUTHORS: usize = 25_000;
/// Publications in the serving database.
pub const DBLP_PUBLICATIONS: usize = 45_000;

/// The DBLP-shaped population: the serving database's authors, skew 0.8.
pub fn dblp_population(seed: u64) -> Population {
    Population::new(seed, DBLP_AUTHORS, 0.8)
}

/// The DBLP-shaped database of the serving workloads: about 2 authors
/// per paper over a large key space.
pub fn dblp_db(seed: u64) -> Database {
    cooccurrence_db(
        &dblp_population(seed),
        seed,
        ["Author", "AuthorPub"],
        ["aid", "pid"],
        DBLP_PUBLICATIONS,
        2.0,
    )
}

/// Popularity-skewed keys: the hot-key read pattern.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: SplitMix64,
    pop: Population,
}

impl KeyStream {
    /// Keys drawn from `pop`, in an order fixed by `seed`.
    pub fn new(seed: u64, pop: Population) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            pop,
        }
    }

    /// Next key.
    pub fn next_key(&mut self) -> i64 {
        self.pop.sample(&mut self.rng)
    }

    /// Next key as a database value.
    pub fn next_value(&mut self) -> Value {
        Value::int(self.next_key())
    }
}

/// One `APPLY` batch of `(aid, pid)` memberships.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Rows inserted.
    pub inserts: Vec<(i64, i64)>,
    /// Rows deleted; every one was inserted earlier by the same stream.
    pub deletes: Vec<(i64, i64)>,
}

impl Batch {
    /// Total delta rows, what a successful `APPLY` answers as `rows=`.
    pub fn rows(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The protocol line.
    pub fn line(&self) -> String {
        let mut line = format!("APPLY {CHURN_TABLE}");
        for (a, p) in &self.inserts {
            line.push_str(&format!(" +{a},{p}"));
        }
        for (a, p) in &self.deletes {
            line.push_str(&format!(" -{a},{p}"));
        }
        line
    }

    /// The rows as database values.
    pub fn values(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|&(a, p)| vec![Value::int(a), Value::int(p)])
            .collect()
    }
}

/// Balanced steady-state churn: every batch inserts `units` fresh
/// publications (two Zipf-drawn co-authors each, the base shape) and
/// deletes the `units` the stream's previous batch inserted. The table's
/// row count is the same after every batch, and a delete never misses.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: SplitMix64,
    pop: Population,
    units: usize,
    next_pid: i64,
    pending: VecDeque<[(i64, i64); 2]>,
}

impl ChurnStream {
    /// Stream `stream` of the run: its publication ids live in a range of
    /// their own, far above the base table's, so streams never touch each
    /// other's or the base rows.
    pub fn new(seed: u64, stream: u64, pop: Population, units: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0xC4_u64.wrapping_mul(stream + 1)),
            pop,
            units,
            next_pid: 1_000_000_000 * (stream as i64 + 1),
            pending: VecDeque::new(),
        }
    }

    fn fresh_unit(&mut self) -> [(i64, i64); 2] {
        let a = self.pop.sample(&mut self.rng);
        let mut b = self.pop.sample(&mut self.rng);
        while b == a {
            b = self.pop.sample(&mut self.rng);
        }
        let p = self.next_pid;
        self.next_pid += 1;
        [(a, p), (b, p)]
    }

    /// Rows to insert once at set-up, so the first batch has rows to
    /// delete.
    pub fn prefill(&mut self) -> Vec<(i64, i64)> {
        assert!(self.pending.is_empty(), "prefill runs once");
        let mut rows = Vec::new();
        for _ in 0..self.units {
            let unit = self.fresh_unit();
            rows.extend_from_slice(&unit);
            self.pending.push_back(unit);
        }
        rows
    }

    /// The next balanced batch.
    pub fn next_batch(&mut self) -> Batch {
        let mut batch = Batch {
            inserts: Vec::with_capacity(2 * self.units),
            deletes: Vec::with_capacity(2 * self.units),
        };
        for _ in 0..self.units {
            let unit = self.fresh_unit();
            batch.inserts.extend_from_slice(&unit);
            self.pending.push_back(unit);
        }
        for _ in 0..self.units {
            let unit = self.pending.pop_front().expect("prefilled");
            batch.deletes.extend_from_slice(&unit);
        }
        batch
    }

    /// Rows this stream has inserted and not yet deleted.
    pub fn live_rows(&self) -> Vec<(i64, i64)> {
        self.pending.iter().flatten().copied().collect()
    }

    /// Edges the stream's live rows can add at most: one undirected
    /// co-author pair, two directed edges, per publication.
    pub fn max_edge_swing(&self) -> u64 {
        2 * self.pending.len() as u64
    }
}

/// Kinds of serving request, for per-kind latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `NEIGHBORS` or `DEGREE`.
    Read,
    /// `APPLY`.
    Apply,
    /// `ANALYZE`.
    Analyze,
}

/// One request of a serving stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `NEIGHBORS g <key>`.
    Neighbors(i64),
    /// `DEGREE g <key>`.
    Degree(i64),
    /// `APPLY AuthorPub …`.
    Apply(Batch),
    /// `ANALYZE g <algo>`.
    Analyze(&'static str),
}

impl Request {
    /// The protocol line, without its newline.
    pub fn line(&self) -> String {
        match self {
            Request::Neighbors(k) => format!("NEIGHBORS {GRAPH} {k}"),
            Request::Degree(k) => format!("DEGREE {GRAPH} {k}"),
            Request::Apply(b) => b.line(),
            Request::Analyze(algo) => format!("ANALYZE {GRAPH} {algo}"),
        }
    }

    /// Latency class.
    pub fn kind(&self) -> Kind {
        match self {
            Request::Neighbors(_) | Request::Degree(_) => Kind::Read,
            Request::Apply(_) => Kind::Apply,
            Request::Analyze(_) => Kind::Analyze,
        }
    }
}

/// `APPLY` share of the serve_read mix, per mille; the rest after
/// `ANALYZE` are reads, half `NEIGHBORS`, half `DEGREE`. Writes stay rare,
/// but at the ~45 requests/s the baseline wire allows, a 20-second run
/// still sends the twenty `APPLY`s and `ANALYZE`s a median needs.
pub const READ_MIX_APPLY: u64 = 40;
/// `ANALYZE … degree` share of the serve_read mix, per mille.
pub const READ_MIX_ANALYZE: u64 = 100;
/// Churn units (two rows each) per serve_read `APPLY`.
pub const READ_MIX_UNITS: usize = 2;

/// One serve_read connection's request stream.
#[derive(Debug, Clone)]
pub struct ReadMix {
    rng: SplitMix64,
    keys: KeyStream,
    churn: ChurnStream,
}

impl ReadMix {
    /// Connection `conn`'s stream for `seed`.
    pub fn new(seed: u64, conn: u64) -> Self {
        let s = seed ^ (conn + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pop = dblp_population(seed);
        Self {
            rng: SplitMix64::new(s),
            keys: KeyStream::new(s ^ 0x5EED, pop.clone()),
            churn: ChurnStream::new(seed, conn, pop, READ_MIX_UNITS),
        }
    }

    /// Set-up rows of this connection's churn.
    pub fn prefill(&mut self) -> Vec<(i64, i64)> {
        self.churn.prefill()
    }

    /// The churn state (for the end-of-run checks).
    pub fn churn(&self) -> &ChurnStream {
        &self.churn
    }

    /// Next request.
    pub fn next_request(&mut self) -> Request {
        let roll = self.rng.next_below(1000);
        if roll < READ_MIX_APPLY {
            Request::Apply(self.churn.next_batch())
        } else if roll < READ_MIX_APPLY + READ_MIX_ANALYZE {
            Request::Analyze("degree")
        } else if roll.is_multiple_of(2) {
            Request::Neighbors(self.keys.next_key())
        } else {
            Request::Degree(self.keys.next_key())
        }
    }
}
