//! The serving workloads: a persistent `GraphService` (fsync on, the
//! `ServiceConfig` default) behind the real TCP front end, loaded by two
//! closed-loop client connections from this process.
//!
//! Each connection writes a request as one `write_all` of the whole line
//! and sends its next request only after the reply line arrived. Nothing
//! on the client side changes how the server's replies travel (no
//! `TCP_QUICKACK`, no pipelining), so whatever the wire costs shows.

use crate::expo::{self, Scrape};
use crate::library::{overhead_pct, phase_ns, phase_span_name, SETUP_REPS};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::stream::{
    dblp_db, dblp_dsl, dblp_population, Batch, ChurnStream, KeyStream, Kind, ReadMix, Request,
    CHURN_TABLE, GRAPH,
};
use crate::trace::{SpanId, Tracer};
use crate::{ns, say, self_pct, RunCfg};
use graphgen_bench::alloc;
use graphgen_common::metrics::collect_phases;
use graphgen_core::{GraphGen, GraphGenConfig};
use graphgen_graph::GraphRep;
use graphgen_reldb::{Database, DeltaBatch, Value};
use graphgen_serve::protocol::{execute, parse_command, Command};
use graphgen_serve::{GraphService, ServerHandle, ServiceConfig, TableMutation};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve_read`: hot-key reads, rare small writes, cached analytics.
    Read,
    /// `serve_write`: one writer of 64-row batches, one reader that
    /// analyzes every new version.
    Write,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Read => "serve_read",
            Mode::Write => "serve_write",
        }
    }
}

/// Churn units (two rows each) per serve_write `APPLY`: 64-row batches.
pub const WRITE_UNITS: usize = 16;
/// `NEIGHBORS` requests the serve_write reader sends between two
/// `ANALYZE` checks, so reads reach the sample count of their p90.
pub const READS_PER_ANALYZE: usize = 4;

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
        })
    }

    /// One request line out (a single write), one response line back.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(response.trim_end().to_string())
    }
}

/// The per-connection request sources of one run.
enum Streams {
    Read(Vec<ReadMix>),
    Write { churn: ChurnStream, keys: KeyStream },
}

impl Streams {
    fn new(seed: u64, mode: Mode) -> Streams {
        match mode {
            Mode::Read => Streams::Read((0..2).map(|c| ReadMix::new(seed, c)).collect()),
            Mode::Write => Streams::Write {
                churn: ChurnStream::new(seed, 0, dblp_population(seed), WRITE_UNITS),
                keys: KeyStream::new(seed ^ 0x7EAD, dblp_population(seed)),
            },
        }
    }

    fn prefill(&mut self) -> Vec<(i64, i64)> {
        match self {
            Streams::Read(mixes) => mixes.iter_mut().flat_map(ReadMix::prefill).collect(),
            Streams::Write { churn, .. } => churn.prefill(),
        }
    }

    fn churns(&self) -> Vec<&ChurnStream> {
        match self {
            Streams::Read(mixes) => mixes.iter().map(ReadMix::churn).collect(),
            Streams::Write { churn, .. } => vec![churn],
        }
    }
}

/// A running service with its server and two connected clients.
struct Served {
    service: Arc<GraphService>,
    server: Option<ServerHandle>,
    dir: PathBuf,
    conns: Vec<Conn>,
    streams: Streams,
    extract_peak: f64,
}

fn service_dir(cfg: &RunCfg, label: &str) -> PathBuf {
    cfg.out_dir
        .join(format!("svc-{}-{}-{label}", cfg.workload, cfg.seed))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

fn setup(cfg: &RunCfg, mode: Mode, rep: usize) -> Result<Served, String> {
    let dir = service_dir(cfg, &rep.to_string());
    fresh_dir(&dir)?;
    let service = Arc::new(
        GraphService::create(&dir, dblp_db(cfg.seed), ServiceConfig::default())
            .map_err(|e| format!("create service: {e}"))?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = graphgen_serve::spawn(Arc::clone(&service), listener)
        .map_err(|e| format!("start server: {e}"))?;
    let mut first = Conn::connect(server.addr())?;
    let extract = format!("EXTRACT {GRAPH} {}", dblp_dsl());
    let (response, mem) = alloc::measure(|| first.roundtrip(&extract));
    let response = response?;
    if !response.starts_with("OK version=1") {
        return Err(format!("EXTRACT answered {response:?}"));
    }
    let mut streams = Streams::new(cfg.seed, mode);
    let prefill = streams.prefill();
    service
        .apply(&[TableMutation::new(
            CHURN_TABLE,
            Batch::values(&prefill),
            vec![],
        )])
        .map_err(|e| format!("prefill: {e}"))?;
    let second = Conn::connect(server.addr())?;
    Ok(Served {
        service,
        server: Some(server),
        dir,
        conns: vec![first, second],
        streams,
        extract_peak: mem.peak as f64,
    })
}

impl Served {
    /// Close the clients, stop the server, wait for every connection
    /// handler to let go of the service, and remove its directory.
    fn teardown(mut self) -> Result<(), String> {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.service) > 1 {
            if Instant::now() > deadline {
                return Err("connection handlers did not exit".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let dir = self.dir.clone();
        drop(self);
        fresh_dir(&dir)
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        expo::parse_response(&self.conns[0].roundtrip("METRICS")?)
    }

    /// (table rows, vertices, expanded edges) of the served state.
    fn shape(&self) -> Result<(usize, usize, u64), String> {
        let (stats, db_rows) = self.service.stats();
        let g = stats
            .iter()
            .find(|s| s.name == GRAPH)
            .ok_or("served graph vanished")?;
        Ok((db_rows, g.vertices, g.edges))
    }
}

/// One request as sent and answered.
#[derive(Debug, Clone)]
struct Rec {
    seq: u64,
    request: Request,
    line: String,
    rtt_ns: f64,
    ok: bool,
    err_line: bool,
    span: Option<SpanId>,
}

/// Check one response against its request.
fn response_ok(request: &Request, response: &str) -> bool {
    match request {
        Request::Neighbors(_) => response.starts_with("OK version=") && response.contains(" n="),
        Request::Degree(_) => response.starts_with("OK version=") && response.contains(" degree="),
        Request::Analyze(_) => response.starts_with("OK version="),
        Request::Apply(batch) => response.starts_with(&format!("OK rows={} ", batch.rows())),
    }
}

/// The `version=` a response leads with.
fn response_version(response: &str) -> Option<u64> {
    response
        .strip_prefix("OK version=")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

struct Window {
    recs: Vec<Rec>,
    elapsed: Duration,
}

/// Run both connections for `seconds`, closed loop.
fn window(
    served: &mut Served,
    seconds: f64,
    tracer: Option<&Tracer>,
    seq: &AtomicU64,
) -> Result<Window, String> {
    let barrier = Barrier::new(2);
    let start_cell = std::sync::OnceLock::new();
    let conns = &mut served.conns;
    let (c0, c1) = conns.split_at_mut(1);
    let conn_pair = [&mut c0[0], &mut c1[0]];
    let send = |conn: &mut Conn, request: Request| -> Result<(Rec, String), String> {
        let line = request.line();
        let n = seq.fetch_add(1, Ordering::SeqCst);
        let t = Instant::now();
        let response = conn.roundtrip(&line)?;
        let end = Instant::now();
        let span = tracer.map(|tr| tr.record("server.request", None, t, end));
        let ok = response_ok(&request, &response);
        Ok((
            Rec {
                seq: n,
                request,
                line,
                rtt_ns: ns(end - t),
                ok,
                err_line: response.starts_with("ERR"),
                span,
            },
            response,
        ))
    };
    let results: Vec<Result<(Vec<Rec>, Instant), String>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        match &mut served.streams {
            Streams::Read(mixes) => {
                for (conn, mix) in conn_pair.into_iter().zip(mixes.iter_mut()) {
                    let (barrier, start_cell, send) = (&barrier, &start_cell, &send);
                    handles.push(s.spawn(move || {
                        barrier.wait();
                        let start = *start_cell.get_or_init(Instant::now);
                        let deadline = start + Duration::from_secs_f64(seconds);
                        let mut recs = Vec::new();
                        while Instant::now() < deadline {
                            recs.push(send(conn, mix.next_request())?.0);
                        }
                        Ok((recs, Instant::now()))
                    }));
                }
            }
            Streams::Write { churn, keys } => {
                let [writer_conn, reader_conn] = conn_pair;
                let (barrier, start_cell, send) = (&barrier, &start_cell, &send);
                handles.push(s.spawn(move || {
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut recs = Vec::new();
                    while Instant::now() < deadline {
                        recs.push(send(writer_conn, Request::Apply(churn.next_batch()))?.0);
                    }
                    Ok((recs, Instant::now()))
                }));
                handles.push(s.spawn(move || {
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut recs = Vec::new();
                    let mut analyzed = 0u64;
                    while Instant::now() < deadline {
                        let mut version = 0;
                        for _ in 0..READS_PER_ANALYZE {
                            let (rec, response) =
                                send(reader_conn, Request::Neighbors(keys.next_key()))?;
                            version = response_version(&response).unwrap_or(0);
                            recs.push(rec);
                        }
                        // Analyze each newly published version once: a
                        // guaranteed cache miss that warm-starts from the
                        // previous version's ranks.
                        if version > analyzed && Instant::now() < deadline {
                            let (rec, response) = send(reader_conn, Request::Analyze("pagerank"))?;
                            analyzed = response_version(&response).unwrap_or(version);
                            recs.push(rec);
                        }
                    }
                    Ok((recs, Instant::now()))
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let start = *start_cell.get().ok_or("window never started")?;
    let mut recs = Vec::new();
    let mut end = start;
    for r in results {
        let (mut rs, finished) = r?;
        recs.append(&mut rs);
        end = end.max(finished);
    }
    recs.sort_by_key(|r| r.seq);
    Ok(Window {
        recs,
        elapsed: end - start,
    })
}

fn samples_of(recs: &[Rec], kind: Kind, scale: f64) -> Samples {
    let mut s = Samples::default();
    for r in recs.iter().filter(|r| r.request.kind() == kind) {
        s.push(r.rtt_ns * scale);
    }
    s
}

/// Format a percentile, or say why it is not reported.
fn pct_text(s: &Samples, q: f64, what: &str) -> String {
    match s.percentile(q, what) {
        Ok(v) => format!("{v:.1}"),
        Err(_) => "n/a".into(),
    }
}

/// The database the served graph must equal at the end: the base rows
/// plus every row the write streams still hold.
fn expected_db(seed: u64, streams: &Streams) -> Result<Database, String> {
    let mut db = dblp_db(seed);
    let live: Vec<(i64, i64)> = streams
        .churns()
        .iter()
        .flat_map(|c| c.live_rows())
        .collect();
    db.insert_rows(CHURN_TABLE, Batch::values(&live))
        .map_err(|e| format!("expected db: {e}"))?;
    Ok(db)
}

/// The serving workload `mode`.
pub fn run(cfg: &RunCfg, mode: Mode) -> Result<Outcome, String> {
    let mut setups = Samples::default();
    let mut peaks = Samples::default();
    let mut served: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = served.take() {
            old.teardown()?;
        }
        let t = Instant::now();
        let fresh = setup(cfg, mode, rep)?;
        setups.push(t.elapsed().as_secs_f64());
        peaks.push(fresh.extract_peak);
        served = Some(fresh);
    }
    let mut served = served.expect("set up at least once");

    let seq = AtomicU64::new(0);
    let before = served.scrape()?;
    let shape_before = served.shape()?;
    let tracer = cfg.trace.then(Tracer::new);
    let (plain, traced_w) = if cfg.trace {
        let plain = window(&mut served, cfg.seconds / 2.0, None, &seq)?;
        let traced_w = window(&mut served, cfg.seconds / 2.0, tracer.as_ref(), &seq)?;
        (plain, Some(traced_w))
    } else {
        (window(&mut served, cfg.seconds, None, &seq)?, None)
    };
    let after = served.scrape()?;
    let shape_after = served.shape()?;
    let delta = after.since(&before);

    let mut all: Vec<Rec> = plain.recs.clone();
    if let Some(t) = &traced_w {
        all.extend(t.recs.iter().cloned());
    }
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| !r.ok).count() as u64;
    let errors = all.iter().filter(|r| r.err_line).count() as f64;

    // The program's own counts must agree with the client's: every
    // request in the window plus the opening METRICS scrape.
    let requests_seen = delta.value("graphgen_requests_total")?;
    let errors_seen = delta.value("graphgen_request_errors_total")?;
    let counts_agree = requests_seen == attempted as f64 + 1.0 && errors_seen == errors;

    // Steady state: balanced churn leaves the table size and the vertex
    // set unchanged, and the edge count within what the rows the streams
    // hold can add.
    let swing: u64 = served
        .streams
        .churns()
        .iter()
        .map(|c| c.max_edge_swing())
        .sum();
    let steady = shape_before.0 == shape_after.0
        && shape_before.1 == shape_after.1
        && shape_before.2.abs_diff(shape_after.2) <= swing;

    // Patched equals re-extracted: the served graph against a fresh
    // extraction over the database the streams say should exist now.
    let served_snapshot = served
        .service
        .snapshot(GRAPH)
        .map_err(|e| format!("snapshot: {e}"))?;
    let final_db = expected_db(cfg.seed, &served.streams)?;
    let dsl = dblp_dsl();
    let (fresh, extract_phases) = collect_phases(|| GraphGen::new(&final_db).extract(&dsl));
    let fresh = fresh.map_err(|e| format!("fresh extract: {e}"))?;
    let matches_fresh = fresh.canonical_bytes() == served_snapshot.canonical_bytes();

    let mut out = Outcome {
        correct: failed == 0 && counts_agree && steady && matches_fresh,
        attempted,
        failed,
        ..Outcome::default()
    };

    let reads_us = samples_of(&plain.recs, Kind::Read, 1e-3);
    let applies_ms = samples_of(&plain.recs, Kind::Apply, 1e-6);
    let analyzes_ms = samples_of(&plain.recs, Kind::Analyze, 1e-6);
    let secs = plain.elapsed.as_secs_f64();
    let rows_applied: usize = plain
        .recs
        .iter()
        .filter_map(|r| match &r.request {
            Request::Apply(b) => Some(b.rows()),
            _ => None,
        })
        .sum();

    say(
        "workload",
        mode.name(),
        &format!(
            "DBLP-shaped, {} rows, 2 closed-loop TCP connections, fsync on, seed {}",
            shape_before.0, cfg.seed
        ),
    );
    say(
        "check.responses_ok",
        failed == 0,
        &format!("({failed} of {attempted} failed)"),
    );
    say(
        "check.metrics_counts_agree",
        counts_agree,
        &format!("(requests_total +{requests_seen}, request_errors_total +{errors_seen})"),
    );
    say(
        "check.steady_state",
        steady,
        &format!(
            "(rows {}→{}, vertices {}→{}, edges {}→{}, allowed edge swing {swing})",
            shape_before.0,
            shape_after.0,
            shape_before.1,
            shape_after.1,
            shape_before.2,
            shape_after.2
        ),
    );
    say("check.patched_equals_reextracted", matches_fresh, "");
    say(
        "setup_s",
        setups.median_or_zero(),
        &format!("s  (median of {SETUP_REPS} set-ups)"),
    );
    say(
        "read_p50_us",
        pct_text(&reads_us, 0.5, "read"),
        &format!("us  (n={})", reads_us.len()),
    );
    say(
        "read_p99_us",
        pct_text(&reads_us, 0.99, "read"),
        &format!("us  (n={}, n/a below 1000 samples)", reads_us.len()),
    );
    say(
        "ops_per_s",
        format!("{:.1}", plain.recs.len() as f64 / secs),
        "req/s",
    );
    say(
        "apply_p50_ms",
        pct_text(&applies_ms, 0.5, "apply"),
        &format!("ms  (n={})", applies_ms.len()),
    );
    say(
        "apply_p90_ms",
        pct_text(&applies_ms, 0.9, "apply"),
        &format!("ms  (n={}, n/a below 100 samples)", applies_ms.len()),
    );
    say(
        "apply_rows_per_s",
        format!("{:.1}", rows_applied as f64 / secs),
        "rows/s",
    );
    say(
        "analyze_p50_ms",
        pct_text(&analyzes_ms, 0.5, "analyze"),
        &format!("ms  (n={})", analyzes_ms.len()),
    );
    say(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    for (label, series) in [
        ("metrics.applies", "graphgen_applies_total"),
        ("metrics.publishes", "graphgen_publishes_total"),
        ("metrics.wal_appends", "graphgen_wal_appends_total"),
        (
            "metrics.wal_append_bytes",
            "graphgen_wal_append_bytes_total",
        ),
        ("metrics.wal_fsyncs", "graphgen_wal_fsync_ns_count"),
        ("metrics.compactions", "graphgen_compactions_total"),
        ("metrics.analyze_hits", "graphgen_analyze_hits_total"),
        (
            "metrics.analyze_computes",
            "graphgen_analyze_computes_total",
        ),
        (
            "metrics.analyze_warm_starts",
            "graphgen_analyze_warm_starts_total",
        ),
    ] {
        say(
            label,
            delta.get(series).unwrap_or(0.0),
            "(delta over the run)",
        );
    }
    say(
        "metrics.wal_fsync_mean_ns",
        format!("{:.0}", delta.hist_mean("graphgen_wal_fsync_ns", "")),
        "ns",
    );

    if let (Some(tw), Some(tracer)) = (traced_w, tracer) {
        let standalone = Tracer::new();
        per_layer(cfg, mode, &mut out, &all, &tracer, &standalone, &delta)?;
        out.set("reldb.scan_ns", phase_ns(&extract_phases, "scan"));
        out.set("reldb.join_ns", phase_ns(&extract_phases, "join"));
        out.set("reldb.distinct_ns", phase_ns(&extract_phases, "distinct"));
        out.set("core.build_rep_ns", phase_ns(&extract_phases, "build_rep"));
        let mut checks = Samples::default();
        for _ in 0..20 {
            let t = Instant::now();
            GraphGen::new(&final_db)
                .check(&dsl)
                .map_err(|e| format!("check: {e}"))?;
            checks.push(ns(t.elapsed()));
        }
        out.set("dsl.check_ns", checks.median_or_zero());
        out.set(
            "trace.overhead_pct",
            overhead_pct(
                &samples_of(&plain.recs, Kind::Read, 1.0),
                &samples_of(&tw.recs, Kind::Read, 1.0),
            ),
        );
        self_pct(&mut out, &tracer.spans());
        crate::write_trace(cfg, &[("window", &tracer), ("standalone", &standalone)])?;
    } else {
        out.set("setup_s", setups.median_or_zero());
        out.set("read_p50_us", reads_us.percentile(0.5, "read")?);
        out.set("read_p90_us", reads_us.percentile(0.9, "read")?);
        out.set("build_p50_ms", applies_ms.percentile(0.5, "apply")?);
        out.set("analytics_p50_ms", analyzes_ms.percentile(0.5, "analyze")?);
        out.set("ops_per_s", plain.recs.len() as f64 / secs);
        out.set("graph_bytes", served_snapshot.handle().heap_bytes() as f64);
        out.set("build_peak_bytes", peaks.median_or_zero());
    }
    drop(served_snapshot);
    served.teardown()?;
    Ok(out)
}

/// The traced run's per-layer figures: the request stream replayed
/// in-process (protocol, service, graph, per-phase apply), every batch
/// replayed against a standalone database and working handle (reldb and
/// core), and the service's own counters.
fn per_layer(
    cfg: &RunCfg,
    mode: Mode,
    out: &mut Outcome,
    recs: &[Rec],
    tracer: &Tracer,
    standalone: &Tracer,
    delta: &Scrape,
) -> Result<(), String> {
    // In-process replay against a fresh service of the same shape.
    let dir = service_dir(cfg, "replay");
    fresh_dir(&dir)?;
    let service = GraphService::create(&dir, dblp_db(cfg.seed), ServiceConfig::default())
        .map_err(|e| format!("create replay service: {e}"))?;
    service
        .extract(GRAPH, &dblp_dsl())
        .map_err(|e| format!("replay extract: {e}"))?;
    let prefill = Streams::new(cfg.seed, mode).prefill();
    service
        .apply(&[TableMutation::new(
            CHURN_TABLE,
            Batch::values(&prefill),
            vec![],
        )])
        .map_err(|e| format!("replay prefill: {e}"))?;

    let mut parse = Samples::default();
    let mut execute_ns = Samples::default();
    let mut snapshot = Samples::default();
    let mut neighbors = Samples::default();
    let mut wire = Samples::default();
    let mut phases_by: [Samples; 5] = Default::default();
    for rec in recs {
        let t = Instant::now();
        let cmd = parse_command(&rec.line)
            .map_err(|e| format!("replay parse: {e}"))?
            .ok_or("replay parsed an empty line")?;
        let parse_ns = ns(t.elapsed());
        parse.push(parse_ns);
        match (&rec.request, &cmd) {
            (Request::Neighbors(k) | Request::Degree(k), _) => {
                let key = Value::int(*k);
                let t = Instant::now();
                let snap = service
                    .snapshot(GRAPH)
                    .map_err(|e| format!("snapshot: {e}"))?;
                let t1 = Instant::now();
                let found = match rec.request {
                    Request::Neighbors(_) => snap.handle().neighbors_by_key(&key).map(|v| v.len()),
                    _ => snap.handle().degree_by_key(&key),
                };
                let t2 = Instant::now();
                if found.is_none() {
                    return Err(format!("replay read of {k} found no vertex"));
                }
                let response = execute(&service, &cmd);
                let e = ns(t2.elapsed());
                if !response_ok(&rec.request, &response) {
                    return Err(format!("replay answered {response:?}"));
                }
                snapshot.push(ns(t1 - t));
                neighbors.push(ns(t2 - t1));
                execute_ns.push(e);
                wire.push(rec.rtt_ns - parse_ns - e);
                if let Some(span) = rec.span {
                    tracer.child(span, 0, "protocol.parse", parse_ns as u64);
                    let exec = tracer.child(span, parse_ns as u64, "protocol.execute", e as u64);
                    tracer.child(exec, 0, "service.snapshot", ns(t1 - t) as u64);
                    tracer.child(
                        exec,
                        ns(t1 - t) as u64,
                        "graph.neighbors",
                        ns(t2 - t1) as u64,
                    );
                }
            }
            (
                Request::Apply(_),
                Command::Apply {
                    table,
                    inserts,
                    deletes,
                },
            ) => {
                let t = Instant::now();
                let (res, phases) = collect_phases(|| {
                    service.apply(&[TableMutation::new(
                        table.clone(),
                        inserts.clone(),
                        deletes.clone(),
                    )])
                });
                let a = ns(t.elapsed());
                res.map_err(|e| format!("replay apply: {e}"))?;
                let mut attributed = 0.0;
                for (i, label) in ["validate", "wal_append", "patch", "publish"]
                    .iter()
                    .enumerate()
                {
                    let v = phase_ns(&phases, label);
                    phases_by[i].push(v);
                    attributed += v;
                }
                phases_by[4].push((a - attributed).max(0.0));
                wire.push(rec.rtt_ns - parse_ns - a);
                if let Some(span) = rec.span {
                    tracer.child(span, 0, "protocol.parse", parse_ns as u64);
                    let apply = tracer.child(span, parse_ns as u64, "service.apply", a as u64);
                    tracer.phases(apply, &phases, phase_span_name);
                }
            }
            (Request::Analyze(_), _) => {
                let t = Instant::now();
                let response = execute(&service, &cmd);
                let e = ns(t.elapsed());
                if !response_ok(&rec.request, &response) {
                    return Err(format!("replay answered {response:?}"));
                }
                wire.push(rec.rtt_ns - parse_ns - e);
                if let Some(span) = rec.span {
                    tracer.child(span, 0, "protocol.parse", parse_ns as u64);
                    tracer.child(span, parse_ns as u64, "analyze.execute", e as u64);
                }
            }
            (request, cmd) => {
                return Err(format!("replay: {request:?} parsed as {cmd:?}"));
            }
        }
    }
    drop(service);
    fresh_dir(&dir)?;

    out.set("protocol.parse_ns", parse.median_or_zero());
    out.set("protocol.execute_ns", execute_ns.median_or_zero());
    out.set("service.snapshot_ns", snapshot.median_or_zero());
    out.set("graph.neighbors_ns", neighbors.median_or_zero());
    out.set("server.wire_ns", wire.median_or_zero());
    for (i, name) in [
        "service.apply.validate_ns",
        "service.apply.wal_append_ns",
        "service.apply.patch_ns",
        "service.apply.publish_ns",
        "service.apply.unattributed_ns",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, phases_by[i].median_or_zero());
    }

    standalone_replay(cfg, mode, out, recs, standalone)?;

    // The service's own counters over the measured windows.
    let rows = delta.get("graphgen_apply_rows_total").unwrap_or(0.0);
    let wal_bytes = delta.get("graphgen_wal_append_bytes_total").unwrap_or(0.0);
    out.set("wal.fsync_ns", delta.hist_mean("graphgen_wal_fsync_ns", ""));
    out.set(
        "wal.bytes_per_row",
        if rows > 0.0 { wal_bytes / rows } else { 0.0 },
    );
    out.set(
        "wal.compactions",
        delta.get("graphgen_compactions_total").unwrap_or(0.0),
    );
    out.set(
        "wal.compaction_ns",
        delta.hist_mean("graphgen_compaction_ns", ""),
    );
    let hits = delta.get("graphgen_analyze_hits_total").unwrap_or(0.0);
    let computes = delta.get("graphgen_analyze_computes_total").unwrap_or(0.0);
    out.set(
        "analyze.hit_ratio",
        if hits + computes > 0.0 {
            hits / (hits + computes)
        } else {
            0.0
        },
    );
    let compute_ns = delta.hist_mean("graphgen_analyze_compute_ns", "");
    out.set("analyze.compute_ns", compute_ns);
    out.set(
        "analyze.warm_starts",
        delta
            .get("graphgen_analyze_warm_starts_total")
            .unwrap_or(0.0),
    );
    // Each mix analyzes with one algorithm; its kernel time is the
    // compute time the service measured.
    match mode {
        Mode::Read => out.set("algo.degree_ns", compute_ns),
        Mode::Write => out.set("algo.pagerank_ns", compute_ns),
    }
    Ok(())
}

/// Every `APPLY` batch, in order, against a standalone database and a
/// working incremental handle: the reldb mutation and core patch costs
/// without the service around them.
fn standalone_replay(
    cfg: &RunCfg,
    mode: Mode,
    out: &mut Outcome,
    recs: &[Rec],
    tracer: &Tracer,
) -> Result<(), String> {
    let mut db = dblp_db(cfg.seed);
    let prefill = Streams::new(cfg.seed, mode).prefill();
    db.insert_rows(CHURN_TABLE, Batch::values(&prefill))
        .map_err(|e| format!("standalone prefill: {e}"))?;
    let mut working =
        GraphGen::with_config(&db, GraphGenConfig::builder().incremental(true).build())
            .extract(&dblp_dsl())
            .map_err(|e| format!("standalone extract: {e}"))?;
    let mut insert = Samples::default();
    let mut delete = Samples::default();
    let mut patch = Samples::default();
    let mut clone = Samples::default();
    for rec in recs {
        let Request::Apply(batch) = &rec.request else {
            continue;
        };
        tracer.span("client.batch", None, |root| -> Result<(), String> {
            let t = Instant::now();
            let ins = tracer
                .span("reldb.insert", Some(root), |_| {
                    db.insert_rows(CHURN_TABLE, Batch::values(&batch.inserts))
                })
                .map_err(|e| format!("standalone insert: {e}"))?;
            let t1 = Instant::now();
            let del = tracer
                .span("reldb.delete", Some(root), |_| {
                    db.delete_rows(CHURN_TABLE, &Batch::values(&batch.deletes))
                })
                .map_err(|e| format!("standalone delete: {e}"))?;
            let t2 = Instant::now();
            if ins.len() != batch.inserts.len() || del.len() != batch.deletes.len() {
                return Err("standalone replay: a churn delete missed".into());
            }
            let mut delta = DeltaBatch::new();
            delta.push(ins);
            delta.push(del);
            let t3 = Instant::now();
            tracer
                .span("core.patch", Some(root), |_| working.apply_batch(&delta))
                .map_err(|e| format!("standalone patch: {e}"))?;
            let t4 = Instant::now();
            let reader = tracer.span("core.reader_clone", Some(root), |_| working.reader_clone());
            let t5 = Instant::now();
            drop(reader);
            insert.push(ns(t1 - t) / batch.inserts.len() as f64);
            delete.push(ns(t2 - t1) / batch.deletes.len() as f64);
            patch.push(ns(t4 - t3));
            clone.push(ns(t5 - t4));
            Ok(())
        })?;
    }
    out.set("reldb.insert_ns_per_row", insert.median_or_zero());
    out.set("reldb.delete_ns_per_row", delete.median_or_zero());
    out.set("core.patch_ns", patch.median_or_zero());
    out.set("core.reader_clone_ns", clone.median_or_zero());
    Ok(())
}
