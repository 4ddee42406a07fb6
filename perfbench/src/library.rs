//! The library workload `extract`: the paper's extraction pipeline,
//! followed by the duplication-handling representations, all driven
//! through the `graphgen_core` facade with no server involved.

use crate::report::Outcome;
use crate::stats::Samples;
use crate::stream::{imdb_db, imdb_population, KeyStream, IMDB_DSL};
use crate::trace::{SpanId, Tracer};
use crate::{ns, say, self_pct, RunCfg};
use graphgen_algo::{connected_components, degrees, pagerank, PageRankConfig};
use graphgen_bench::alloc;
use graphgen_common::metrics::collect_phases;
use graphgen_core::{ConvertOptions, GraphGen, GraphHandle};
use graphgen_graph::{GraphRep, RepKind};
use graphgen_reldb::Database;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Actors in the `extract` database (about 20k cast rows): more than
/// twenty pipeline iterations fit in one run.
pub const EXTRACT_ACTORS: usize = 6_000;
/// Actors in the database the DEDUP-1 and BITMAP conversions run on
/// (about 4.7k cast rows): DEDUP-1's construction is superlinear, and at
/// this size a conversion pass takes about half a second.
pub const DEDUP_ACTORS: usize = 1_400;
/// Conversion passes of a traced run; its `dedup.*` figures are their
/// medians.
pub const DEDUP_PASSES: usize = 3;
/// Point reads (`neighbors_by_key`) per pipeline iteration.
pub const READS_PER_ITERATION: usize = 1_000;
/// Labelings of the workload database per run. Greedy constructions break
/// ties by vertex id, so one labeling of a graph can cost more than
/// another; iteration `i` works on labeling `i mod LABELINGS`, and a run's
/// medians cover all of them.
pub const LABELINGS: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Largest PageRank difference accepted between two representations of
/// one graph: the kernels are the same, only the order in which
/// neighbour contributions are summed differs.
pub const PAGERANK_TOLERANCE: f64 = 1e-9;

/// Seed of labeling `k` of the run seeded `seed`.
fn labeling_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(LABELINGS).wrapping_add(k)
}

/// Program phase label → `<layer>.<name>` span name.
pub fn phase_span_name(label: &str) -> Option<String> {
    Some(match label {
        "scan" => "reldb.scan".into(),
        "join" => "reldb.join".into(),
        "distinct" => "reldb.distinct".into(),
        "build_rep" => "core.build_rep".into(),
        "validate" => "service.validate".into(),
        "wal_append" => "wal.append".into(),
        "patch" => "core.patch".into(),
        "publish" => "service.publish".into(),
        _ => return None,
    })
}

/// Sum of one phase label's durations.
pub fn phase_ns(phases: &[(&'static str, u64)], label: &str) -> f64 {
    phases
        .iter()
        .filter(|(l, _)| *l == label)
        .map(|(_, n)| *n as f64)
        .fold(0.0, |a, b| a + b)
}

/// Run `f`, inside a span when tracing.
fn traced<R>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Median of `dsl.check` over a few calls (outside any timed window).
fn check_ns(gg: &GraphGen<'_>) -> Result<f64, String> {
    let mut s = Samples::default();
    for _ in 0..20 {
        let t = Instant::now();
        let report = gg.check(IMDB_DSL).map_err(|e| format!("check: {e}"))?;
        s.push(ns(t.elapsed()));
        if report.has_errors() {
            return Err("the benchmark's program fails its own check".into());
        }
    }
    Ok(s.median_or_zero())
}

fn timed_reads(
    handle: &GraphHandle,
    keys: &mut KeyStream,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    reads_us: &mut Samples,
) -> Result<(), String> {
    for _ in 0..READS_PER_ITERATION {
        let key = keys.next_value();
        let t = Instant::now();
        let n = traced(tracer, "graph.neighbors", parent, |_| {
            handle.neighbors_by_key(&key).map(|v| black_box(v).len())
        });
        reads_us.push(t.elapsed().as_secs_f64() * 1e6);
        if n.is_none() {
            return Err(format!("read of key {key:?} found no vertex"));
        }
    }
    Ok(())
}

fn pagerank_cfg() -> PageRankConfig {
    PageRankConfig {
        threads: 2,
        ..PageRankConfig::default()
    }
}

// ---------------------------------------------------------------- extract

#[derive(Default)]
struct ExtractWindow {
    iterations: u64,
    elapsed: Duration,
    iteration_ms: Samples,
    build_ms: Samples,
    full_ms: Samples,
    analytics_ms: Samples,
    degree_ns: Samples,
    pagerank_ns: Samples,
    components_ns: Samples,
    reads_us: Samples,
    peak_bytes: Samples,
    scan_ns: Samples,
    join_ns: Samples,
    distinct_ns: Samples,
    build_rep_ns: Samples,
    graph_bytes: Samples,
    last: Option<(GraphHandle, GraphHandle)>,
}

fn extract_window(
    ggs: &[GraphGen<'_>],
    keys: &mut [KeyStream],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<ExtractWindow, String> {
    let mut w = ExtractWindow::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let it0 = Instant::now();
        let k = (w.iterations % LABELINGS) as usize;
        let (gg, keys) = (&ggs[k], &mut keys[k]);
        traced(
            tracer,
            "client.iteration",
            None,
            |root| -> Result<(), String> {
                // C-DUP extraction, with the program's own phase spans.
                let t = Instant::now();
                let ((handle, phases), mem) = alloc::measure(|| {
                    traced(tracer, "core.extract", root, |id| {
                        let (h, phases) = collect_phases(|| gg.extract(IMDB_DSL));
                        if let (Some(tr), Some(id)) = (tracer, id) {
                            tr.phases(id, &phases, phase_span_name);
                        }
                        (h, phases)
                    })
                });
                w.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let handle = handle.map_err(|e| format!("extract: {e}"))?;
                w.peak_bytes.push(mem.peak as f64);
                w.graph_bytes.push(handle.heap_bytes() as f64);
                w.scan_ns.push(phase_ns(&phases, "scan"));
                w.join_ns.push(phase_ns(&phases, "join"));
                w.distinct_ns.push(phase_ns(&phases, "distinct"));
                w.build_rep_ns.push(phase_ns(&phases, "build_rep"));
                if handle.kind() != RepKind::CDup {
                    return Err(format!("extract returned {}, not C-DUP", handle.kind()));
                }

                // The EXP baseline the paper compares against.
                let t = Instant::now();
                let full = traced(tracer, "core.extract_full", root, |id| {
                    let (f, phases) = collect_phases(|| gg.extract_full(IMDB_DSL));
                    if let (Some(tr), Some(id)) = (tracer, id) {
                        tr.phases(id, &phases, phase_span_name);
                    }
                    f
                })
                .map_err(|e| format!("extract_full: {e}"))?;
                w.full_ms.push(t.elapsed().as_secs_f64() * 1e3);

                // Analytics on the condensed handle.
                let t = Instant::now();
                let d = traced(tracer, "algo.degree", root, |_| degrees(&handle, 2));
                let t1 = Instant::now();
                let p = traced(tracer, "algo.pagerank", root, |_| {
                    pagerank(&handle, pagerank_cfg())
                });
                let t2 = Instant::now();
                let c = traced(tracer, "algo.components", root, |_| {
                    connected_components(&handle, 2)
                });
                let t3 = Instant::now();
                black_box((d, p, c));
                w.degree_ns.push(ns(t1 - t));
                w.pagerank_ns.push(ns(t2 - t1));
                w.components_ns.push(ns(t3 - t2));
                w.analytics_ms.push((t3 - t).as_secs_f64() * 1e3);

                timed_reads(&handle, keys, tracer, root, &mut w.reads_us)?;
                w.last = Some((handle, full));
                Ok(())
            },
        )?;
        w.iteration_ms.push(it0.elapsed().as_secs_f64() * 1e3);
        w.iterations += 1;
    }
    w.elapsed = start.elapsed();
    Ok(w)
}

/// The `extract` workload.
pub fn run_extract(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut setups = Samples::default();
    let mut dbs: Vec<Database> = Vec::new();
    for _ in 0..SETUP_REPS {
        dbs.clear();
        let t = Instant::now();
        for k in 0..LABELINGS {
            let db = imdb_db(labeling_seed(cfg.seed, k), EXTRACT_ACTORS);
            // One warm-up extraction: lazy allocations and caches settle
            // before the timed window.
            GraphGen::new(&db)
                .extract(IMDB_DSL)
                .map_err(|e| format!("warm-up extract: {e}"))?;
            dbs.push(db);
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let rows = dbs[0].total_rows();
    let ggs: Vec<GraphGen<'_>> = dbs.iter().map(GraphGen::new).collect();
    let mut keys: Vec<KeyStream> = (0..LABELINGS)
        .map(|k| {
            let label = labeling_seed(cfg.seed, k);
            KeyStream::new(label ^ 0x4EAD, imdb_population(label, EXTRACT_ACTORS))
        })
        .collect();

    let mut out = Outcome::default();
    let (w, traced_w, tracer) = if cfg.trace {
        let tracer = Tracer::new();
        let plain = extract_window(&ggs, &mut keys, cfg.seconds / 2.0, None)?;
        let traced_w = extract_window(&ggs, &mut keys, cfg.seconds / 2.0, Some(&tracer))?;
        (plain, Some(traced_w), Some(tracer))
    } else {
        (
            extract_window(&ggs, &mut keys, cfg.seconds, None)?,
            None,
            None,
        )
    };

    // Output check: EXP converted from C-DUP equals the EXP extraction.
    let (handle, full) = w.last.as_ref().ok_or("no iteration completed")?;
    let converted = handle
        .convert(RepKind::Exp, &ConvertOptions::default())
        .map_err(|e| format!("convert to EXP: {e}"))?;
    let exp_equal = converted.canonical_bytes() == full.canonical_bytes();
    let expansion = full.heap_bytes() as f64 / handle.heap_bytes() as f64;

    // The duplication-handling representations, after the timed window:
    // one pass untraced (for its output check), several traced.
    let dedup = dedup_setup(labeling_seed(cfg.seed, 0))?;
    let passes = (0..if cfg.trace { DEDUP_PASSES } else { 1 })
        .map(|_| dedup_pass(&dedup, tracer.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    let worst = passes.iter().map(|p| p.worst_diff).fold(0.0, f64::max);
    let ranks_match = worst <= PAGERANK_TOLERANCE;

    out.correct = exp_equal && ranks_match;
    out.attempted = w.iterations * (3 + READS_PER_ITERATION as u64);
    out.failed = 0;
    say(
        "workload",
        "extract",
        &format!(
            "IMDB-shaped, {rows} rows, {LABELINGS} labelings, seed {}",
            cfg.seed
        ),
    );
    say("check.exp_equals_extract_full", exp_equal, "");
    say(
        "check.pagerank_matches_exp",
        ranks_match,
        &format!("(DEDUP-1 and BITMAP; max |diff| {worst:.3e}, tolerance {PAGERANK_TOLERANCE:e})"),
    );
    say(
        "setup_s",
        setups.median_or_zero(),
        &format!("s  (median of {SETUP_REPS} set-ups)"),
    );
    let n = w.build_ms.len();
    say(
        "extract_s",
        w.build_ms.median_or_zero() / 1e3,
        &format!("s  (median, n={n})"),
    );
    say(
        "extract_full_s",
        w.full_ms.median_or_zero() / 1e3,
        &format!("s  (median, n={n})"),
    );
    say(
        "extract_peak_bytes",
        w.peak_bytes.median_or_zero(),
        &format!("bytes  (median, n={n})"),
    );
    say(
        "graph_bytes",
        w.graph_bytes.median_or_zero(),
        "bytes  (C-DUP heap_bytes, median)",
    );
    say(
        "exp_graph_bytes",
        full.heap_bytes(),
        &format!("bytes  ({expansion:.1}x the C-DUP graph)"),
    );
    say(
        "analytics_s",
        w.analytics_ms.median_or_zero() / 1e3,
        &format!("s  (degree+pagerank+components, median, n={n})"),
    );
    let dedup1_ms = Samples::from_values(passes.iter().map(|p| p.dedup1_ms));
    let bitmap_ms = Samples::from_values(passes.iter().map(|p| p.bitmap_ms));
    let pass = &passes[0];
    say(
        "dedup1_s",
        dedup1_ms.median_or_zero() / 1e3,
        &format!(
            "s  (GreedyVnf on {} rows, median of {} untimed passes)",
            dedup.db.total_rows(),
            passes.len()
        ),
    );
    say(
        "bitmap_s",
        bitmap_ms.median_or_zero() / 1e3,
        "s  (BITMAP-2, same passes)",
    );
    say("stored_edges", pass.stored_edges[0], "(C-DUP)");
    say("stored_edges", pass.stored_edges[1], "(DEDUP-1)");
    say("stored_edges", pass.stored_edges[2], "(BITMAP)");
    say("error_rate", 0.0, "share");

    if let (Some(tw), Some(tracer)) = (traced_w, tracer) {
        out.set("dsl.check_ns", check_ns(&ggs[0])?);
        out.set("dedup.dedup1_ns", dedup1_ms.median_or_zero() * 1e6);
        out.set("dedup.bitmap_ns", bitmap_ms.median_or_zero() * 1e6);
        out.set("dedup.stored_edges_dedup1", pass.stored_edges[1] as f64);
        out.set("dedup.stored_edges_bitmap", pass.stored_edges[2] as f64);
        out.set("reldb.scan_ns", tw.scan_ns.median_or_zero());
        out.set("reldb.join_ns", tw.join_ns.median_or_zero());
        out.set("reldb.distinct_ns", tw.distinct_ns.median_or_zero());
        out.set("core.build_rep_ns", tw.build_rep_ns.median_or_zero());
        out.set("core.extract_full_ns", tw.full_ms.median_or_zero() * 1e6);
        out.set("graph.neighbors_ns", tw.reads_us.median_or_zero() * 1e3);
        out.set("algo.degree_ns", tw.degree_ns.median_or_zero());
        out.set("algo.pagerank_ns", tw.pagerank_ns.median_or_zero());
        out.set("algo.components_ns", tw.components_ns.median_or_zero());
        out.set("dedup.stored_edges_cdup", pass.stored_edges[0] as f64);
        out.set(
            "trace.overhead_pct",
            overhead_pct(&w.iteration_ms, &tw.iteration_ms),
        );
        self_pct(&mut out, &tracer.spans());
        crate::write_trace(cfg, &[("window", &tracer)])?;
    } else {
        out.set("setup_s", setups.median_or_zero());
        out.set("read_p50_us", w.reads_us.percentile(0.5, "read")?);
        out.set("read_p90_us", w.reads_us.percentile(0.9, "read")?);
        out.set("build_p50_ms", w.build_ms.percentile(0.5, "extract")?);
        out.set(
            "analytics_p50_ms",
            w.analytics_ms.percentile(0.5, "analytics")?,
        );
        out.set("ops_per_s", w.iterations as f64 / w.elapsed.as_secs_f64());
        out.set("graph_bytes", w.graph_bytes.median_or_zero());
        out.set("build_peak_bytes", w.peak_bytes.median_or_zero());
    }
    Ok(out)
}

/// Traced-minus-untraced median, as a share of the untraced one.
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    let base = untraced.median_or_zero();
    if base <= 0.0 {
        return 0.0;
    }
    (traced.median_or_zero() - base) / base * 100.0
}

// ------------------------------------------------------------------ dedup

/// A small database extracted to C-DUP, with PageRank on its EXP form as
/// the reference the other representations must match.
struct DedupSetup {
    db: Database,
    cdup: GraphHandle,
    exp_ranks: Vec<f64>,
}

fn dedup_setup(seed: u64) -> Result<DedupSetup, String> {
    let db = imdb_db(seed, DEDUP_ACTORS);
    let cdup = GraphGen::new(&db)
        .extract(IMDB_DSL)
        .map_err(|e| format!("extract: {e}"))?;
    if cdup.kind() != RepKind::CDup {
        return Err(format!("extract returned {}, not C-DUP", cdup.kind()));
    }
    let exp = cdup
        .convert(RepKind::Exp, &ConvertOptions::default())
        .map_err(|e| format!("convert to EXP: {e}"))?;
    let exp_ranks = pagerank(&exp, pagerank_cfg());
    Ok(DedupSetup {
        db,
        cdup,
        exp_ranks,
    })
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// One conversion pass.
struct DedupPass {
    dedup1_ms: f64,
    bitmap_ms: f64,
    /// Largest PageRank difference of DEDUP-1 or BITMAP from EXP.
    worst_diff: f64,
    /// Stored edges of C-DUP, DEDUP-1 and BITMAP.
    stored_edges: [u64; 3],
}

/// Convert the C-DUP handle to DEDUP-1 (default options) and to BITMAP,
/// and run PageRank on each.
fn dedup_pass(s: &DedupSetup, tracer: Option<&Tracer>) -> Result<DedupPass, String> {
    let opts = ConvertOptions::default();
    traced(tracer, "client.dedup", None, |root| {
        let t = Instant::now();
        let d1 = traced(tracer, "dedup.dedup1", root, |_| {
            s.cdup.convert(RepKind::Dedup1, &opts)
        })
        .map_err(|e| format!("convert to DEDUP-1: {e}"))?;
        let dedup1_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let bm = traced(tracer, "dedup.bitmap", root, |_| {
            s.cdup.convert(RepKind::Bitmap, &opts)
        })
        .map_err(|e| format!("convert to BITMAP: {e}"))?;
        let bitmap_ms = t.elapsed().as_secs_f64() * 1e3;
        let p1 = traced(tracer, "algo.pagerank", root, |_| {
            pagerank(&d1, pagerank_cfg())
        });
        let p2 = traced(tracer, "algo.pagerank", root, |_| {
            pagerank(&bm, pagerank_cfg())
        });
        Ok(DedupPass {
            dedup1_ms,
            bitmap_ms,
            worst_diff: max_abs_diff(&p1, &s.exp_ranks).max(max_abs_diff(&p2, &s.exp_ranks)),
            stored_edges: [
                s.cdup.stored_edge_count(),
                d1.stored_edge_count(),
                bm.stored_edge_count(),
            ],
        })
    })
}
