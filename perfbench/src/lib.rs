//! The repository benchmark: one command, three workloads.
//!
//! * `extract` — the paper's pipeline: condensed extraction, the EXP
//!   baseline, analytics (library, no server), then DEDUP-1 and BITMAP
//!   conversions outside the timed window;
//! * `serve_read` — hot-key reads with rare writes over TCP;
//! * `serve_write` — balanced-churn writes and fresh-version analytics
//!   over TCP.
//!
//! See `perfbench/README.md` for why each workload exists, what each
//! metric means on it, and the baseline findings it must keep visible.

pub mod expo;
pub mod library;
pub mod report;
pub mod serving;
pub mod stats;
pub mod stream;
pub mod trace;

use report::{Outcome, PER_LAYER};
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Duration;
use trace::{self_time_by_layer, Span, Tracer};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["extract", "serve_read", "serve_write"];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the run may write (service directories, span dumps).
    pub out_dir: PathBuf,
}

/// Run one workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "extract" => library::run_extract(cfg),
        "serve_read" => serving::run(cfg, serving::Mode::Read),
        "serve_write" => serving::run(cfg, serving::Mode::Write),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Nanoseconds of a duration, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Print one human-readable summary line (never the last line of output:
/// the result line follows).
pub fn say(name: &str, value: impl Display, note: &str) {
    println!("  {name:<34} {value:<16} {note}");
}

/// Fill every `<layer>.self_pct` from the traced window's spans: a
/// layer's self time as a share of the time under root spans.
pub fn self_pct(out: &mut Outcome, spans: &[Span]) {
    let by_layer = self_time_by_layer(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    for def in PER_LAYER {
        let Some(layer) = def.name.strip_suffix(".self_pct") else {
            continue;
        };
        let own = by_layer.get(layer).copied().unwrap_or(0);
        let pct = if total == 0 {
            0.0
        } else {
            own as f64 / total as f64 * 100.0
        };
        out.set(def.name, pct);
    }
}

/// Write the traced run's spans to `<out_dir>/trace-<workload>-<seed>.jsonl`,
/// one JSON object per span, prefixed by the tracer's label.
pub fn write_trace(cfg: &RunCfg, tracers: &[(&str, &Tracer)]) -> Result<(), String> {
    let mut text = String::new();
    for (label, tracer) in tracers {
        for line in trace::to_json_lines(&tracer.spans()).lines() {
            text.push_str(&format!("{{\"tracer\":\"{label}\",{}\n", &line[1..]));
        }
    }
    let path = cfg
        .out_dir
        .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}
