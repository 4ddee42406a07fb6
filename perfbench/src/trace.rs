//! The traced run's span recorder.
//!
//! Spans are taken from the benchmark's own code around each call into a
//! layer's public functions: name (`<layer>.<operation>`), start, end and
//! parent. They stay in memory and are written out once, at the end of the
//! run. Phase spans the program already records (`collect_phases`) arrive
//! as durations only; they are attached to the enclosing call as children
//! laid end to end from its start, which is exact for the sequential
//! phases a single thread records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// In-memory span store shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent,
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a span; `f` receives the span's id so the calls it
    /// makes can name it as their parent.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let start = Instant::now();
        let id = self.record(name, parent, start, start);
        let out = f(id);
        let end = self.ns_since_origin(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id].end_ns = end;
        out
    }

    /// Attach a duration-only child to `parent`, starting `offset_ns`
    /// after the parent's start.
    pub fn child(&self, parent: SpanId, offset_ns: u64, name: &str, ns: u64) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let start_ns = spans[parent].start_ns + offset_ns;
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
        });
        spans.len() - 1
    }

    /// Attach phase durations captured by `collect_phases` inside span
    /// `parent`, end to end from its start, each renamed through `rename`
    /// (phases it maps to `None` are dropped).
    pub fn phases(
        &self,
        parent: SpanId,
        phases: &[(&'static str, u64)],
        rename: impl Fn(&str) -> Option<String>,
    ) {
        let mut offset = 0;
        for (label, ns) in phases {
            if let Some(name) = rename(label) {
                self.child(parent, offset, &name, *ns);
                offset += ns;
            }
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Self time per layer: each span's duration minus the time its children
/// cover (children are clipped to the parent and their overlaps merged),
/// summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[id]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer().to_string()).or_default() += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// The spans as JSON lines: `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}
