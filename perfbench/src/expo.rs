//! Reading the service's own counters: the `METRICS` exposition, scraped
//! at the start and the end of a serving run and diffed.
//!
//! The wire form is the escaped one-line exposition; [`parse_response`]
//! undoes the escaping with the program's own `unescape_exposition` and
//! keeps every sample line as `name{labels} → value`.

use graphgen_common::metrics::unescape_exposition;
use std::collections::BTreeMap;

/// Every sample of one exposition, keyed by the series as printed
/// (`graphgen_apply_phase_ns_sum{phase="patch"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

/// Parse canonical (multi-line) exposition text.
pub fn parse(text: &str) -> Result<Scrape, String> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("exposition line without a value: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("exposition value is not a number: {line:?}"))?;
        if samples.insert(series.to_string(), value).is_some() {
            return Err(format!("series {series:?} appears twice"));
        }
    }
    Ok(Scrape { samples })
}

/// Parse a `METRICS` response line (`OK <escaped exposition>`).
pub fn parse_response(line: &str) -> Result<Scrape, String> {
    let body = line
        .strip_prefix("OK ")
        .ok_or_else(|| format!("METRICS answered {:?}", truncate(line)))?;
    parse(&unescape_exposition(body))
}

fn truncate(s: &str) -> String {
    s.chars().take(120).collect()
}

impl Scrape {
    /// One series' value.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.samples.get(series).copied()
    }

    /// One series' value, an error when absent.
    pub fn value(&self, series: &str) -> Result<f64, String> {
        self.get(series)
            .ok_or_else(|| format!("METRICS has no series {series:?}"))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the scrape holds no series.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `self − earlier` for every series present in `self` (a series the
    /// earlier scrape lacks counts from zero). Meaningful for counters and
    /// for histogram `_sum`/`_count` lines; gauges and quantile lines
    /// should be read from a single scrape instead.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            samples: self
                .samples
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k).unwrap_or(0.0)))
                .collect(),
        }
    }

    /// Mean of a histogram family over the scrape (`_sum / _count`), or
    /// zero when it recorded nothing. `labels` is the `{…}` suffix, empty
    /// for an unlabelled family.
    pub fn hist_mean(&self, family: &str, labels: &str) -> f64 {
        let count = self.get(&format!("{family}_count{labels}")).unwrap_or(0.0);
        if count <= 0.0 {
            return 0.0;
        }
        self.get(&format!("{family}_sum{labels}")).unwrap_or(0.0) / count
    }
}
