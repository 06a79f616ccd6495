//! In-memory spans for the traced run.
//!
//! Each query gets one root span, keyed by a query id the benchmark mints,
//! around the public call it makes. Child spans carry the layer slices the
//! program reports for that query. The program reports slice durations,
//! not their start times, so children are laid out back to back from their
//! parent's start. A span's self time is its duration minus its children's
//! durations. It can be negative where the program's slices add up to
//! more than the wall time around them (for example worker CPU time summed
//! over parallel scan threads); that is reported as measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Query id shared by every span of one query.
    pub qid: u64,
    /// Span id, unique in the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer name, e.g. `rawcsv.io`.
    pub name: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Counts recorded at this boundary.
    pub counters: Vec<(&'static str, f64)>,
}

/// Collects spans from any number of threads; written out once at the end.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh id, for a query or a span.
    pub fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record the root span of query `qid`, which started at `start` and
    /// took `dur`. Returns the span's id and start.
    pub fn root(
        &self,
        qid: u64,
        name: &'static str,
        start: Instant,
        dur: Duration,
        counters: Vec<(&'static str, f64)>,
    ) -> (u64, f64) {
        let start_us = start.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let id = self.mint();
        self.lock().push(Span {
            qid,
            id,
            parent: None,
            name,
            start_us,
            dur_us: dur.as_secs_f64() * 1e6,
            counters,
        });
        (id, start_us)
    }

    /// Record `parent`'s child slices back to back from `start_us`.
    /// Returns the id and start of each child, in order.
    pub fn slices(
        &self,
        qid: u64,
        parent: u64,
        start_us: f64,
        slices: &[(&'static str, Duration)],
    ) -> Vec<(u64, f64)> {
        let mut at = start_us;
        let mut out = Vec::with_capacity(slices.len());
        let mut spans = self.lock();
        for (name, dur) in slices {
            let id = self.mint();
            let dur_us = dur.as_secs_f64() * 1e6;
            spans.push(Span {
                qid,
                id,
                parent: Some(parent),
                name,
                start_us: at,
                dur_us,
                counters: Vec::new(),
            });
            out.push((id, at));
            at += dur_us;
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            let counters = Json::obj(s.counters.iter().map(|(k, v)| (*k, Json::Num(*v))));
            let line = Json::obj([
                ("qid", Json::from(s.qid)),
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("dur_us", Json::Num(s.dur_us)),
                ("counters", counters),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Per span name: total duration, total self time (both in ms) and count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub total_ms: f64,
    pub self_ms: f64,
    pub count: u64,
}

/// Duration and self time summed per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.total_ms += s.dur_us / 1e3;
        t.self_ms += (s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)) / 1e3;
        t.count += 1;
    }
    out
}

/// Sum of counter `key` over every span.
pub fn counter_sum(spans: &[Span], key: &str) -> f64 {
    spans
        .iter()
        .flat_map(|s| s.counters.iter())
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer::default();
        let q = t.mint();
        let (root, at) = t.root(
            q,
            "client",
            t.t0,
            Duration::from_millis(10),
            vec![("n", 2.0)],
        );
        let kids = t.slices(
            q,
            root,
            at,
            &[
                ("server", Duration::from_millis(7)),
                ("x", Duration::from_millis(1)),
            ],
        );
        t.slices(q, kids[0].0, kids[0].1, &[("io", Duration::from_millis(4))]);
        let spans = t.spans();
        assert_eq!(spans.iter().filter(|s| s.qid == q).count(), 4);
        let by = totals_by_name(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(by["client"].self_ms, 2.0));
        assert!(close(by["server"].self_ms, 3.0));
        assert!(close(by["io"].self_ms, 4.0));
        assert!(close(by["server"].total_ms, 7.0));
        assert_eq!(counter_sum(&spans, "n"), 2.0);
        // Children are laid out back to back inside the parent.
        assert!(close(kids[1].1 - kids[0].1, 7000.0));
    }
}
