//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, its parent span, the job it belongs to, and
//! its start and end relative to the tracer's epoch. Spans stay in memory
//! and are written out once, when the traced run ends. A layer's self
//! time is its span's duration minus the part its child spans cover.

use std::time::{Duration, Instant};

use crate::json::{self, Json};

/// Root span of one timed job.
pub const JOB: &str = "job";
/// Root span of a workload's set-up, warm-up job excluded.
pub const SETUP: &str = "setup";
/// Root span of drawing one job's input from the seed.
pub const INPUT: &str = "bench.input";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    job: u64,
    start: Duration,
    end: Duration,
}

/// Span recorder. A disabled tracer runs the wrapped calls without
/// reading the clock, so untraced jobs can share the traced code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Tags the spans that follow with a job id.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job: self.job,
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Total time of the root spans called `root`.
    pub fn root_total(&self, root: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Time the direct children of `root` spans cover: the part of the
    /// roots' wall attributed to a named layer call.
    pub fn attributed(&self, root: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.is_root(p, root)))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name over every span below a `root` span, in
    /// first-seen order.
    pub fn self_times(&self, root: &str) -> Vec<(&'static str, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() || self.root_of(i) != root {
                continue;
            }
            let own = (s.end - s.start).saturating_sub(child_time[i]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, d)) => *d += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Every span as a JSON array: name, parent index, job, and start and
    /// end in microseconds since the tracer's epoch.
    pub fn to_json(&self) -> String {
        let micros = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let spans = self.spans.iter().map(|s| {
            json::obj([
                ("name", Json::Str(s.name.to_string())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job", Json::Num(s.job as f64)),
                ("start_us", micros(s.start)),
                ("end_us", micros(s.end)),
            ])
        });
        Json::Arr(spans.collect()).to_string()
    }

    fn is_root(&self, i: usize, root: &str) -> bool {
        self.spans[i].parent.is_none() && self.spans[i].name == root
    }

    fn root_of(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.span(JOB, |t| {
            t.span("outer", |t| {
                busy(Duration::from_millis(2));
                t.span("inner", |_| busy(Duration::from_millis(3)));
            });
        });
        t.span(SETUP, |t| t.span("elsewhere", |_| ()));
        let selfs = t.self_times(JOB);
        let names: Vec<&str> = selfs.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["outer", "inner"]);
        let get = |n: &str| selfs.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!(get("inner") >= Duration::from_millis(3));
        assert!(get("outer") >= Duration::from_millis(2));
        // Self times of the children plus the root's own gap add up to
        // the root exactly: nothing is counted twice.
        let gap = t.root_total(JOB) - t.attributed(JOB);
        assert_eq!(get("outer") + get("inner") + gap, t.root_total(JOB));
        assert_eq!(t.count("inner"), 1);
        assert_eq!(t.count(SETUP), 1);
        assert!(Json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span(JOB, |t| t.span("x", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.count(JOB), 0);
        assert_eq!(t.root_total(JOB), Duration::ZERO);
    }
}
