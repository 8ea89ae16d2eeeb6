//! Waveform storage and measurement.
//!
//! The delay measurements driving the paper's Table 1 are 50 %-crossing to
//! 50 %-crossing propagation delays; a transition that never crosses inside
//! the simulated window is reported as "stuck" (the paper's `sa-0`/`sa-1`
//! table entries).

use crate::circuit::NodeId;

/// Edge direction selector for crossing searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Upward crossing.
    Rising,
    /// Downward crossing.
    Falling,
    /// Either direction.
    Any,
}

/// A recorded multi-trace transient result.
///
/// Node and source indices are small and dense, so traces are stored in
/// plain vectors indexed directly — appending a sample is a handful of
/// bounds-checked pushes, with no hashing on the transient hot path.
#[derive(Debug, Clone, Default)]
pub struct Waveform {
    time: Vec<f64>,
    traces: Vec<Option<Vec<f64>>>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub(crate) fn new() -> Self {
        Waveform::default()
    }

    /// Appends a sample: time plus the voltage of every recorded node.
    pub(crate) fn push_sample(
        &mut self,
        t: f64,
        voltages: impl IntoIterator<Item = (NodeId, f64)>,
    ) {
        self.time.push(t);
        for (n, v) in voltages {
            push_indexed(&mut self.traces, n.index(), v);
        }
    }

    /// The time axis.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Voltage trace of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not recorded.
    pub fn trace(&self, n: NodeId) -> &[f64] {
        match self.trace_opt(n) {
            Some(t) => t,
            None => panic!("node {} was not recorded in this waveform", n.index()),
        }
    }

    /// Voltage trace of a node, if recorded.
    pub(crate) fn trace_opt(&self, n: NodeId) -> Option<&[f64]> {
        self.traces.get(n.index()).and_then(|t| t.as_deref())
    }

    /// All times at which `trace` crosses `level` in the given direction,
    /// linearly interpolated, at or after `t_start`.
    #[cfg(test)]
    pub(crate) fn crossings(
        &self,
        n: NodeId,
        level: f64,
        edge: EdgeKind,
        t_start: f64,
    ) -> Vec<f64> {
        let y = self.trace(n);
        (1..self.time.len())
            .filter_map(|i| interval_crossing(&self.time, y, i, level, edge, t_start))
            .collect()
    }

    /// First crossing, or `None` if the trace never crosses — the
    /// "stuck-at" outcome in Table 1 terms.
    pub fn first_crossing(
        &self,
        n: NodeId,
        level: f64,
        edge: EdgeKind,
        t_start: f64,
    ) -> Option<f64> {
        let y = self.trace(n);
        (1..self.time.len()).find_map(|i| interval_crossing(&self.time, y, i, level, edge, t_start))
    }

    /// The crossing on the newest sample interval (between the last two
    /// samples), if it has one — the incremental crossing search for a
    /// caller watching a waveform grow. Called after every appended
    /// sample, it sees every crossing of the whole trace, in time order
    /// and bit for bit.
    pub fn newest_crossing(
        &self,
        n: NodeId,
        level: f64,
        edge: EdgeKind,
        t_start: f64,
    ) -> Option<f64> {
        let i = self.time.len().checked_sub(1).filter(|&i| i > 0)?;
        interval_crossing(&self.time, self.trace(n), i, level, edge, t_start)
    }

    /// 50 %-to-50 % propagation delay from an input edge to the next output
    /// edge.
    ///
    /// Returns `None` when the output never crosses: with an OBD defect
    /// this is the hard-breakdown "stuck" regime.
    pub fn propagation_delay(
        &self,
        input: NodeId,
        input_edge: EdgeKind,
        output: NodeId,
        output_edge: EdgeKind,
        half_level: f64,
        t_start: f64,
    ) -> Option<f64> {
        let t_in = self.first_crossing(input, half_level, input_edge, t_start)?;
        let t_out = self.first_crossing(output, half_level, output_edge, t_in)?;
        Some(t_out - t_in)
    }

    /// Minimum and maximum of a trace over the whole window.
    #[cfg(test)]
    pub(crate) fn extrema(&self, n: NodeId) -> (f64, f64) {
        let y = self.trace(n);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in y {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Value of a trace at an arbitrary time (linear interpolation, clamped
    /// at the ends).
    pub fn sample_at(&self, n: NodeId, t: f64) -> f64 {
        let y = self.trace(n);
        if self.time.is_empty() {
            return 0.0;
        }
        // A NaN time brackets no interval; like `final_value` on an empty
        // waveform, it degrades to NaN instead of panicking.
        if t.is_nan() {
            return f64::NAN;
        }
        if t <= self.time[0] {
            return y[0];
        }
        if let (Some(&t_last), Some(&y_last)) = (self.time.last(), y.last()) {
            if t >= t_last {
                return y_last;
            }
        }
        // Binary search for the bracketing interval.
        let idx = self.time.partition_point(|&tt| tt < t);
        let (t0, t1) = (self.time[idx - 1], self.time[idx]);
        let (y0, y1) = (y[idx - 1], y[idx]);
        if t1 == t0 {
            y1
        } else {
            y0 + (y1 - y0) * (t - t0) / (t1 - t0)
        }
    }

    /// Final (last-sample) value of a trace, or NaN when the waveform is
    /// empty — NaN fails every threshold comparison downstream, so an
    /// empty waveform degrades to "never crossed" rather than panicking.
    pub fn final_value(&self, n: NodeId) -> f64 {
        self.trace(n).last().copied().unwrap_or(f64::NAN)
    }
}

/// The crossing of `level` on the sample interval ending at index `i`
/// (`1 ≤ i < time.len()`), linearly interpolated, when it goes in the
/// `edge` direction and lands at or after `t_start`: the one test behind
/// every crossing search.
fn interval_crossing(
    time: &[f64],
    y: &[f64],
    i: usize,
    level: f64,
    edge: EdgeKind,
    t_start: f64,
) -> Option<f64> {
    if time[i] < t_start {
        return None;
    }
    let (y0, y1) = (y[i - 1], y[i]);
    let rising = y0 < level && y1 >= level;
    let falling = y0 > level && y1 <= level;
    let hit = match edge {
        EdgeKind::Rising => rising,
        EdgeKind::Falling => falling,
        EdgeKind::Any => rising || falling,
    };
    if !hit {
        return None;
    }
    let (t0, t1) = (time[i - 1], time[i]);
    let frac = if (y1 - y0).abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        (level - y0) / (y1 - y0)
    };
    let t = t0 + frac * (t1 - t0);
    (t >= t_start).then_some(t)
}

/// Appends `v` to the trace at `idx`, creating the slot (and any gap
/// before it) on first touch. Steady-state appends are a plain indexed
/// push.
fn push_indexed(store: &mut Vec<Option<Vec<f64>>>, idx: usize, v: f64) {
    if idx >= store.len() {
        store.resize_with(idx + 1, || None);
    }
    store[idx].get_or_insert_with(Vec::new).push(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_wave() -> (Waveform, NodeId) {
        let mut c = crate::Circuit::new();
        let n = c.node("x");
        let mut w = Waveform::new();
        // Triangle: rises 0..1 over 0..10, falls back to 0 at t=20.
        for i in 0..=20 {
            let t = i as f64;
            let v = if t <= 10.0 {
                t / 10.0
            } else {
                (20.0 - t) / 10.0
            };
            w.push_sample(t, [(n, v)]);
        }
        (w, n)
    }

    #[test]
    fn rising_and_falling_crossings() {
        let (w, n) = ramp_wave();
        let rises = w.crossings(n, 0.5, EdgeKind::Rising, 0.0);
        let falls = w.crossings(n, 0.5, EdgeKind::Falling, 0.0);
        assert_eq!(rises.len(), 1);
        assert_eq!(falls.len(), 1);
        assert!((rises[0] - 5.0).abs() < 1e-12);
        assert!((falls[0] - 15.0).abs() < 1e-12);
        assert_eq!(w.crossings(n, 0.5, EdgeKind::Any, 0.0).len(), 2);
    }

    #[test]
    fn t_start_filters_early_crossings() {
        let (w, n) = ramp_wave();
        assert!(w.first_crossing(n, 0.5, EdgeKind::Rising, 6.0).is_none());
        assert!(w.first_crossing(n, 0.5, EdgeKind::Falling, 6.0).is_some());
    }

    #[test]
    fn delay_measurement_between_two_nodes() {
        let mut c = crate::Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut w = Waveform::new();
        for i in 0..=100 {
            let t = i as f64;
            let va = if t >= 10.0 { 1.0 } else { 0.0 };
            let vb = if t >= 30.0 { 0.0 } else { 1.0 };
            w.push_sample(t, [(a, va), (b, vb)]);
        }
        let d = w
            .propagation_delay(a, EdgeKind::Rising, b, EdgeKind::Falling, 0.5, 0.0)
            .unwrap();
        assert!((d - 20.0).abs() < 1.1, "delay = {d}");
    }

    #[test]
    fn stuck_output_yields_none() {
        let mut c = crate::Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut w = Waveform::new();
        for i in 0..=10 {
            let t = i as f64;
            let va = if t >= 2.0 { 1.0 } else { 0.0 };
            w.push_sample(t, [(a, va), (b, 1.0)]);
        }
        assert!(w
            .propagation_delay(a, EdgeKind::Rising, b, EdgeKind::Falling, 0.5, 0.0)
            .is_none());
    }

    #[test]
    fn sample_at_interpolates() {
        let (w, n) = ramp_wave();
        assert!((w.sample_at(n, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(w.sample_at(n, -1.0), 0.0);
        assert_eq!(w.sample_at(n, 100.0), 0.0);
    }

    #[test]
    fn sample_at_nan_time_is_nan() {
        let (w, n) = ramp_wave();
        assert!(w.sample_at(n, f64::NAN).is_nan());
    }

    /// Seeded random traces on a coarse level grid, so samples often sit
    /// exactly on the crossing level: `first_crossing`, `crossings` and a
    /// sample-by-sample `newest_crossing` scan must agree bit for bit.
    #[test]
    fn crossing_searches_agree_on_random_traces() {
        let mut c = crate::Circuit::new();
        let n = c.node("x");
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        for _ in 0..50 {
            let mut w = Waveform::new();
            let mut grown = Vec::new();
            let mut t = 0.0;
            for _ in 0..40 {
                t += 0.25 * next(5) as f64;
                w.push_sample(t, [(n, 0.25 * next(5) as f64)]);
                grown.push(w.clone());
            }
            for edge in [EdgeKind::Rising, EdgeKind::Falling, EdgeKind::Any] {
                for t_start in [-1.0, 0.0, 1.3, 2.5, 7.0, 1e9] {
                    let all = w.crossings(n, 0.5, edge, t_start);
                    assert_eq!(
                        w.first_crossing(n, 0.5, edge, t_start),
                        all.first().copied()
                    );
                    let scanned: Vec<f64> = grown
                        .iter()
                        .filter_map(|g| g.newest_crossing(n, 0.5, edge, t_start))
                        .collect();
                    assert_eq!(scanned, all);
                }
            }
        }
    }

    #[test]
    fn extrema_and_final() {
        let (w, n) = ramp_wave();
        let (lo, hi) = w.extrema(n);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 1.0);
        assert_eq!(w.final_value(n), 0.0);
    }
}
