use crate::circuit::NodeId;
use crate::devices::EvalCtx;
use crate::stamp::Stamp;

/// A pulse waveform specification (SPICE `PULSE`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseSpec {
    /// Initial value.
    pub(crate) v1: f64,
    /// Pulsed value.
    pub(crate) v2: f64,
    /// Delay before the first edge (seconds).
    pub(crate) delay: f64,
    /// Rise time (seconds).
    pub(crate) rise: f64,
    /// Fall time (seconds).
    pub(crate) fall: f64,
    /// Pulse width at `v2` (seconds).
    pub(crate) width: f64,
    /// Period; 0 or less means a single pulse.
    pub(crate) period: f64,
}

/// Time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// Periodic (or single) trapezoidal pulse.
    Pulse(PulseSpec),
    /// Piecewise-linear waveform given as `(time, value)` points sorted by
    /// time; held constant outside the specified range.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWave {
    /// Constant source.
    pub fn dc(v: f64) -> Self {
        SourceWave::Dc(v)
    }

    /// Piecewise-linear source from `(time, value)` points.
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        SourceWave::Pwl(points)
    }

    /// A single rising step from `v1` to `v2` starting at `t0` with the
    /// given transition time — the building block for the paper's
    /// two-pattern input sequences.
    pub fn step(v1: f64, v2: f64, t0: f64, ttran: f64) -> Self {
        SourceWave::Pwl(vec![(0.0, v1), (t0, v1), (t0 + ttran, v2)])
    }

    /// Value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse(p) => pulse_value(p, t),
            SourceWave::Pwl(pts) => pwl_value(pts, t),
        }
    }

    /// The times in `(0, stop)` where the waveform's slope may jump: every
    /// PWL point and every pulse corner (start and end of each rise and
    /// fall), ascending. A transient lands a step exactly on each one.
    pub(crate) fn breakpoints(&self, stop: f64) -> Vec<f64> {
        let inside = |t: f64| t > 0.0 && t < stop;
        let mut out: Vec<f64> = match self {
            SourceWave::Dc(_) => Vec::new(),
            SourceWave::Pwl(pts) => pts.iter().map(|&(t, _)| t).filter(|&t| inside(t)).collect(),
            SourceWave::Pulse(p) => {
                let corners = [0.0, p.rise, p.rise + p.width, p.rise + p.width + p.fall];
                let mut out = Vec::new();
                let mut start = p.delay;
                while start < stop {
                    out.extend(corners.iter().map(|c| start + c).filter(|&t| inside(t)));
                    if p.period <= 0.0 {
                        break;
                    }
                    start += p.period;
                }
                out
            }
        };
        out.sort_by(f64::total_cmp);
        out.dedup();
        out
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            SourceWave::Dc(v) => {
                if !v.is_finite() {
                    return Err("dc value must be finite".into());
                }
            }
            SourceWave::Pulse(p) => {
                if p.rise <= 0.0 || p.fall <= 0.0 {
                    return Err("pulse rise/fall must be positive".into());
                }
            }
            SourceWave::Pwl(pts) => {
                if pts.is_empty() {
                    return Err("pwl needs at least one point".into());
                }
                if pts.windows(2).any(|w| w[1].0 < w[0].0) {
                    return Err("pwl times must be nondecreasing".into());
                }
                if pts.iter().any(|(t, v)| !t.is_finite() || !v.is_finite()) {
                    return Err("pwl points must be finite".into());
                }
            }
        }
        Ok(())
    }
}

fn pulse_value(p: &PulseSpec, t: f64) -> f64 {
    if t < p.delay {
        return p.v1;
    }
    let mut tl = t - p.delay;
    if p.period > 0.0 {
        tl %= p.period;
    }
    if tl < p.rise {
        p.v1 + (p.v2 - p.v1) * tl / p.rise
    } else if tl < p.rise + p.width {
        p.v2
    } else if tl < p.rise + p.width + p.fall {
        p.v2 + (p.v1 - p.v2) * (tl - p.rise - p.width) / p.fall
    } else {
        p.v1
    }
}

fn pwl_value(pts: &[(f64, f64)], t: f64) -> f64 {
    if pts.is_empty() {
        return 0.0;
    }
    if t <= pts[0].0 {
        return pts[0].1;
    }
    if t >= pts[pts.len() - 1].0 {
        return pts[pts.len() - 1].1;
    }
    for w in pts.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if t >= t0 && t <= t1 {
            if t1 == t0 {
                return v1;
            }
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
    }
    pts[pts.len() - 1].1
}

/// An independent voltage source `v(plus) − v(minus) = wave(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vsource {
    /// Instance name.
    pub(crate) name: String,
    /// Positive terminal.
    pub(crate) plus: NodeId,
    /// Negative terminal.
    pub(crate) minus: NodeId,
    /// Waveform.
    pub(crate) wave: SourceWave,
}

impl Vsource {
    /// Creates a voltage source.
    pub fn new(name: &str, plus: NodeId, minus: NodeId, wave: SourceWave) -> Self {
        Vsource {
            name: name.to_string(),
            plus,
            minus,
            wave,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        self.wave.validate()
    }

    pub(crate) fn stamp(&self, st: &mut Stamp, ctx: &EvalCtx, branch: usize) {
        let e = self.wave.value(ctx.time) * ctx.source_scale;
        st.add_vsource(branch, self.plus, self.minus, e);
    }
}

/// An independent current source pushing `wave(t)` amps from `from` to
/// `to` through itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Isource {
    /// Instance name.
    pub(crate) name: String,
    /// Terminal the current leaves.
    pub(crate) from: NodeId,
    /// Terminal the current enters.
    pub(crate) to: NodeId,
    /// Waveform.
    pub(crate) wave: SourceWave,
}

impl Isource {
    /// Creates a current source.
    pub fn new(name: &str, from: NodeId, to: NodeId, wave: SourceWave) -> Self {
        Isource {
            name: name.to_string(),
            from,
            to,
            wave,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        self.wave.validate()
    }

    pub(crate) fn stamp(&self, st: &mut Stamp, ctx: &EvalCtx) {
        let i = self.wave.value(ctx.time) * ctx.source_scale;
        st.add_current(self.from, self.to, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = SourceWave::dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1.0), 2.5);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWave::pwl(vec![(1.0, 0.0), (2.0, 4.0)]);
        assert_eq!(w.value(0.0), 0.0); // before first point
        assert_eq!(w.value(1.5), 2.0); // midpoint
        assert_eq!(w.value(3.0), 4.0); // after last point
    }

    #[test]
    fn step_builder_produces_clean_edge() {
        let w = SourceWave::step(3.3, 0.0, 1e-9, 100e-12);
        assert_eq!(w.value(0.5e-9), 3.3);
        assert!((w.value(1.05e-9) - 1.65).abs() < 1e-12);
        assert_eq!(w.value(2e-9), 0.0);
    }

    #[test]
    fn pulse_phases() {
        let p = PulseSpec {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        let w = SourceWave::Pulse(p);
        assert_eq!(w.value(0.5), 0.0); // delay
        assert!((w.value(1.5) - 0.5).abs() < 1e-12); // rising
        assert_eq!(w.value(2.5), 1.0); // high
        assert!((w.value(4.5) - 0.5).abs() < 1e-12); // falling
        assert_eq!(w.value(6.0), 0.0); // low again
        assert!((w.value(11.5) - 0.5).abs() < 1e-12); // periodic repeat
    }

    #[test]
    fn dc_has_no_breakpoints() {
        assert!(SourceWave::dc(1.0).breakpoints(1.0).is_empty());
    }

    #[test]
    fn pwl_breakpoints_are_its_interior_points() {
        // The t = 0 point and the points at or past `stop` are dropped.
        let w = SourceWave::pwl(vec![
            (0.0, 0.0),
            (1.0, 1.0),
            (1.0, 2.0),
            (3.0, 0.0),
            (5.0, 1.0),
        ]);
        assert_eq!(w.breakpoints(5.0), vec![1.0, 3.0]);
        assert_eq!(w.breakpoints(6.0), vec![1.0, 3.0, 5.0]);
        let step = SourceWave::step(0.0, 3.3, 1e-9, 50e-12);
        assert_eq!(step.breakpoints(4e-9), vec![1e-9, 1e-9 + 50e-12]);
    }

    #[test]
    fn pulse_breakpoints_are_its_corners() {
        let single = PulseSpec {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 0.0,
        };
        assert_eq!(
            SourceWave::Pulse(single).breakpoints(100.0),
            vec![1.0, 2.0, 4.0, 5.0]
        );
        // Cut at `stop`: only the corners strictly inside remain.
        assert_eq!(SourceWave::Pulse(single).breakpoints(4.0), vec![1.0, 2.0]);
        let periodic = SourceWave::Pulse(PulseSpec {
            period: 10.0,
            ..single
        });
        assert_eq!(
            periodic.breakpoints(22.0),
            vec![1.0, 2.0, 4.0, 5.0, 11.0, 12.0, 14.0, 15.0, 21.0]
        );
        // A zero delay puts the first corner at t = 0, which is excluded.
        let at_zero = SourceWave::Pulse(PulseSpec {
            delay: 0.0,
            ..single
        });
        assert_eq!(at_zero.breakpoints(100.0), vec![1.0, 3.0, 4.0]);
    }

    #[test]
    fn pwl_validation() {
        assert!(SourceWave::Pwl(vec![]).validate().is_err());
        assert!(SourceWave::pwl(vec![(1.0, 0.0), (0.5, 1.0)])
            .validate()
            .is_err());
        assert!(SourceWave::pwl(vec![(0.0, 0.0), (1.0, f64::NAN)])
            .validate()
            .is_err());
        assert!(SourceWave::pwl(vec![(0.0, 0.0), (1.0, 1.0)])
            .validate()
            .is_ok());
    }
}
