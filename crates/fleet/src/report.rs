//! Aggregate fleet report: exact latency percentiles and the
//! deterministic `FLEET_run.json` artifact.
//!
//! Everything in `to_json()` derives from integer accumulators and the
//! input config, formatted at fixed precision — the bytes depend only on
//! `(seed, config)`, never on thread count or timing, which is what the
//! determinism golden test pins. Host-dependent facts (thread count)
//! appear only in the human-readable `render()`.

use obd_core::faultmodel::Polarity;
use obd_core::progression::ProgressionModel;
use obd_core::window::DetectionWindow;

use crate::coverage::BistProfile;
use crate::schedule::LADDER;
use crate::sim::{FleetAccum, FleetConfig};

/// Summary of the graded BIST profile driving the fleet.
#[derive(Debug, Clone)]
pub(crate) struct BistSummary {
    /// Circuit label.
    pub(crate) circuit: String,
    /// OBD fault site count.
    pub(crate) sites: usize,
    /// Two-pattern test count in the graded set.
    pub(crate) tests: usize,
    /// Covered sites per [`LADDER`] stage.
    pub(crate) covered_by_stage: [usize; 5],
}

/// Nearest-rank detection-latency percentiles and the maximum, in
/// milli-hours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyTail {
    /// Median (nearest rank ⌈0.50·n⌉).
    pub p50: u64,
    /// Nearest rank ⌈0.95·n⌉.
    pub p95: u64,
    /// Nearest rank ⌈0.99·n⌉.
    pub p99: u64,
    /// Largest latency.
    pub max: u64,
}

/// Zero-based index of nearest rank ⌈q·n⌉ among `n` ascending values.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

impl LatencyTail {
    /// Selects the tail of `lat` in place with three `select_nth_unstable`
    /// passes, each over the prefix the previous one left below its rank
    /// (p99 over everything, p95 below it, p50 below that); the max is
    /// taken over the suffix above p99. `lat` ends up partitioned around
    /// the three ranks, no longer in its input order. `None` when empty.
    fn select(lat: &mut [u64]) -> Option<LatencyTail> {
        let n = lat.len();
        if n == 0 {
            return None;
        }
        let (r50, r95, r99) = (
            nearest_rank(0.50, n),
            nearest_rank(0.95, n),
            nearest_rank(0.99, n),
        );
        let (below, &mut p99, above) = lat.select_nth_unstable(r99);
        let max = above.iter().copied().max().unwrap_or(p99);
        // `below` holds exactly the values ranked under r99, so a rank
        // inside it is a rank of the whole vector; coinciding ranks at
        // small n reuse the value already found.
        let p95 = if r95 < r99 {
            *below.select_nth_unstable(r95).1
        } else {
            p99
        };
        let p50 = if r50 < r95 {
            *below[..r95].select_nth_unstable(r50).1
        } else {
            p95
        };
        Some(LatencyTail { p50, p95, p99, max })
    }
}

/// The full fleet run outcome.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Root seed of the run.
    pub(crate) seed: u64,
    /// Configured fleet size.
    pub(crate) devices: u64,
    /// Worker threads actually used (excluded from the JSON artifact).
    pub(crate) threads_used: usize,
    /// Simulated deployment length, hours.
    pub(crate) horizon_hours: f64,
    /// Detection slack, ps.
    pub(crate) slack_ps: f64,
    /// In-window opportunities the scheduler guarantees.
    pub(crate) opportunities: usize,
    /// Interval multiplier the run used.
    pub(crate) interval_scale: f64,
    /// BIST profile summary.
    pub(crate) bist: BistSummary,
    /// Reference detection windows (27 h progression) per polarity from
    /// the interpolated core model, for context.
    pub(crate) reference_windows: [(Polarity, Option<DetectionWindow>); 2],
    /// Integer accumulator. Its latencies are partitioned around the
    /// percentile ranks by the selection that builds the report; their
    /// order carries no meaning.
    pub accum: FleetAccum,
    /// Detection-latency tail of `accum`; `None` when nothing was
    /// detected.
    pub latency_tail_mh: Option<LatencyTail>,
}

impl FleetReport {
    /// Assembles the report from a finished accumulator, selecting its
    /// latency tail.
    pub(crate) fn build(
        cfg: &FleetConfig,
        profile: &BistProfile,
        threads_used: usize,
        mut accum: FleetAccum,
    ) -> FleetReport {
        let latency_tail_mh = LatencyTail::select(&mut accum.latencies_mh);
        let reference_windows = [Polarity::Nmos, Polarity::Pmos].map(|p| {
            let prog = ProgressionModel::reference(p);
            (
                p,
                obd_core::window::detection_window(&cfg.table, &prog, p, cfg.slack_ps),
            )
        });
        FleetReport {
            seed: cfg.seed,
            devices: cfg.devices,
            threads_used,
            horizon_hours: cfg.horizon_hours,
            slack_ps: cfg.slack_ps,
            opportunities: cfg.policy.opportunities,
            interval_scale: cfg.policy.interval_scale,
            bist: BistSummary {
                circuit: profile.circuit().to_string(),
                sites: profile.sites(),
                tests: profile.tests(),
                covered_by_stage: profile.coverage_by_stage(),
            },
            reference_windows,
            accum,
            latency_tail_mh,
        }
    }

    /// Escapes per afflicted device (0 when nothing was afflicted).
    pub fn escape_rate(&self) -> f64 {
        if self.accum.afflicted == 0 {
            0.0
        } else {
            self.accum.escaped as f64 / self.accum.afflicted as f64
        }
    }

    /// Sessions per device across the fleet.
    pub fn sessions_per_device(&self) -> f64 {
        if self.accum.devices == 0 {
            0.0
        } else {
            self.accum.sessions as f64 / self.accum.devices as f64
        }
    }

    /// Mean detection latency in hours.
    pub(crate) fn latency_mean_hours(&self) -> f64 {
        let lat = &self.accum.latencies_mh;
        if lat.is_empty() {
            return 0.0;
        }
        let sum: u128 = lat.iter().map(|&v| u128::from(v)).sum();
        (sum as f64 / lat.len() as f64) / 1_000.0
    }

    fn hours(mh: u64) -> f64 {
        mh as f64 / 1_000.0
    }

    /// The deterministic machine-readable artifact (see module docs).
    pub fn to_json(&self) -> String {
        let a = &self.accum;
        // An empty tail prints as zeros.
        let t = self.latency_tail_mh.unwrap_or_default();
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"devices\": {},\n", self.devices));
        s.push_str(&format!(
            "  \"horizon_hours\": {:.3},\n",
            self.horizon_hours
        ));
        s.push_str(&format!("  \"slack_ps\": {:.3},\n", self.slack_ps));
        s.push_str(&format!(
            "  \"policy\": {{ \"opportunities\": {}, \"interval_scale\": {:.6} }},\n",
            self.opportunities, self.interval_scale
        ));
        s.push_str(&format!(
            "  \"bist\": {{ \"circuit\": \"{}\", \"sites\": {}, \"tests\": {}, \"covered_by_stage\": {{ ",
            self.bist.circuit, self.bist.sites, self.bist.tests
        ));
        for (i, &stage) in LADDER.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{stage:?}\": {}", self.bist.covered_by_stage[i]));
        }
        s.push_str(" } },\n");
        s.push_str("  \"reference_windows_hours\": { ");
        for (i, (p, w)) in self.reference_windows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match w {
                Some(w) => s.push_str(&format!(
                    "\"{p}\": {{ \"opens\": {:.4}, \"closes\": {:.4} }}",
                    w.opens_hours, w.closes_hours
                )),
                None => s.push_str(&format!("\"{p}\": null")),
            }
        }
        s.push_str(" },\n");
        s.push_str(&format!("  \"devices_simulated\": {},\n", a.devices));
        s.push_str(&format!("  \"bist_sessions\": {},\n", a.sessions));
        s.push_str(&format!(
            "  \"tests_per_device\": {:.4},\n",
            self.sessions_per_device()
        ));
        s.push_str(&format!("  \"healthy\": {},\n", a.healthy));
        s.push_str(&format!("  \"afflicted\": {},\n", a.afflicted));
        s.push_str(&format!("  \"detected\": {},\n", a.detected));
        s.push_str(&format!("  \"escapes\": {},\n", a.escaped));
        s.push_str(&format!("  \"censored\": {},\n", a.censored));
        s.push_str(&format!("  \"poisoned\": {},\n", a.poisoned));
        s.push_str(&format!("  \"degraded_events\": {},\n", a.degraded_events));
        s.push_str(&format!(
            "  \"recovered_events\": {},\n",
            a.recovered_events
        ));
        s.push_str(&format!("  \"escape_rate\": {:.6},\n", self.escape_rate()));
        s.push_str(&format!(
            "  \"detection_latency_hours\": {{ \"count\": {}, \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"max\": {:.3} }}\n",
            a.detected,
            Self::hours(t.p50),
            Self::hours(t.p95),
            Self::hours(t.p99),
            self.latency_mean_hours(),
            Self::hours(t.max),
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary (may include host-dependent facts).
    pub fn render(&self) -> String {
        let a = &self.accum;
        let t = self.latency_tail_mh.unwrap_or_default();
        let mut s = String::new();
        s.push_str(&format!(
            "fleet: {} devices over {:.0} h on {} thread(s), seed {:#x}\n",
            a.devices, self.horizon_hours, self.threads_used, self.seed
        ));
        s.push_str(&format!(
            "bist:  {} ({} sites, {} tests), slack {:.0} ps, {} in-window opportunities\n",
            self.bist.circuit, self.bist.sites, self.bist.tests, self.slack_ps, self.opportunities
        ));
        s.push_str(&format!(
            "load:  {} sessions ({:.2} per device)\n",
            a.sessions,
            self.sessions_per_device()
        ));
        s.push_str(&format!(
            "fate:  {} healthy | {} afflicted -> {} detected, {} escaped, {} censored | {} poisoned\n",
            a.healthy, a.afflicted, a.detected, a.escaped, a.censored, a.poisoned
        ));
        s.push_str(&format!(
            "rate:  escape_rate {:.4}, detection latency p50 {:.2} h / p95 {:.2} h / p99 {:.2} h\n",
            self.escape_rate(),
            Self::hours(t.p50),
            Self::hours(t.p95),
            Self::hours(t.p99),
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_core::characterize::DelayTable;

    fn report_with(accum: FleetAccum) -> FleetReport {
        let cfg = FleetConfig {
            devices: 100,
            ..FleetConfig::default()
        };
        let profile = BistProfile::slack_ideal(&cfg.table, Polarity::Nmos, cfg.slack_ps);
        FleetReport::build(&cfg, &profile, 3, accum)
    }

    fn sample_report() -> FleetReport {
        report_with(FleetAccum {
            devices: 100,
            sessions: 1_234,
            healthy: 80,
            afflicted: 20,
            detected: 16,
            escaped: 3,
            censored: 1,
            poisoned: 0,
            degraded_events: 2,
            recovered_events: 1,
            // 500, 1000, …, 8000 mh, out of order.
            latencies_mh: (1..=16).map(|i| (i * 7 % 17) * 500).collect(),
        })
    }

    fn latencies(lat: Vec<u64>) -> FleetReport {
        report_with(FleetAccum {
            detected: lat.len() as u64,
            latencies_mh: lat,
            ..FleetAccum::default()
        })
    }

    #[test]
    fn percentiles_are_nearest_rank_exact() {
        let r = sample_report();
        assert_eq!(
            r.latency_tail_mh,
            Some(LatencyTail {
                p50: 4_000,
                p95: 8_000,
                p99: 8_000,
                max: 8_000,
            })
        );
        assert_eq!(latencies(Vec::new()).latency_tail_mh, None);
    }

    /// The three selections and the suffix max agree with nearest-rank
    /// indexing into a sorted copy, for every length up to 300 (which
    /// covers coinciding ranks at small n) and for heavy-duplicate and
    /// all-equal vectors.
    #[test]
    fn selected_tail_matches_sorted_nearest_rank() {
        use obd_logic::rng::XorShift64Star;

        let mut rng = XorShift64Star::seed_from_u64(0x7A11_5E1E);
        let mut cases: Vec<Vec<u64>> = Vec::new();
        for n in 1..=300 {
            cases.push((0..n).map(|_| rng.next_u64() % 1_000_000).collect());
            cases.push((0..n).map(|_| rng.gen_range(4) as u64).collect());
        }
        cases.push(vec![5_000; 1_000]);
        cases.push(vec![0; 7]);
        cases.push(vec![u64::MAX, 0, u64::MAX, 1]);

        let (mut r95_is_r99, mut r50_is_r95) = (0, 0);
        for lat in cases {
            let n = lat.len();
            let mut sorted = lat.clone();
            sorted.sort_unstable();
            let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            r95_is_r99 += usize::from(rank(0.95) == rank(0.99));
            r50_is_r95 += usize::from(rank(0.50) == rank(0.95));
            let expect = LatencyTail {
                p50: sorted[rank(0.50)],
                p95: sorted[rank(0.95)],
                p99: sorted[rank(0.99)],
                max: sorted[n - 1],
            };
            let r = latencies(lat);
            assert_eq!(r.latency_tail_mh, Some(expect), "n = {n}");
            // The selection only permutes the vector.
            let mut kept = r.accum.latencies_mh.clone();
            kept.sort_unstable();
            assert_eq!(kept, sorted, "n = {n}");
        }
        assert!(r95_is_r99 > 0 && r50_is_r95 > 0);
    }

    #[test]
    fn escape_rate_counts_afflicted_only() {
        let r = sample_report();
        assert!((r.escape_rate() - 3.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn json_shape_is_stable_and_thread_free() {
        let r = sample_report();
        let j = r.to_json();
        for key in [
            "\"seed\"",
            "\"escape_rate\"",
            "\"tests_per_device\"",
            "\"detection_latency_hours\"",
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"reference_windows_hours\"",
            "\"covered_by_stage\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(
            !j.contains("thread"),
            "JSON artifact must not depend on host parallelism: {j}"
        );
        // Different thread counts, identical bytes.
        let mut r2 = sample_report();
        r2.threads_used = 1;
        assert_eq!(j, r2.to_json());
        assert!(r.render().contains("3 thread(s)"));
    }

    #[test]
    fn reference_windows_match_core_model() {
        let r = sample_report();
        let table = DelayTable::paper();
        let (p, w) = &r.reference_windows[0];
        assert_eq!(*p, Polarity::Nmos);
        let expect = obd_core::window::detection_window(
            &table,
            &ProgressionModel::reference(Polarity::Nmos),
            Polarity::Nmos,
            25.0,
        )
        .unwrap();
        let w = w.as_ref().unwrap();
        assert!((w.opens_hours - expect.opens_hours).abs() < 1e-12);
        assert!((w.closes_hours - expect.closes_hours).abs() < 1e-12);
    }
}
