//! Crash-safe fleet checkpointing: per-block accumulator frames in the
//! content-addressed store.
//!
//! A fleet campaign is partitioned into fixed device-id **blocks**
//! (independent of the worker-thread split). Every device seeds its RNG
//! from `seed + id · GOLDEN` alone, so a block's [`FleetAccum`] is a
//! pure function of `(config, profile, block range)` — which makes it
//! checkpointable: when a block finishes, its accumulator is encoded
//! (`encode_accum`) and written to the store under a key derived from
//! the **campaign digest** (`campaign_digest`) and the block range.
//!
//! On restart, [`crate::sim::run_fleet_resumable`] probes the store for
//! every block of the campaign and simulates only the missing ones.
//! Because per-device streams never depend on which shard (or process)
//! ran them, and the aggregate merges blocks in block order, a resumed
//! run's `FLEET_run.json` is **byte-identical** to an uninterrupted one.
//!
//! The campaign digest folds in everything that determines a device's
//! outcome: seed, fleet size, horizon, slack, the stochastic model, the
//! scheduler policy, the full delay table (bit-exact floats) and the
//! graded BIST profile (polarity and per-stage coverage of every site).
//! Thread count is deliberately excluded — resuming on a different
//! number of workers must hit the same frames. A checkpoint that fails
//! to decode (or covers the wrong device count) is ignored and the
//! block recomputed: checkpoints are a cache, never a trust root.

use obd_core::characterize::TransitionOutcome;
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_metrics::Counter;
use obd_store::codec::{CodecError, Dec, Enc};
use obd_store::{Digest, Store};

use crate::coverage::BistProfile;
use crate::schedule::LADDER;
use crate::sim::{FleetAccum, FleetConfig};

/// Checkpoint blocks written to the store.
static CKPT_WRITTEN: Counter = Counter::new("fleet.ckpt_blocks_written");
/// Checkpoint blocks served from the store on resume.
static CKPT_RESUMED: Counter = Counter::new("fleet.ckpt_blocks_resumed");

/// Default devices per checkpoint block: small enough that a kill loses
/// at most a few seconds of work, large enough that frame overhead is
/// noise at a million devices (~16 frames).
pub const DEFAULT_BLOCK_DEVICES: u64 = 65_536;

/// Stable ordinal of a stage (its position in progression order).
fn stage_ordinal(stage: BreakdownStage) -> u8 {
    BreakdownStage::ALL
        .iter()
        .position(|&s| s == stage)
        .unwrap_or(u8::MAX as usize) as u8
}

fn fold_outcome(d: Digest, outcome: TransitionOutcome) -> Digest {
    match outcome {
        TransitionOutcome::Delay(ps) => d.u8(1).f64(ps),
        TransitionOutcome::Stuck => d.u8(2),
    }
}

/// Digest of everything that determines device outcomes in a campaign.
/// Two configs that could produce different bytes in `FLEET_run.json`
/// must digest differently; thread count is excluded by design.
pub(crate) fn campaign_digest(cfg: &FleetConfig, profile: &BistProfile) -> u64 {
    let m = &cfg.model;
    let p = &cfg.policy;
    let mut d = Digest::new("fleet.campaign.v1")
        .u64(cfg.seed)
        .u64(cfg.devices)
        .f64(cfg.horizon_hours)
        .f64(cfg.slack_ps)
        .f64(m.p_defect)
        .f64(m.onset_min_frac)
        .f64(m.onset_max_frac)
        .f64(m.dur_min_hours)
        .f64(m.dur_max_hours)
        .u64(p.opportunities as u64)
        .f64(p.interval_scale)
        .f64(p.min_interval_hours)
        .f64(p.max_interval_hours)
        .f64(p.fallback_interval_hours)
        .bool(p.interval_override.is_some())
        .f64(p.interval_override.unwrap_or(0.0))
        .bool(p.phase_override.is_some())
        .f64(p.phase_override.unwrap_or(0.0));
    d = d.f64(cfg.table.base_fall_ps).f64(cfg.table.base_rise_ps);
    for rows in [&cfg.table.nmos, &cfg.table.pmos] {
        d = d.u64(rows.len() as u64);
        for &(stage, outcome) in rows.iter() {
            d = fold_outcome(d.u8(stage_ordinal(stage)), outcome);
        }
    }
    d = d
        .str(profile.circuit())
        .u64(profile.sites() as u64)
        .u64(profile.tests() as u64);
    for site in 0..profile.sites() {
        d = d.u8(match profile.polarity_of(site) {
            Some(Polarity::Nmos) => 0,
            Some(Polarity::Pmos) => 1,
            None => 2,
        });
    }
    for &stage in &LADDER {
        for site in 0..profile.sites() {
            d = d.bool(profile.covered(stage, site));
        }
    }
    d.finish()
}

/// Store key of the block covering device ids `lo..hi`.
pub(crate) fn block_key(campaign: u64, lo: u64, hi: u64) -> u64 {
    Digest::new("fleet.ckpt.v1")
        .u64(campaign)
        .u64(lo)
        .u64(hi)
        .finish()
}

/// Encodes a block accumulator as a checkpoint payload, in one buffer
/// sized up front. Latencies keep their in-block (device-id) order, so
/// replayed and simulated blocks merge identically.
pub(crate) fn encode_accum(a: &FleetAccum) -> Vec<u8> {
    // Ten counters and the latency count precede the latencies.
    let mut e = Enc::with_capacity(8 * (11 + a.latencies_mh.len()))
        .u64(a.devices)
        .u64(a.sessions)
        .u64(a.healthy)
        .u64(a.afflicted)
        .u64(a.detected)
        .u64(a.escaped)
        .u64(a.censored)
        .u64(a.poisoned)
        .u64(a.degraded_events)
        .u64(a.recovered_events)
        .u64(a.latencies_mh.len() as u64);
    for &mh in &a.latencies_mh {
        e = e.u64(mh);
    }
    e.finish()
}

/// Decodes a checkpoint payload back into a block accumulator.
///
/// # Errors
///
/// [`CodecError`] on truncated, trailing or malformed payloads — the
/// caller drops the checkpoint and recomputes the block.
pub(crate) fn decode_accum(bytes: &[u8]) -> Result<FleetAccum, CodecError> {
    let mut d = Dec::new(bytes);
    let mut a = FleetAccum {
        devices: d.u64()?,
        sessions: d.u64()?,
        healthy: d.u64()?,
        afflicted: d.u64()?,
        detected: d.u64()?,
        escaped: d.u64()?,
        censored: d.u64()?,
        poisoned: d.u64()?,
        degraded_events: d.u64()?,
        recovered_events: d.u64()?,
        latencies_mh: Vec::new(),
    };
    let n = d.u64()?;
    a.latencies_mh.reserve(n.min(1 << 20) as usize);
    for _ in 0..n {
        a.latencies_mh.push(d.u64()?);
    }
    d.finish()?;
    Ok(a)
}

/// Loads the checkpoint for block `lo..hi`, if present and sane. Any
/// store error, decode error, or device-count mismatch is a miss.
pub(crate) fn load_block(store: &Store, campaign: u64, lo: u64, hi: u64) -> Option<FleetAccum> {
    let bytes = store.get(block_key(campaign, lo, hi)).ok()??;
    match decode_accum(&bytes) {
        Ok(a) if a.devices == hi - lo => {
            CKPT_RESUMED.inc();
            Some(a)
        }
        _ => None,
    }
}

/// Writes the checkpoint for block `lo..hi`. Best-effort: a failed or
/// torn write is dropped (the block is simply recomputed on resume) —
/// checkpointing must never fail a healthy campaign.
pub(crate) fn store_block(store: &Store, campaign: u64, lo: u64, hi: u64, a: &FleetAccum) {
    if store
        .put(block_key(campaign, lo, hi), &encode_accum(a))
        .is_ok()
    {
        CKPT_WRITTEN.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_core::characterize::DelayTable;

    fn profile(cfg: &FleetConfig) -> BistProfile {
        BistProfile::slack_ideal(&cfg.table, Polarity::Nmos, cfg.slack_ps)
    }

    #[test]
    fn accum_roundtrips_bit_exact() {
        let a = FleetAccum {
            devices: 100,
            sessions: 4_242,
            healthy: 80,
            afflicted: 20,
            detected: 15,
            escaped: 4,
            censored: 1,
            poisoned: 0,
            degraded_events: 3,
            recovered_events: 7,
            latencies_mh: vec![900, 100, 5_000, 100],
        };
        let bytes = encode_accum(&a);
        let b = decode_accum(&bytes).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Order is preserved, not sorted: merging must be faithful.
        assert_eq!(b.latencies_mh, vec![900, 100, 5_000, 100]);
    }

    #[test]
    fn truncated_checkpoint_is_a_typed_decode_error() {
        let bytes = encode_accum(&FleetAccum {
            latencies_mh: vec![1, 2, 3],
            ..FleetAccum::default()
        });
        for cut in 0..bytes.len() {
            assert!(decode_accum(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is refused too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_accum(&long).is_err());
    }

    /// Seeded mutations of a checkpoint payload (byte flips, splices,
    /// corrupt latency counts) never panic `decode_accum`: each gives a
    /// typed error or an accumulator that encodes back to the same bytes.
    #[test]
    fn decode_accum_never_panics_on_mutated_payloads() {
        use obd_logic::rng::XorShift64Star;

        let valid = encode_accum(&FleetAccum {
            devices: 64,
            sessions: 9_000,
            healthy: 50,
            afflicted: 14,
            detected: 9,
            escaped: 4,
            censored: 1,
            latencies_mh: vec![7, 900, 31, 4_000, 12, 88, 600, 5, 2_048],
            ..FleetAccum::default()
        });
        // Ten counters precede the latency count.
        let count_at = 10 * 8;
        let mut rng = XorShift64Star::seed_from_u64(0xC4EC_7F00);
        let mut decoded = 0;
        for case in 0..3_000 {
            let mut bytes = valid.clone();
            match case % 3 {
                0 => {
                    for _ in 0..=rng.gen_range(4) {
                        let i = rng.gen_range(bytes.len());
                        bytes[i] ^= 1 << rng.gen_range(8);
                    }
                }
                1 => {
                    // A run of the payload over another place, sometimes
                    // growing or shrinking it.
                    let from = rng.gen_range(bytes.len());
                    let len = rng.gen_range(bytes.len() - from) + 1;
                    let run = bytes[from..from + len].to_vec();
                    let at = rng.gen_range(bytes.len());
                    let end = (at + rng.gen_range(len + 1)).min(bytes.len());
                    bytes.splice(at..end, run);
                }
                _ => {
                    let n = match rng.gen_range(3) {
                        0 => rng.next_u64(),
                        1 => u64::MAX - rng.gen_range(4) as u64,
                        _ => 7 + rng.gen_range(5) as u64,
                    };
                    bytes[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
                }
            }
            if let Ok(a) = decode_accum(&bytes) {
                assert_eq!(encode_accum(&a), bytes, "case {case}");
                decoded += 1;
            }
        }
        // Flips outside the count keep the payload well-formed.
        assert!(decoded > 0, "no mutant decoded");
    }

    #[test]
    fn campaign_digest_tracks_every_outcome_determinant() {
        let base = FleetConfig {
            devices: 1_000,
            ..FleetConfig::default()
        };
        let p = profile(&base);
        let d0 = campaign_digest(&base, &p);
        assert_eq!(d0, campaign_digest(&base, &p), "digest must be stable");

        let mut seed = base.clone();
        seed.seed ^= 1;
        assert_ne!(d0, campaign_digest(&seed, &p));
        let mut dev = base.clone();
        dev.devices += 1;
        assert_ne!(d0, campaign_digest(&dev, &p));
        let mut slack = base.clone();
        slack.slack_ps += 0.5;
        assert_ne!(d0, campaign_digest(&slack, &p));
        let mut model = base.clone();
        model.model.p_defect += 1e-9;
        assert_ne!(d0, campaign_digest(&model, &p));
        let mut pol = base.clone();
        pol.policy.interval_override = Some(0.0);
        assert_ne!(d0, campaign_digest(&pol, &p));
        let mut table = base.clone();
        table.table = DelayTable {
            base_fall_ps: base.table.base_fall_ps + 1.0,
            ..base.table.clone()
        };
        assert_ne!(d0, campaign_digest(&table, &p));
        // A different profile (other polarity: different rows) differs.
        let other = BistProfile::slack_ideal(&base.table, Polarity::Pmos, base.slack_ps);
        assert_ne!(d0, campaign_digest(&base, &other));
        // Thread count is NOT a determinant: resume across thread counts.
        let mut threads = base.clone();
        threads.threads = 7;
        assert_eq!(d0, campaign_digest(&threads, &p));
    }

    #[test]
    fn block_keys_separate_ranges_and_campaigns() {
        let a = block_key(1, 0, 100);
        assert_ne!(a, block_key(1, 0, 200));
        assert_ne!(a, block_key(1, 100, 200));
        assert_ne!(a, block_key(2, 0, 100));
    }
}
