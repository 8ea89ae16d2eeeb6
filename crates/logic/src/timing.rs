//! Event-driven timing simulation with an inertial delay model.
//!
//! Each gate has separate rise and fall delays, with per-gate overrides so
//! callers can inject the extra transition delay an OBD defect causes at a
//! specific stage (the gate-level counterpart of the paper's Fig. 9
//! experiment). Delays are in picoseconds.

use std::collections::BTreeMap;

use crate::netlist::{GateId, GateKind, NetId, Netlist};
use crate::value::Lv;
use crate::LogicError;

/// Per-kind and per-gate rise/fall delays, in picoseconds.
#[derive(Debug, Clone)]
pub struct DelayModel {
    default_rise: f64,
    default_fall: f64,
    kind_overrides: Vec<(GateKind, f64, f64)>,
    gate_overrides: BTreeMap<usize, (f64, f64)>,
}

impl DelayModel {
    /// A uniform model: every gate has the same rise and fall delay.
    pub fn uniform(rise_ps: f64, fall_ps: f64) -> Self {
        DelayModel {
            default_rise: rise_ps,
            default_fall: fall_ps,
            kind_overrides: Vec::new(),
            gate_overrides: BTreeMap::new(),
        }
    }

    /// Sets a per-kind delay (e.g. NAND slower than INV).
    pub fn set_kind(&mut self, kind: GateKind, rise_ps: f64, fall_ps: f64) -> &mut Self {
        self.kind_overrides.retain(|(k, _, _)| *k != kind);
        self.kind_overrides.push((kind, rise_ps, fall_ps));
        self
    }

    /// Overrides one specific gate — the fault-injection hook.
    pub(crate) fn set_gate(&mut self, gate: GateId, rise_ps: f64, fall_ps: f64) -> &mut Self {
        self.gate_overrides.insert(gate.index(), (rise_ps, fall_ps));
        self
    }

    /// Adds extra delay to one specific gate on top of its current values.
    pub fn add_gate_delay(
        &mut self,
        nl: &Netlist,
        gate: GateId,
        extra_rise_ps: f64,
        extra_fall_ps: f64,
    ) -> &mut Self {
        let (r, f) = self.delays(nl, gate);
        self.set_gate(gate, r + extra_rise_ps, f + extra_fall_ps)
    }

    /// `(rise, fall)` delay of a gate.
    pub fn delays(&self, nl: &Netlist, gate: GateId) -> (f64, f64) {
        if let Some(&(r, f)) = self.gate_overrides.get(&gate.index()) {
            return (r, f);
        }
        let kind = nl.gate(gate).kind;
        for &(k, r, f) in &self.kind_overrides {
            if k == kind {
                return (r, f);
            }
        }
        (self.default_rise, self.default_fall)
    }
}

/// A scheduled input transition at a primary input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEvent {
    /// Primary input net.
    pub net: NetId,
    /// Event time in picoseconds.
    pub time_ps: f64,
    /// New value.
    pub value: Lv,
}

/// A digital waveform: the initial value plus `(time, value)` change
/// points in increasing time order.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalWave {
    /// Value before the first transition.
    pub(crate) initial: Lv,
    /// Change points.
    pub(crate) transitions: Vec<(f64, Lv)>,
}

impl DigitalWave {
    /// Value at time `t` (picoseconds).
    pub fn value_at(&self, t: f64) -> Lv {
        let mut v = self.initial;
        for &(tt, nv) in &self.transitions {
            if tt <= t {
                v = nv;
            } else {
                break;
            }
        }
        v
    }

    /// Time of the last transition, or `None` if the wave is constant.
    pub fn last_transition(&self) -> Option<f64> {
        self.transitions.last().map(|&(t, _)| t)
    }

    /// Final settled value.
    pub fn final_value(&self) -> Lv {
        self.transitions
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(self.initial)
    }
}

/// Result of a timing simulation: a digital waveform per net.
#[derive(Debug, Clone)]
pub struct TimingResult {
    waves: Vec<DigitalWave>,
}

impl TimingResult {
    /// Waveform of a net.
    pub fn wave(&self, n: NetId) -> &DigitalWave {
        &self.waves[n.index()]
    }
}

/// Event-driven timing simulation.
///
/// `initial` is the starting vector applied long before t = 0 (the circuit
/// is settled in that state); `events` are subsequent PI transitions.
///
/// The delay model is inertial: a pending output event that is superseded
/// by a newer evaluation is cancelled, so pulses shorter than the gate
/// delay are filtered.
///
/// # Errors
///
/// Propagates levelization and input-count errors.
pub fn timing_simulate(
    nl: &Netlist,
    delays: &DelayModel,
    initial: &[Lv],
    events: &[InputEvent],
) -> Result<TimingResult, LogicError> {
    let order = nl.levelize()?;
    let init = crate::sim::simulate_with_order(nl, &order, initial)?;

    let fanouts = nl.fanouts();
    let mut value: Vec<Lv> = init.values().to_vec();
    let mut waves: Vec<DigitalWave> = value
        .iter()
        .map(|&v| DigitalWave {
            initial: v,
            transitions: Vec::new(),
        })
        .collect();

    // Event queue keyed by (time in integer femtoseconds, sequence) for a
    // deterministic order.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Key(u64, u64);
    let to_key = |t: f64| -> u64 { (t * 1000.0).round() as u64 };
    let mut seq = 0u64;
    let mut queue: BTreeMap<Key, (NetId, Lv)> = BTreeMap::new();
    // Latest pending event per net, so newer evaluations can cancel older
    // ones (inertial behavior).
    let mut pending: Vec<Option<(u64, Lv)>> = vec![None; nl.num_nets()];

    for ev in events {
        queue.insert(Key(to_key(ev.time_ps), seq), (ev.net, ev.value));
        seq += 1;
    }

    while let Some((&Key(tk, s), &(net, new_v))) = queue.iter().next() {
        queue.remove(&Key(tk, s));
        let t = tk as f64 / 1000.0;
        // Skip stale events that were superseded.
        if let Some((ptk, pv)) = pending[net.index()] {
            if ptk == tk && pv == new_v {
                pending[net.index()] = None;
            } else if nl.driver(net).is_some() {
                // A different pending event exists: this one is stale.
                continue;
            }
        }
        if value[net.index()] == new_v {
            continue;
        }
        value[net.index()] = new_v;
        waves[net.index()].transitions.push((t, new_v));

        // Re-evaluate fanout gates.
        for &(g, _) in &fanouts[net.index()] {
            let gate = nl.gate(g);
            let ins: Vec<Lv> = gate.inputs.iter().map(|n| value[n.index()]).collect();
            let out_v = gate.kind.eval(&ins);
            let out_net = gate.output;
            let scheduled = pending[out_net.index()];
            let current = value[out_net.index()];
            let effective_future = scheduled.map(|(_, v)| v).unwrap_or(current);
            if out_v == effective_future {
                continue;
            }
            if out_v == current {
                // Cancels a pending change: inertial filtering.
                if let Some((ptk, pv)) = scheduled {
                    queue.retain(|k, v| !(k.0 == ptk && v.0 == out_net && v.1 == pv));
                    pending[out_net.index()] = None;
                }
                continue;
            }
            let (dr, df) = delays.delays(nl, g);
            let d = match out_v {
                Lv::One => dr,
                Lv::Zero => df,
                Lv::X => dr.max(df),
            };
            let when = to_key(t + d);
            // Replace any previously pending event.
            if let Some((ptk, pv)) = scheduled {
                queue.retain(|k, v| !(k.0 == ptk && v.0 == out_net && v.1 == pv));
            }
            pending[out_net.index()] = Some((when, out_v));
            queue.insert(Key(when, seq), (out_net, out_v));
            seq += 1;
        }
    }

    Ok(TimingResult { waves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;

    fn inv_chain(n: usize) -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..n {
            cur = nl
                .add_gate(GateKind::Inv, &format!("i{i}"), &[cur])
                .unwrap();
        }
        nl.mark_output(cur);
        (nl, a, cur)
    }

    #[test]
    fn chain_delay_accumulates() {
        let (nl, a, out) = inv_chain(4);
        let delays = DelayModel::uniform(10.0, 10.0);
        let r = timing_simulate(
            &nl,
            &delays,
            &[Lv::Zero],
            &[InputEvent {
                net: a,
                time_ps: 100.0,
                value: Lv::One,
            }],
        )
        .unwrap();
        // Even chain: output follows input with 4 gate delays.
        let w = r.wave(out);
        assert_eq!(w.initial, Lv::Zero);
        assert_eq!(w.transitions.len(), 1);
        assert!((w.transitions[0].0 - 140.0).abs() < 0.01);
        assert_eq!(w.final_value(), Lv::One);
    }

    #[test]
    fn asymmetric_rise_fall() {
        let (nl, a, out) = inv_chain(1);
        let delays = DelayModel::uniform(30.0, 10.0);
        // Input rises -> inverter output falls -> uses fall delay.
        let r = timing_simulate(
            &nl,
            &delays,
            &[Lv::Zero],
            &[InputEvent {
                net: a,
                time_ps: 0.0,
                value: Lv::One,
            }],
        )
        .unwrap();
        assert!((r.wave(out).transitions[0].0 - 10.0).abs() < 0.01);
    }

    #[test]
    fn per_gate_override_slows_one_stage() {
        let (nl, a, out) = inv_chain(2);
        let mut delays = DelayModel::uniform(10.0, 10.0);
        let g1 = nl.driver(nl.find_net("i1").unwrap()).unwrap();
        delays.add_gate_delay(&nl, g1, 200.0, 0.0);
        let r = timing_simulate(
            &nl,
            &delays,
            &[Lv::Zero],
            &[InputEvent {
                net: a,
                time_ps: 0.0,
                value: Lv::One,
            }],
        )
        .unwrap();
        // Stage 0 falls at 10; stage 1 rises with the slowed 210 delay.
        assert!((r.wave(out).transitions[0].0 - 220.0).abs() < 0.01);
    }

    #[test]
    fn inertial_filtering_swallows_short_pulse() {
        let (nl, a, out) = inv_chain(1);
        let delays = DelayModel::uniform(50.0, 50.0);
        // 10 ps pulse, shorter than the 50 ps gate delay: output unchanged.
        let r = timing_simulate(
            &nl,
            &delays,
            &[Lv::Zero],
            &[
                InputEvent {
                    net: a,
                    time_ps: 100.0,
                    value: Lv::One,
                },
                InputEvent {
                    net: a,
                    time_ps: 110.0,
                    value: Lv::Zero,
                },
            ],
        )
        .unwrap();
        assert!(r.wave(out).transitions.is_empty(), "{:?}", r.wave(out));
    }

    #[test]
    fn reconvergent_glitch_visible_with_unequal_paths() {
        // y = NAND(a, INV(a)): a rising creates a 0-glitch when the
        // inverter path is slower.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let an = nl.add_gate(GateKind::Inv, "an", &[a]).unwrap();
        let y = nl.add_gate(GateKind::Nand, "y", &[a, an]).unwrap();
        nl.mark_output(y);
        let mut delays = DelayModel::uniform(5.0, 5.0);
        delays.set_kind(GateKind::Inv, 40.0, 40.0);
        let r = timing_simulate(
            &nl,
            &delays,
            &[Lv::Zero],
            &[InputEvent {
                net: a,
                time_ps: 0.0,
                value: Lv::One,
            }],
        )
        .unwrap();
        let w = r.wave(y);
        // Glitch: 1 -> 0 at ~5ps, back to 1 at ~45ps.
        assert_eq!(w.transitions.len(), 2, "{w:?}");
        assert_eq!(w.final_value(), Lv::One);
    }
}
