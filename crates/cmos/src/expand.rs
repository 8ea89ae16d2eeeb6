//! Expansion of gate-level netlists into transistor-level analog circuits.
//!
//! Every logic gate becomes a static CMOS cell; every transistor is
//! recorded with its provenance `(logic gate, input pin, polarity, leaf)`,
//! which is how the OBD layer addresses "the PMOS connected to input A of
//! this NAND".

use std::collections::HashMap;

use obd_logic::netlist::{GateId, GateKind, NetId, Netlist};
use obd_spice::devices::{Capacitor, MosPolarity, SourceWave, Vsource};
use obd_spice::{Circuit, DeviceId, NodeId};

use crate::cell::Cell;
use crate::tech::TechParams;
use crate::topology::SpNet;
use crate::CmosError;

/// Provenance record for one expanded transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransistorRef {
    /// The logic gate this transistor implements.
    pub(crate) gate: GateId,
    /// The cell input pin controlling the transistor's gate terminal.
    pub(crate) pin: usize,
    /// Device polarity (NMOS = pull-down side, PMOS = pull-up side).
    pub polarity: MosPolarity,
    /// Leaf index within its pull network.
    pub leaf: usize,
    /// The spice device implementing it.
    pub device: DeviceId,
}

/// A flattened analog circuit with its provenance index.
#[derive(Debug, Clone)]
pub struct ExpandedCircuit {
    /// The analog circuit (contains the VDD supply; primary inputs are
    /// *undriven* nodes the caller must attach sources to).
    pub circuit: Circuit,
    node_of_net: Vec<NodeId>,
    transistors: Vec<TransistorRef>,
}

impl ExpandedCircuit {
    /// Spice node corresponding to a logic net.
    pub fn node(&self, net: NetId) -> NodeId {
        self.node_of_net[net.index()]
    }

    /// Transistors of a given gate, pin and polarity (complex cells may
    /// have several leaves per pin).
    pub fn find_transistors(
        &self,
        gate: GateId,
        pin: usize,
        polarity: MosPolarity,
    ) -> Vec<TransistorRef> {
        self.transistors
            .iter()
            .filter(|t| t.gate == gate && t.pin == pin && t.polarity == polarity)
            .copied()
            .collect()
    }

    /// Drives a primary input with an ideal voltage source. Returns the
    /// source's device id.
    pub fn drive_input(&mut self, net: NetId, wave: SourceWave) -> DeviceId {
        let node = self.node(net);
        let name = format!("VPI_{}", node.index());
        self.circuit
            .add_vsource(Vsource::new(&name, node, Circuit::GROUND, wave))
    }
}

/// Expands a netlist of `INV`/`BUF`/`NAND`/`NOR` gates.
///
/// # Errors
///
/// [`CmosError::Unsupported`] for other gate kinds — run
/// [`decompose_for_expansion`] first.
pub fn expand(nl: &Netlist, tech: &TechParams) -> Result<ExpandedCircuit, CmosError> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(Vsource::new(
        "VDD",
        vdd,
        Circuit::GROUND,
        SourceWave::dc(tech.vdd),
    ));

    // One spice node per logic net.
    let mut node_of_net = Vec::with_capacity(nl.num_nets());
    for net in nl.net_ids() {
        let name = format!("n_{}", sanitize(nl.net_name(net)));
        node_of_net.push(ckt.node(&name));
    }

    let mut transistors = Vec::new();
    // Terminal-count bookkeeping for lumped capacitances.
    let mut sd_terms: HashMap<usize, usize> = HashMap::new();
    let mut gate_terms: HashMap<usize, usize> = HashMap::new();

    for (gi, g) in nl.gates().iter().enumerate() {
        let gate_id = nl.gate_id(gi);
        let out = node_of_net[g.output.index()];
        let ins: Vec<NodeId> = g.inputs.iter().map(|n| node_of_net[n.index()]).collect();
        let cell = match g.kind {
            GateKind::Inv => Cell::inverter(),
            GateKind::Nand => Cell::nand(g.inputs.len()),
            GateKind::Nor => Cell::nor(g.inputs.len()),
            GateKind::Buf => {
                // Two inverters with a private internal node.
                let mid = ckt.node(&format!("g{gi}_bufmid"));
                let cell = Cell::inverter();
                expand_cell(
                    &mut ckt,
                    tech,
                    &cell,
                    gate_id,
                    &ins,
                    mid,
                    vdd,
                    &mut transistors,
                    &mut sd_terms,
                    &mut gate_terms,
                    &format!("g{gi}a"),
                );
                expand_cell(
                    &mut ckt,
                    tech,
                    &cell,
                    gate_id,
                    &[mid],
                    out,
                    vdd,
                    &mut transistors,
                    &mut sd_terms,
                    &mut gate_terms,
                    &format!("g{gi}b"),
                );
                continue;
            }
            other => {
                return Err(CmosError::Unsupported {
                    what: format!(
                        "gate kind {other} (gate '{}'); decompose to INV/BUF/NAND/NOR first",
                        g.name
                    ),
                })
            }
        };
        expand_cell(
            &mut ckt,
            tech,
            &cell,
            gate_id,
            &ins,
            out,
            vdd,
            &mut transistors,
            &mut sd_terms,
            &mut gate_terms,
            &format!("g{gi}"),
        );
    }

    // Lumped node capacitances: junction + gate terms, plus wire load on
    // every gate output.
    let mut cap_of_node: HashMap<usize, f64> = HashMap::new();
    for (node, count) in sd_terms {
        *cap_of_node.entry(node).or_default() += count as f64 * tech.c_junction;
    }
    for (node, count) in gate_terms {
        *cap_of_node.entry(node).or_default() += count as f64 * tech.c_gate;
    }
    for g in nl.gates() {
        let out = node_of_net[g.output.index()];
        *cap_of_node.entry(out.index()).or_default() += tech.c_wire;
    }
    let mut caps: Vec<(usize, f64)> = cap_of_node.into_iter().collect();
    caps.sort_unstable_by_key(|a| a.0);
    for (node_idx, c) in caps {
        if node_idx == Circuit::GROUND.index() || node_idx == vdd.index() {
            continue;
        }
        let node = ckt.node_by_index(node_idx);
        ckt.add_capacitor(Capacitor::new(
            &format!("Cn{node_idx}"),
            node,
            Circuit::GROUND,
            c,
        ));
    }

    Ok(ExpandedCircuit {
        circuit: ckt,
        node_of_net,
        transistors,
    })
}

/// Instantiates one cell directly into a circuit (no gate-level netlist
/// needed) — the entry point for characterizing complex cells (AOI/OAI)
/// whose kinds have no gate-level primitive. Returns the provenance
/// records of the new transistors; their `gate` field is the supplied
/// placeholder id.
///
/// The caller is responsible for the lumped parasitics; use
/// [`attach_wire_load`] plus the lumped-terminal model [`expand`] applies.
#[allow(clippy::too_many_arguments)]
pub fn instantiate_cell(
    ckt: &mut Circuit,
    tech: &TechParams,
    cell: &Cell,
    placeholder_gate: GateId,
    inputs: &[NodeId],
    output: NodeId,
    vdd: NodeId,
    prefix: &str,
) -> Vec<TransistorRef> {
    let mut transistors = Vec::new();
    let mut sd_terms = HashMap::new();
    let mut gate_terms = HashMap::new();
    expand_cell(
        ckt,
        tech,
        cell,
        placeholder_gate,
        inputs,
        output,
        vdd,
        &mut transistors,
        &mut sd_terms,
        &mut gate_terms,
        prefix,
    );
    attach_terms(ckt, tech, vdd, &sd_terms, &gate_terms);
    transistors
}

/// Adds the standard output wire load used by [`expand`] at a node.
pub fn attach_wire_load(ckt: &mut Circuit, tech: &TechParams, node: NodeId) {
    ckt.add_capacitor(Capacitor::new(
        &format!("Cw{}", node.index()),
        node,
        Circuit::GROUND,
        tech.c_wire,
    ));
}

fn attach_terms(
    ckt: &mut Circuit,
    tech: &TechParams,
    vdd: NodeId,
    sd_terms: &HashMap<usize, usize>,
    gate_terms: &HashMap<usize, usize>,
) {
    let mut cap_of_node: HashMap<usize, f64> = HashMap::new();
    for (&node, &count) in sd_terms {
        *cap_of_node.entry(node).or_default() += count as f64 * tech.c_junction;
    }
    for (&node, &count) in gate_terms {
        *cap_of_node.entry(node).or_default() += count as f64 * tech.c_gate;
    }
    let mut caps: Vec<(usize, f64)> = cap_of_node.into_iter().collect();
    caps.sort_unstable_by_key(|a| a.0);
    for (node_idx, c) in caps {
        if node_idx == Circuit::GROUND.index() || node_idx == vdd.index() {
            continue;
        }
        let node = ckt.node_by_index(node_idx);
        ckt.add_capacitor(Capacitor::new(
            &format!("Cc{node_idx}_{}", ckt.num_devices()),
            node,
            Circuit::GROUND,
            c,
        ));
    }
}

/// Expands one cell instance. NMOS pull-down runs from the output node to
/// ground; PMOS pull-up from VDD to the output node.
#[allow(clippy::too_many_arguments)]
fn expand_cell(
    ckt: &mut Circuit,
    tech: &TechParams,
    cell: &Cell,
    gate: GateId,
    inputs: &[NodeId],
    out: NodeId,
    vdd: NodeId,
    transistors: &mut Vec<TransistorRef>,
    sd_terms: &mut HashMap<usize, usize>,
    gate_terms: &mut HashMap<usize, usize>,
    prefix: &str,
) {
    assert_eq!(inputs.len(), cell.num_inputs, "pin count mismatch");
    let mut leaf_counter = 0usize;
    expand_net(
        ckt,
        tech,
        &cell.pulldown,
        MosPolarity::Nmos,
        gate,
        inputs,
        out,
        Circuit::GROUND,
        Circuit::GROUND,
        transistors,
        sd_terms,
        gate_terms,
        &format!("{prefix}_pd"),
        &mut leaf_counter,
    );
    let mut leaf_counter = 0usize;
    expand_net(
        ckt,
        tech,
        &cell.pullup,
        MosPolarity::Pmos,
        gate,
        inputs,
        vdd,
        out,
        vdd,
        transistors,
        sd_terms,
        gate_terms,
        &format!("{prefix}_pu"),
        &mut leaf_counter,
    );
}

/// Recursively expands a series-parallel network between `top` and
/// `bottom`. For NMOS pull-downs, `top` is the output and `bottom` is
/// ground; for PMOS pull-ups, `top` is VDD and `bottom` is the output.
#[allow(clippy::too_many_arguments)]
fn expand_net(
    ckt: &mut Circuit,
    tech: &TechParams,
    net: &SpNet,
    polarity: MosPolarity,
    gate: GateId,
    inputs: &[NodeId],
    top: NodeId,
    bottom: NodeId,
    bulk: NodeId,
    transistors: &mut Vec<TransistorRef>,
    sd_terms: &mut HashMap<usize, usize>,
    gate_terms: &mut HashMap<usize, usize>,
    prefix: &str,
    leaf_counter: &mut usize,
) {
    match net {
        SpNet::Leaf(pin) => {
            let leaf = *leaf_counter;
            *leaf_counter += 1;
            let g_node = inputs[*pin];
            let name = format!("M{prefix}_{leaf}");
            let m = tech.mosfet(&name, polarity, top, g_node, bottom, bulk);
            let device = ckt.add_mosfet(m);
            transistors.push(TransistorRef {
                gate,
                pin: *pin,
                polarity,
                leaf,
                device,
            });
            *sd_terms.entry(top.index()).or_default() += 1;
            *sd_terms.entry(bottom.index()).or_default() += 1;
            *gate_terms.entry(g_node.index()).or_default() += 1;
        }
        SpNet::Series(xs) => {
            let mut prev = top;
            for (i, x) in xs.iter().enumerate() {
                let next = if i + 1 == xs.len() {
                    bottom
                } else {
                    ckt.fresh_node()
                };
                expand_net(
                    ckt,
                    tech,
                    x,
                    polarity,
                    gate,
                    inputs,
                    prev,
                    next,
                    bulk,
                    transistors,
                    sd_terms,
                    gate_terms,
                    prefix,
                    leaf_counter,
                );
                prev = next;
            }
        }
        SpNet::Parallel(xs) => {
            for x in xs {
                expand_net(
                    ckt,
                    tech,
                    x,
                    polarity,
                    gate,
                    inputs,
                    top,
                    bottom,
                    bulk,
                    transistors,
                    sd_terms,
                    gate_terms,
                    prefix,
                    leaf_counter,
                );
            }
        }
    }
}

/// Rewrites a netlist so only `INV`/`BUF`/`NAND`/`NOR` remain: `AND` gains
/// an output inverter, `OR` becomes a NOR plus inverter, `XOR`/`XNOR`
/// become 4-NAND blocks (cascaded for wider gates).
///
/// The rewritten netlist computes the same function; gate names are
/// preserved for the final gate of each replacement so outputs keep their
/// names.
///
/// # Errors
///
/// Propagates structural errors while rebuilding.
pub fn decompose_for_expansion(nl: &Netlist) -> Result<Netlist, obd_logic::LogicError> {
    let mut out = Netlist::new();
    let mut map: Vec<Option<NetId>> = vec![None; nl.num_nets()];
    for &pi in nl.inputs() {
        map[pi.index()] = Some(out.add_input(nl.net_name(pi)));
    }
    let order = nl.levelize()?;
    for g in order {
        let gate = nl.gate(g);
        let ins: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("topological order guarantees inputs"))
            .collect();
        let name = &gate.name;
        let new_out = match gate.kind {
            GateKind::Inv | GateKind::Buf | GateKind::Nand | GateKind::Nor => {
                out.add_gate(gate.kind, name, &ins)?
            }
            GateKind::And => {
                let n = out.add_gate(GateKind::Nand, &format!("{name}__nand"), &ins)?;
                out.add_gate(GateKind::Inv, name, &[n])?
            }
            GateKind::Or => {
                let n = out.add_gate(GateKind::Nor, &format!("{name}__nor"), &ins)?;
                out.add_gate(GateKind::Inv, name, &[n])?
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = ins[0];
                for (k, &b) in ins.iter().enumerate().skip(1) {
                    let last = k + 1 == ins.len() && gate.kind == GateKind::Xor;
                    let pfx = format!("{name}__x{k}");
                    let t1 = out.add_gate(GateKind::Nand, &format!("{pfx}a"), &[acc, b])?;
                    let t2 = out.add_gate(GateKind::Nand, &format!("{pfx}b"), &[acc, t1])?;
                    let t3 = out.add_gate(GateKind::Nand, &format!("{pfx}c"), &[t1, b])?;
                    let gate_name = if last {
                        name.clone()
                    } else {
                        format!("{pfx}d")
                    };
                    acc = out.add_gate(GateKind::Nand, &gate_name, &[t2, t3])?;
                }
                if gate.kind == GateKind::Xnor {
                    acc = out.add_gate(GateKind::Inv, name, &[acc])?;
                }
                acc
            }
        };
        map[gate.output.index()] = Some(new_out);
    }
    for &po in nl.outputs() {
        out.mark_output(map[po.index()].expect("output driven"));
    }
    Ok(out)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obd_logic::circuits::fig8_sum_circuit;
    use obd_logic::sim::simulate;
    use obd_logic::value::{all_vectors, Lv};
    use obd_spice::analysis::op::operating_point;
    use obd_spice::SimOptions;

    fn nand2_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, "y", &[a, b]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn nand2_expands_to_four_transistors() {
        let nl = nand2_netlist();
        let exp = expand(&nl, &TechParams::date05()).unwrap();
        assert_eq!(exp.transistors.len(), 4);
        let g = nl.gate_id(0);
        assert_eq!(exp.find_transistors(g, 0, MosPolarity::Nmos).len(), 1);
        assert_eq!(exp.find_transistors(g, 1, MosPolarity::Pmos).len(), 1);
    }

    #[test]
    fn expanded_nand_dc_matches_logic_for_all_vectors() {
        let nl = nand2_netlist();
        let tech = TechParams::date05();
        let y = nl.find_net("y").unwrap();
        for v in all_vectors(2) {
            let mut exp = expand(&nl, &tech).unwrap();
            for (i, &pi) in nl.inputs().iter().enumerate() {
                let volts = if v[i] == Lv::One { tech.vdd } else { 0.0 };
                exp.drive_input(pi, SourceWave::dc(volts));
            }
            let op = operating_point(&exp.circuit, &SimOptions::new()).unwrap();
            let vout = op.voltage(exp.node(y));
            let expect = simulate(&nl, &v).unwrap().value(y);
            match expect {
                Lv::One => assert!(vout > 0.9 * tech.vdd, "{v:?}: vout={vout}"),
                Lv::Zero => assert!(vout < 0.1 * tech.vdd, "{v:?}: vout={vout}"),
                Lv::X => unreachable!(),
            }
        }
    }

    #[test]
    fn fig8_expands_and_solves_dc() {
        let nl = fig8_sum_circuit();
        let tech = TechParams::date05();
        // 14 NAND2 (4 devices each) + 11 INV (2 each) = 78 transistors.
        let exp = expand(&nl, &tech).unwrap();
        assert_eq!(exp.transistors.len(), 78);

        // Full-circuit DC check for one vector: A=1, B=0, C=0 -> S=1.
        let mut exp = expand(&nl, &tech).unwrap();
        let ins = nl.inputs().to_vec();
        exp.drive_input(ins[0], SourceWave::dc(tech.vdd));
        exp.drive_input(ins[1], SourceWave::dc(0.0));
        exp.drive_input(ins[2], SourceWave::dc(0.0));
        let op = operating_point(&exp.circuit, &SimOptions::new()).unwrap();
        let s = nl.outputs()[0];
        assert!(op.voltage(exp.node(s)) > 0.9 * tech.vdd);
    }

    #[test]
    fn unsupported_kind_reports_error() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Xor, "y", &[a, b]).unwrap();
        nl.mark_output(y);
        assert!(matches!(
            expand(&nl, &TechParams::date05()),
            Err(CmosError::Unsupported { .. })
        ));
    }

    #[test]
    fn decompose_preserves_function() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(GateKind::Xor, "x", &[a, b]).unwrap();
        let o = nl.add_gate(GateKind::Or, "o", &[x, c]).unwrap();
        let y = nl.add_gate(GateKind::Xnor, "y", &[o, a]).unwrap();
        nl.mark_output(y);
        let dec = decompose_for_expansion(&nl).unwrap();
        // Only expandable kinds remain.
        for g in dec.gates() {
            assert!(matches!(
                g.kind,
                GateKind::Inv | GateKind::Buf | GateKind::Nand | GateKind::Nor
            ));
        }
        for v in all_vectors(3) {
            let r1 = simulate(&nl, &v).unwrap().outputs(&nl);
            let r2 = simulate(&dec, &v).unwrap().outputs(&dec);
            assert_eq!(r1, r2, "{v:?}");
        }
        // And it expands cleanly.
        assert!(expand(&dec, &TechParams::date05()).is_ok());
    }

    #[test]
    fn buf_expands_to_two_inverter_pairs() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Buf, "y", &[a]).unwrap();
        nl.mark_output(y);
        let exp = expand(&nl, &TechParams::date05()).unwrap();
        assert_eq!(exp.transistors.len(), 4);
    }
}
