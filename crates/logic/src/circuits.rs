//! Stock circuits used across tests, examples and benchmarks.
//!
//! The centerpiece is [`fig8_sum_circuit`], a reconstruction of the paper's
//! Fig. 8: the sum output of a full adder implemented *without optimization*
//! as 14 NAND2 gates plus 11 inverters with a logic depth of 9, including
//! intentional redundancy (duplicated subcircuits merged back together)
//! that renders some OBD faults untestable — exactly the property §4.3 of
//! the paper studies.

use crate::netlist::{GateKind, NetId, Netlist};

/// Builds a 4-NAND XOR block; returns the output net.
fn xor_nand4(nl: &mut Netlist, prefix: &str, a: NetId, b: NetId) -> NetId {
    let g1 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_n1"), &[a, b])
        .expect("fresh names");
    let g2 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_n2"), &[a, g1])
        .expect("fresh names");
    let g3 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_n3"), &[g1, b])
        .expect("fresh names");
    nl.add_gate(GateKind::Nand, &format!("{prefix}_n4"), &[g2, g3])
        .expect("fresh names")
}

/// The paper's Fig. 8 circuit: the sum bit `S = A ⊕ B ⊕ C` of a full adder,
/// built from exactly **14 NAND2 gates and 11 inverters with logic depth
/// 9**, deliberately unoptimized and redundant.
///
/// Redundancy comes from computing `A ⊕ B` twice (once as a 4-NAND block,
/// once in inverter/sum-of-products form) and merging the copies, and from
/// a duplicated product term merged at the output stage. Because the
/// duplicated signals are logically identical, test conditions that require
/// exactly one of them to switch are unsatisfiable — making several OBD
/// defects in the merge gates untestable, as §4.3 reports for the original
/// circuit.
///
/// # Example
///
/// ```rust
/// use obd_logic::circuits::fig8_sum_circuit;
/// use obd_logic::netlist::GateKind;
///
/// let nl = fig8_sum_circuit();
/// assert_eq!(nl.count_kind(GateKind::Nand), 14);
/// assert_eq!(nl.count_kind(GateKind::Inv), 11);
/// assert_eq!(nl.max_depth().unwrap(), 9);
/// ```
pub fn fig8_sum_circuit() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.add_input("A");
    let b = nl.add_input("B");
    let c = nl.add_input("C");

    // X1 = A xor B, 4-NAND form (depth 3).
    let x1 = xor_nand4(&mut nl, "x1", a, b);

    // X2 = A xor B, SOP form with explicit inverters (depth 3).
    let ia = nl.add_gate(GateKind::Inv, "ia", &[a]).expect("fresh");
    let ib = nl.add_gate(GateKind::Inv, "ib", &[b]).expect("fresh");
    let n1 = nl.add_gate(GateKind::Nand, "n1", &[a, ib]).expect("fresh");
    let n2 = nl.add_gate(GateKind::Nand, "n2", &[ia, b]).expect("fresh");
    let x2 = nl.add_gate(GateKind::Nand, "x2", &[n1, n2]).expect("fresh");

    // Redundant merge: gm = gmp = !(X1 AND X2) = !X since X1 == X2.
    let gm = nl.add_gate(GateKind::Nand, "gm", &[x1, x2]).expect("fresh");
    let gmp = nl
        .add_gate(GateKind::Nand, "gmp", &[x1, x2])
        .expect("fresh");
    let xt = nl.add_gate(GateKind::Inv, "xt", &[gm]).expect("fresh");

    // Buffered C: c3 = !C (depth 3), c4 = C (depth 4).
    let c1 = nl.add_gate(GateKind::Inv, "c1", &[c]).expect("fresh");
    let c2 = nl.add_gate(GateKind::Inv, "c2", &[c1]).expect("fresh");
    let c3 = nl.add_gate(GateKind::Inv, "c3", &[c2]).expect("fresh");
    let c4 = nl.add_gate(GateKind::Inv, "c4", &[c3]).expect("fresh");

    // Product terms: g5 = g5p = !(X·!C) (duplicated), g6 = !(!X·C).
    let g5 = nl.add_gate(GateKind::Nand, "g5", &[xt, c3]).expect("fresh");
    let g5p = nl
        .add_gate(GateKind::Nand, "g5p", &[xt, c3])
        .expect("fresh");
    let g6 = nl
        .add_gate(GateKind::Nand, "g6", &[gmp, c4])
        .expect("fresh");

    let a1 = nl.add_gate(GateKind::Inv, "a1", &[g5]).expect("fresh");
    let a1p = nl.add_gate(GateKind::Inv, "a1p", &[g5p]).expect("fresh");
    let a2 = nl.add_gate(GateKind::Inv, "a2", &[g6]).expect("fresh");

    // Redundant merge of the duplicated product term.
    let b1 = nl
        .add_gate(GateKind::Nand, "b1", &[a1, a1p])
        .expect("fresh");
    let b2 = nl.add_gate(GateKind::Inv, "b2", &[a2]).expect("fresh");

    let s = nl.add_gate(GateKind::Nand, "s", &[b1, b2]).expect("fresh");
    nl.mark_output(s);
    nl
}

/// Appends a 9-NAND full adder block; returns `(sum, cout)`.
pub(crate) fn fa_block(
    nl: &mut Netlist,
    prefix: &str,
    a: NetId,
    b: NetId,
    cin: NetId,
) -> (NetId, NetId) {
    let t1 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t1"), &[a, b])
        .expect("fresh");
    let t2 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t2"), &[a, t1])
        .expect("fresh");
    let t3 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t3"), &[b, t1])
        .expect("fresh");
    let x = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_x"), &[t2, t3])
        .expect("fresh");
    let t4 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t4"), &[x, cin])
        .expect("fresh");
    let t5 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t5"), &[x, t4])
        .expect("fresh");
    let t6 = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_t6"), &[cin, t4])
        .expect("fresh");
    let s = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_s"), &[t5, t6])
        .expect("fresh");
    let cout = nl
        .add_gate(GateKind::Nand, &format!("{prefix}_c"), &[t1, t4])
        .expect("fresh");
    (s, cout)
}

/// An `n`-bit ripple-carry adder built from NAND2-only full adders.
/// Inputs `a0..a(n-1)`, `b0..b(n-1)`, `cin`; outputs `s0..s(n-1)`, `cout`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ripple_carry_adder(n: usize) -> Netlist {
    assert!(n > 0, "adder width must be positive");
    let mut nl = Netlist::new();
    let a: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("b{i}"))).collect();
    let mut carry = nl.add_input("cin");
    for i in 0..n {
        let (s, co) = fa_block(&mut nl, &format!("fa{i}"), a[i], b[i], carry);
        nl.mark_output(s);
        carry = co;
    }
    nl.mark_output(carry);
    nl
}

/// An `n`-input parity (XOR) tree built from 4-NAND XOR blocks.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn parity_tree(n: usize) -> Netlist {
    assert!(n >= 2, "parity tree needs at least 2 inputs");
    let mut nl = Netlist::new();
    let mut layer: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("p{i}"))).collect();
    let mut stage = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        let mut k = 0;
        while k + 1 < layer.len() {
            let out = xor_nand4(
                &mut nl,
                &format!("xor_s{stage}_{k}"),
                layer[k],
                layer[k + 1],
            );
            next.push(out);
            k += 2;
        }
        if k < layer.len() {
            next.push(layer[k]);
        }
        layer = next;
        stage += 1;
    }
    nl.mark_output(layer[0]);
    nl
}

/// The ISCAS-85 `c17` benchmark: six NAND2 gates, five inputs, two
/// outputs.
pub fn c17() -> Netlist {
    let mut nl = Netlist::new();
    let i1 = nl.add_input("1");
    let i2 = nl.add_input("2");
    let i3 = nl.add_input("3");
    let i6 = nl.add_input("6");
    let i7 = nl.add_input("7");
    let g10 = nl.add_gate(GateKind::Nand, "10", &[i1, i3]).expect("fresh");
    let g11 = nl.add_gate(GateKind::Nand, "11", &[i3, i6]).expect("fresh");
    let g16 = nl
        .add_gate(GateKind::Nand, "16", &[i2, g11])
        .expect("fresh");
    let g19 = nl
        .add_gate(GateKind::Nand, "19", &[g11, i7])
        .expect("fresh");
    let g22 = nl
        .add_gate(GateKind::Nand, "22", &[g10, g16])
        .expect("fresh");
    let g23 = nl
        .add_gate(GateKind::Nand, "23", &[g16, g19])
        .expect("fresh");
    nl.mark_output(g22);
    nl.mark_output(g23);
    nl
}

/// A `2^sel`-to-1 multiplexer tree from NAND/INV (data inputs
/// `d0..`, select inputs `s0..`).
///
/// # Panics
///
/// Panics if `sel == 0` or `sel > 6`.
pub fn mux_tree(sel: usize) -> Netlist {
    assert!((1..=6).contains(&sel), "1..=6 select bits supported");
    let mut nl = Netlist::new();
    let n_data = 1usize << sel;
    let data: Vec<NetId> = (0..n_data)
        .map(|i| nl.add_input(&format!("d{i}")))
        .collect();
    let selects: Vec<NetId> = (0..sel).map(|i| nl.add_input(&format!("s{i}"))).collect();
    let mut layer = data;
    for (si, &s) in selects.iter().enumerate() {
        let sn = nl
            .add_gate(GateKind::Inv, &format!("sn{si}"), &[s])
            .expect("fresh");
        let mut next = Vec::new();
        for k in 0..(layer.len() / 2) {
            let t1 = nl
                .add_gate(GateKind::Nand, &format!("m{si}_{k}_a"), &[layer[2 * k], sn])
                .expect("fresh");
            let t2 = nl
                .add_gate(
                    GateKind::Nand,
                    &format!("m{si}_{k}_b"),
                    &[layer[2 * k + 1], s],
                )
                .expect("fresh");
            let y = nl
                .add_gate(GateKind::Nand, &format!("m{si}_{k}_y"), &[t1, t2])
                .expect("fresh");
            next.push(y);
        }
        layer = next;
    }
    nl.mark_output(layer[0]);
    nl
}

/// Appends `AND2` as NAND + INV; returns the AND output.
fn and2(nl: &mut Netlist, name: &str, x: NetId, y: NetId) -> NetId {
    let n = nl
        .add_gate(GateKind::Nand, &format!("{name}_n"), &[x, y])
        .expect("fresh");
    nl.add_gate(GateKind::Inv, name, &[n]).expect("fresh")
}

/// Appends `OR2` as NAND of inverted inputs; returns the OR output.
fn or2(nl: &mut Netlist, name: &str, x: NetId, y: NetId) -> NetId {
    let nx = nl
        .add_gate(GateKind::Inv, &format!("{name}_ix"), &[x])
        .expect("fresh");
    let ny = nl
        .add_gate(GateKind::Inv, &format!("{name}_iy"), &[y])
        .expect("fresh");
    nl.add_gate(GateKind::Nand, name, &[nx, ny]).expect("fresh")
}

/// Appends a NAND-based 2:1 mux (`sel ? x1 : x0`); returns the output.
fn mux2(nl: &mut Netlist, name: &str, x0: NetId, x1: NetId, sel: NetId) -> NetId {
    let sn = nl
        .add_gate(GateKind::Inv, &format!("{name}_sn"), &[sel])
        .expect("fresh");
    let t0 = nl
        .add_gate(GateKind::Nand, &format!("{name}_t0"), &[x0, sn])
        .expect("fresh");
    let t1 = nl
        .add_gate(GateKind::Nand, &format!("{name}_t1"), &[x1, sel])
        .expect("fresh");
    nl.add_gate(GateKind::Nand, name, &[t0, t1]).expect("fresh")
}

/// An `n`-bit carry-select adder in blocks of `block` bits: each block
/// past the first computes both carry-assumption chains (`cin = 0` and
/// `cin = 1`) and muxes sums and carry-out on the incoming block carry.
/// Same interface as [`ripple_carry_adder`]: inputs `a0..`, `b0..`,
/// `cin`; outputs `s0..`, `cout` — but roughly twice the gates and much
/// shallower carry depth, so it makes a good wide, shallow grading
/// workload.
///
/// # Panics
///
/// Panics if `n == 0` or `block == 0`.
pub fn carry_select_adder(n: usize, block: usize) -> Netlist {
    assert!(n > 0, "adder width must be positive");
    assert!(block > 0, "block size must be positive");
    let mut nl = Netlist::new();
    let a: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("b{i}"))).collect();
    let cin = nl.add_input("cin");

    let mut sums = vec![None; n];
    // First block: plain ripple chain seeded by the real cin.
    let first_end = block.min(n);
    let mut carry = cin;
    for i in 0..first_end {
        let (s, co) = fa_block(&mut nl, &format!("csa_fa{i}"), a[i], b[i], carry);
        sums[i] = Some(s);
        carry = co;
    }
    // Remaining blocks: dual chains + mux on the incoming carry.
    let mut lo = first_end;
    while lo < n {
        let hi = (lo + block).min(n);
        // cin = 0 chain: first bit is s = a^b, c = a&b.
        let mut s0 = Vec::new();
        let mut c0 = {
            let s = xor_nand4(&mut nl, &format!("cs0_{lo}_x"), a[lo], b[lo]);
            s0.push(s);
            and2(&mut nl, &format!("cs0_{lo}_c"), a[lo], b[lo])
        };
        // cin = 1 chain: first bit is s = !(a^b), c = a|b.
        let mut s1 = Vec::new();
        let mut c1 = {
            let x = xor_nand4(&mut nl, &format!("cs1_{lo}_x"), a[lo], b[lo]);
            let s = nl
                .add_gate(GateKind::Inv, &format!("cs1_{lo}_s"), &[x])
                .expect("fresh");
            s1.push(s);
            or2(&mut nl, &format!("cs1_{lo}_c"), a[lo], b[lo])
        };
        for i in (lo + 1)..hi {
            let (s, co) = fa_block(&mut nl, &format!("cs0_{i}"), a[i], b[i], c0);
            s0.push(s);
            c0 = co;
            let (s, co) = fa_block(&mut nl, &format!("cs1_{i}"), a[i], b[i], c1);
            s1.push(s);
            c1 = co;
        }
        for (k, i) in (lo..hi).enumerate() {
            sums[i] = Some(mux2(&mut nl, &format!("csm_{i}"), s0[k], s1[k], carry));
        }
        carry = mux2(&mut nl, &format!("csc_{hi}"), c0, c1, carry);
        lo = hi;
    }
    for s in sums {
        nl.mark_output(s.expect("every bit summed"));
    }
    nl.mark_output(carry);
    nl
}

/// An `n`×`n`-bit array multiplier (`p = a * b`, `2n`-bit product) from
/// NAND/INV partial products reduced through full/half adders per bit
/// weight. Inputs `a0..`, `b0..`; outputs `p0..p(2n-1)`. Quadratic in
/// `n` — `array_multiplier(16)` is a few thousand gates, the smallest
/// workload where grading-throughput differences become visible.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn array_multiplier(n: usize) -> Netlist {
    assert!(n >= 2, "multiplier width must be at least 2");
    let mut nl = Netlist::new();
    let a: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..n).map(|i| nl.add_input(&format!("b{i}"))).collect();
    // Partial products bucketed by bit weight.
    let mut weight: Vec<Vec<NetId>> = vec![Vec::new(); 2 * n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            weight[i + j].push(and2(&mut nl, &format!("pp{i}_{j}"), ai, bj));
        }
    }
    // Reduce each weight to a single product bit, rippling carries up.
    for w in 0..(2 * n) {
        let mut k = 0;
        while weight[w].len() > 1 {
            if weight[w].len() >= 3 {
                let (x, y, z) = {
                    let bucket = &mut weight[w];
                    (
                        bucket.pop().expect("len >= 3"),
                        bucket.pop().expect("len >= 3"),
                        bucket.pop().expect("len >= 3"),
                    )
                };
                let (s, c) = fa_block(&mut nl, &format!("red{w}_{k}"), x, y, z);
                weight[w].push(s);
                weight[w + 1].push(c);
            } else {
                let (x, y) = {
                    let bucket = &mut weight[w];
                    (
                        bucket.pop().expect("len == 2"),
                        bucket.pop().expect("len == 2"),
                    )
                };
                let s = xor_nand4(&mut nl, &format!("ha{w}_{k}_s"), x, y);
                let c = and2(&mut nl, &format!("ha{w}_{k}_c"), x, y);
                weight[w].push(s);
                weight[w + 1].push(c);
            }
            k += 1;
        }
        if let Some(&p) = weight[w].first() {
            nl.mark_output(p);
        }
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::value::{all_vectors, Lv};

    fn as_bits(v: &[Lv]) -> Vec<bool> {
        v.iter().map(|x| x.to_bool().unwrap()).collect()
    }

    #[test]
    fn fig8_has_paper_cell_counts_and_depth() {
        let nl = fig8_sum_circuit();
        assert_eq!(nl.count_kind(GateKind::Nand), 14);
        assert_eq!(nl.count_kind(GateKind::Inv), 11);
        assert_eq!(nl.num_gates(), 25);
        assert_eq!(nl.max_depth().unwrap(), 9);
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    fn fig8_computes_sum_bit() {
        let nl = fig8_sum_circuit();
        for v in all_vectors(3) {
            let bits = as_bits(&v);
            let expect = bits[0] ^ bits[1] ^ bits[2];
            let r = simulate(&nl, &v).unwrap();
            assert_eq!(
                r.outputs(&nl)[0],
                Lv::from_bool(expect),
                "S({bits:?}) wrong"
            );
        }
    }

    #[test]
    fn ripple_adder_adds() {
        let n = 4;
        let nl = ripple_carry_adder(n);
        // Check 5 + 9 + 1 = 15.
        let encode = |x: usize, width: usize| -> Vec<Lv> {
            (0..width)
                .map(|i| Lv::from_bool((x >> i) & 1 == 1))
                .collect()
        };
        let mut v = encode(5, n);
        v.extend(encode(9, n));
        v.push(Lv::One);
        let r = simulate(&nl, &v).unwrap();
        let outs = r.outputs(&nl);
        let mut result = 0usize;
        for (i, o) in outs.iter().enumerate() {
            if *o == Lv::One {
                result |= 1 << i;
            }
        }
        assert_eq!(result, 15);
    }

    #[test]
    fn parity_tree_is_parity() {
        let nl = parity_tree(5);
        for v in all_vectors(5) {
            let ones = as_bits(&v).iter().filter(|&&b| b).count();
            let r = simulate(&nl, &v).unwrap();
            assert_eq!(r.outputs(&nl)[0], Lv::from_bool(ones % 2 == 1));
        }
    }

    #[test]
    fn c17_structure() {
        let nl = c17();
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.count_kind(GateKind::Nand), 6);
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        // Spot-check: all-ones input.
        let r = simulate(&nl, &[Lv::One; 5]).unwrap();
        assert_eq!(r.outputs(&nl).len(), 2);
    }

    fn decode_outputs(outs: &[Lv]) -> usize {
        outs.iter().enumerate().fold(0usize, |acc, (i, o)| match o {
            Lv::One => acc | (1 << i),
            _ => acc,
        })
    }

    #[test]
    fn carry_select_matches_ripple_adder() {
        let n = 6;
        let csa = carry_select_adder(n, 2);
        let rca = ripple_carry_adder(n);
        assert_eq!(csa.inputs().len(), rca.inputs().len());
        assert_eq!(csa.outputs().len(), rca.outputs().len());
        // A random sweep over (a, b, cin) plus the corner cases.
        let mut cases: Vec<(usize, usize, bool)> = vec![
            (0, 0, false),
            ((1 << n) - 1, (1 << n) - 1, true),
            (1, (1 << n) - 1, false),
        ];
        let mut rng = crate::rng::XorShift64Star::seed_from_u64(0x5EED_1234);
        for _ in 0..200 {
            cases.push((rng.gen_range(1 << n), rng.gen_range(1 << n), rng.gen_bool()));
        }
        for (a, b, cin) in cases {
            let mut v: Vec<Lv> = (0..n).map(|i| Lv::from_bool((a >> i) & 1 == 1)).collect();
            v.extend((0..n).map(|i| Lv::from_bool((b >> i) & 1 == 1)));
            v.push(Lv::from_bool(cin));
            let rc = simulate(&rca, &v).unwrap().outputs(&rca);
            let cs = simulate(&csa, &v).unwrap().outputs(&csa);
            assert_eq!(cs, rc, "a={a} b={b} cin={cin}");
            assert_eq!(decode_outputs(&cs), a + b + cin as usize);
        }
    }

    #[test]
    fn array_multiplier_small_exhaustive() {
        let n = 3;
        let nl = array_multiplier(n);
        assert_eq!(nl.outputs().len(), 2 * n);
        for v in all_vectors(2 * n) {
            let bits = as_bits(&v);
            let a = bits[..n]
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
            let b = bits[n..]
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &x)| acc | ((x as usize) << i));
            let outs = simulate(&nl, &v).unwrap().outputs(&nl);
            assert_eq!(decode_outputs(&outs), a * b, "{a} * {b}");
        }
    }

    #[test]
    fn array_multiplier_16_is_thousands_of_gates() {
        let nl = array_multiplier(16);
        assert!(
            nl.num_gates() >= 2000,
            "expected a >=2k-gate workload, got {}",
            nl.num_gates()
        );
        assert!(nl.levelize().is_ok());
    }

    #[test]
    fn mux_tree_selects_data() {
        let nl = mux_tree(2);
        // d = [d0..d3], s = [s0 (low level), s1 (high level)].
        for sel in 0..4usize {
            let mut v = vec![Lv::Zero; 4];
            v[sel] = Lv::One;
            // s0 selects within pairs (LSB), s1 selects between pairs.
            v.push(Lv::from_bool(sel & 1 == 1));
            v.push(Lv::from_bool(sel & 2 == 2));
            let r = simulate(&nl, &v).unwrap();
            assert_eq!(r.outputs(&nl)[0], Lv::One, "sel={sel}");
        }
    }
}
