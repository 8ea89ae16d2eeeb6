//! Series-parallel pull networks.
//!
//! A static CMOS gate is a pull-down network of NMOS transistors (conducts
//! when the output should be 0) and the dual pull-up network of PMOS
//! transistors. The paper's excitation analysis (§4.1, §5) reduces to a
//! structural question on these networks: *is the defective transistor on
//! every conducting path during the output transition?* If a parallel
//! device also conducts, the leakage through the defect is masked and the
//! transition delay does not appear.

/// A series-parallel transistor network over cell input pins.
///
/// A [`SpNet::Leaf`] is one transistor gated by the given input pin. In a
/// pull-down network a leaf conducts when its pin is 1; in a pull-up
/// network (PMOS) a leaf conducts when its pin is 0 — the conduction
/// predicate is supplied by the caller so the same structure serves both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpNet {
    /// One transistor controlled by input pin `usize`.
    Leaf(usize),
    /// Series composition (all must conduct).
    Series(Vec<SpNet>),
    /// Parallel composition (any must conduct).
    Parallel(Vec<SpNet>),
}

impl SpNet {
    /// A series chain of single transistors over pins `0..n`.
    pub(crate) fn series_chain(n: usize) -> SpNet {
        SpNet::Series((0..n).map(SpNet::Leaf).collect())
    }

    /// A parallel bank of single transistors over pins `0..n`.
    pub(crate) fn parallel_bank(n: usize) -> SpNet {
        SpNet::Parallel((0..n).map(SpNet::Leaf).collect())
    }

    /// The dual network: series ↔ parallel with the same leaves. The
    /// pull-up of a static CMOS gate is the dual of its pull-down.
    pub(crate) fn dual(&self) -> SpNet {
        match self {
            SpNet::Leaf(p) => SpNet::Leaf(*p),
            SpNet::Series(xs) => SpNet::Parallel(xs.iter().map(SpNet::dual).collect()),
            SpNet::Parallel(xs) => SpNet::Series(xs.iter().map(SpNet::dual).collect()),
        }
    }

    /// All leaves in a left-to-right traversal, as `(occurrence index,
    /// pin)` pairs. A pin may appear more than once in complex cells.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            SpNet::Leaf(p) => out.push(*p),
            SpNet::Series(xs) | SpNet::Parallel(xs) => {
                for x in xs {
                    x.collect_leaves(out);
                }
            }
        }
    }

    /// The highest pin index referenced, or `None` for an empty network.
    pub(crate) fn max_pin(&self) -> Option<usize> {
        self.leaves().into_iter().max()
    }

    /// Whether the network conducts when `on(pin)` says which transistors
    /// are on.
    pub(crate) fn conducts(&self, on: &dyn Fn(usize) -> bool) -> bool {
        self.conducts_masked(on, usize::MAX)
    }

    /// Conduction with the `skip`-th leaf (in [`SpNet::leaves`] order)
    /// forced off — used for the sole-path test.
    fn conducts_masked(&self, on: &dyn Fn(usize) -> bool, skip: usize) -> bool {
        fn rec(net: &SpNet, on: &dyn Fn(usize) -> bool, skip: usize, counter: &mut usize) -> bool {
            match net {
                SpNet::Leaf(p) => {
                    let idx = *counter;
                    *counter += 1;
                    idx != skip && on(*p)
                }
                SpNet::Series(xs) => {
                    // Evaluate all children to keep the counter consistent.
                    let mut all = true;
                    for x in xs {
                        if !rec(x, on, skip, counter) {
                            all = false;
                        }
                    }
                    all
                }
                SpNet::Parallel(xs) => {
                    let mut any = false;
                    for x in xs {
                        if rec(x, on, skip, counter) {
                            any = true;
                        }
                    }
                    any
                }
            }
        }
        let mut counter = 0;
        rec(self, on, skip, &mut counter)
    }

    /// Whether the `leaf_index`-th transistor (in [`SpNet::leaves`] order)
    /// carries current on **every** conducting path: the network conducts,
    /// but no longer conducts with that transistor removed.
    ///
    /// This is the paper's excitation criterion: an OBD defect is
    /// observable at the output only if the defective transistor is the
    /// sole (essential) conduction route during the transition.
    pub(crate) fn essential(&self, leaf_index: usize, on: &dyn Fn(usize) -> bool) -> bool {
        self.conducts(on) && !self.conducts_masked(on, leaf_index)
    }

    /// Whether at least one conducting path runs *through* the
    /// `leaf_index`-th transistor. This weaker condition (current flows,
    /// but a parallel path may exist) is the excitation criterion for
    /// intra-gate electromigration faults (§5), in contrast to the
    /// sole-path criterion for OBD.
    pub fn on_some_path(&self, leaf_index: usize, on: &dyn Fn(usize) -> bool) -> bool {
        fn rec(
            net: &SpNet,
            on: &dyn Fn(usize) -> bool,
            target: usize,
            counter: &mut usize,
        ) -> (bool, bool) {
            // Returns (conducts, conducts via the target leaf).
            match net {
                SpNet::Leaf(p) => {
                    let idx = *counter;
                    *counter += 1;
                    let c = on(*p);
                    (c, c && idx == target)
                }
                SpNet::Series(xs) => {
                    let mut all = true;
                    let mut via = false;
                    for x in xs {
                        let (c, v) = rec(x, on, target, counter);
                        all &= c;
                        via |= v;
                    }
                    (all, all && via)
                }
                SpNet::Parallel(xs) => {
                    let mut any = false;
                    let mut via = false;
                    for x in xs {
                        let (c, v) = rec(x, on, target, counter);
                        any |= c;
                        via |= v;
                    }
                    (any, via)
                }
            }
        }
        let mut counter = 0;
        rec(self, on, leaf_index, &mut counter).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_bits(bits: &[bool]) -> impl Fn(usize) -> bool + '_ {
        move |p| bits[p]
    }

    #[test]
    fn series_needs_all() {
        let net = SpNet::series_chain(3);
        assert!(net.conducts(&on_bits(&[true, true, true])));
        assert!(!net.conducts(&on_bits(&[true, false, true])));
    }

    #[test]
    fn parallel_needs_any() {
        let net = SpNet::parallel_bank(3);
        assert!(net.conducts(&on_bits(&[false, true, false])));
        assert!(!net.conducts(&on_bits(&[false, false, false])));
    }

    #[test]
    fn dual_swaps_series_parallel() {
        let net = SpNet::series_chain(2);
        assert_eq!(net.dual(), SpNet::parallel_bank(2));
        // Dual of dual is the original.
        assert_eq!(net.dual().dual(), net);
    }

    #[test]
    fn aoi_structure() {
        // AOI21 pull-down: (A AND B) OR C -> Parallel(Series(0,1), 2).
        let pd = SpNet::Parallel(vec![SpNet::series_chain(2), SpNet::Leaf(2)]);
        assert_eq!(pd.leaves().len(), 3);
        assert!(pd.conducts(&on_bits(&[true, true, false])));
        assert!(pd.conducts(&on_bits(&[false, false, true])));
        assert!(!pd.conducts(&on_bits(&[true, false, false])));
        // Pull-up dual: Series(Parallel(0,1), 2).
        let pu = pd.dual();
        assert_eq!(
            pu,
            SpNet::Series(vec![
                SpNet::Parallel(vec![SpNet::Leaf(0), SpNet::Leaf(1)]),
                SpNet::Leaf(2)
            ])
        );
    }

    #[test]
    fn essential_in_series_every_device() {
        // In a conducting series chain, every transistor is essential.
        let net = SpNet::series_chain(2);
        let all_on = on_bits(&[true, true]);
        assert!(net.essential(0, &all_on));
        assert!(net.essential(1, &all_on));
    }

    #[test]
    fn essential_in_parallel_only_when_alone() {
        let net = SpNet::parallel_bank(2);
        // Both on: neither is essential (the other path still conducts).
        let both = [true, true];
        assert!(!net.essential(0, &on_bits(&both)));
        assert!(!net.essential(1, &on_bits(&both)));
        // Only leaf 0 on: it is essential; leaf 1 is not even conducting.
        let only0 = [true, false];
        assert!(net.essential(0, &on_bits(&only0)));
        assert!(!net.essential(1, &on_bits(&only0)));
    }

    #[test]
    fn essential_when_not_conducting_is_false() {
        let net = SpNet::series_chain(2);
        assert!(!net.essential(0, &on_bits(&[true, false])));
    }

    #[test]
    fn on_some_path_weaker_than_essential() {
        let net = SpNet::parallel_bank(2);
        let both = [true, true];
        // Both parallel devices conduct: each is on a path but neither is
        // essential.
        assert!(net.on_some_path(0, &on_bits(&both)));
        assert!(net.on_some_path(1, &on_bits(&both)));
        assert!(!net.essential(0, &on_bits(&both)));
        // An off device is on no path.
        assert!(!net.on_some_path(1, &on_bits(&[true, false])));
    }

    #[test]
    fn on_some_path_series_requires_whole_chain() {
        let net = SpNet::Parallel(vec![SpNet::series_chain(2), SpNet::Leaf(2)]);
        // Chain broken (pin 1 off) but leaf 2 conducts: leaf 0 carries no
        // current even though it is on.
        assert!(!net.on_some_path(0, &on_bits(&[true, false, true])));
        assert!(net.on_some_path(2, &on_bits(&[true, false, true])));
        // Chain complete: both chain devices carry current.
        assert!(net.on_some_path(0, &on_bits(&[true, true, true])));
        assert!(net.on_some_path(1, &on_bits(&[true, true, true])));
    }

    #[test]
    fn leaves_order_is_stable() {
        let pd = SpNet::Parallel(vec![SpNet::series_chain(2), SpNet::Leaf(2)]);
        assert_eq!(pd.leaves(), vec![0, 1, 2]);
        assert_eq!(pd.max_pin(), Some(2));
    }
}
