//! MNA system assembly ("stamping").
//!
//! Unknown ordering: node voltages for nodes `1..n` (ground excluded),
//! followed by one branch current per independent voltage source.

use obd_linalg::Matrix;

use crate::circuit::NodeId;

/// An MNA system `A·x = z` under assembly.
#[derive(Debug, Clone)]
pub struct Stamp {
    n_nodes: usize,
    n_branches: usize,
    /// System matrix.
    pub(crate) a: Matrix,
    /// Right-hand side.
    pub(crate) z: Vec<f64>,
}

impl Stamp {
    /// Creates an empty system for a circuit with `n_nodes` total nodes
    /// (including ground) and `n_branches` voltage-source branches.
    pub(crate) fn new(n_nodes: usize, n_branches: usize) -> Self {
        let dim = n_nodes - 1 + n_branches;
        Stamp {
            n_nodes,
            n_branches,
            a: Matrix::zeros(dim, dim),
            z: vec![0.0; dim],
        }
    }

    /// Zeroes the system for re-stamping.
    pub(crate) fn clear(&mut self) {
        self.a.clear();
        self.z.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Overwrites this system with `other` (same dimensions) — a pair of
    /// memcpys, so the cached linear part of a circuit can seed each
    /// Newton iteration instead of re-stamping every device.
    pub(crate) fn copy_from(&mut self, other: &Stamp) {
        debug_assert_eq!(self.dim(), other.dim());
        self.a.copy_from(&other.a);
        self.z.copy_from_slice(&other.z);
    }

    /// System dimension (node rows + branch rows).
    pub(crate) fn dim(&self) -> usize {
        self.n_nodes - 1 + self.n_branches
    }

    /// Row/column index for a node, or `None` for ground.
    fn node_row(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Row index for voltage-source branch `k`.
    fn branch_row(&self, k: usize) -> usize {
        debug_assert!(k < self.n_branches);
        self.n_nodes - 1 + k
    }

    /// Voltage of `n` in the solution/iterate vector `x`.
    pub(crate) fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_row(n) {
            Some(r) => x[r],
            None => 0.0,
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub(crate) fn add_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let ra = self.node_row(a);
        let rb = self.node_row(b);
        if let Some(i) = ra {
            self.a.add_at(i, i, g);
        }
        if let Some(j) = rb {
            self.a.add_at(j, j, g);
        }
        if let (Some(i), Some(j)) = (ra, rb) {
            self.a.add_at(i, j, -g);
            self.a.add_at(j, i, -g);
        }
    }

    /// Stamps a constant current `i` flowing from node `from` through the
    /// element into node `to`.
    pub(crate) fn add_current(&mut self, from: NodeId, to: NodeId, i: f64) {
        if let Some(r) = self.node_row(from) {
            self.z[r] -= i;
        }
        if let Some(r) = self.node_row(to) {
            self.z[r] += i;
        }
    }

    /// Stamps a raw matrix entry coupling the KCL row of `row_node` to the
    /// voltage of `col_node` (used for transconductances).
    pub(crate) fn add_entry(&mut self, row_node: NodeId, col_node: NodeId, v: f64) {
        if let (Some(r), Some(c)) = (self.node_row(row_node), self.node_row(col_node)) {
            self.a.add_at(r, c, v);
        }
    }

    /// Stamps an ideal voltage source `v(plus) - v(minus) = e` on branch
    /// `k`.
    pub(crate) fn add_vsource(&mut self, k: usize, plus: NodeId, minus: NodeId, e: f64) {
        let br = self.branch_row(k);
        if let Some(r) = self.node_row(plus) {
            self.a.add_at(r, br, 1.0);
            self.a.add_at(br, r, 1.0);
        }
        if let Some(r) = self.node_row(minus) {
            self.a.add_at(r, br, -1.0);
            self.a.add_at(br, r, -1.0);
        }
        self.z[br] += e;
    }

    /// Adds `gmin` from every node to ground (diagonal loading), keeping
    /// the matrix nonsingular when all devices at a node are cut off.
    pub(crate) fn add_gmin_loading(&mut self, gmin: f64) {
        for i in 0..self.n_nodes - 1 {
            self.a.add_at(i, i, gmin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use obd_linalg::solve;

    #[test]
    fn conductance_stamp_symmetric() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut st = Stamp::new(c.num_nodes(), 0);
        st.add_conductance(a, b, 2.0);
        assert_eq!(st.a[(0, 0)], 2.0);
        assert_eq!(st.a[(1, 1)], 2.0);
        assert_eq!(st.a[(0, 1)], -2.0);
        assert_eq!(st.a[(1, 0)], -2.0);
    }

    #[test]
    fn ground_terms_are_dropped() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mut st = Stamp::new(c.num_nodes(), 0);
        st.add_conductance(a, Circuit::GROUND, 3.0);
        assert_eq!(st.a[(0, 0)], 3.0);
        st.add_current(a, Circuit::GROUND, 1.5);
        assert_eq!(st.z[0], -1.5);
    }

    /// Hand-assembled voltage divider: V=2V across R1=1k into R2=1k.
    #[test]
    fn divider_solves_to_half_supply() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        let mut st = Stamp::new(c.num_nodes(), 1);
        let g = 1.0 / 1000.0;
        st.add_conductance(vin, mid, g);
        st.add_conductance(mid, Circuit::GROUND, g);
        st.add_vsource(0, vin, Circuit::GROUND, 2.0);
        let x = solve(&st.a, &st.z).unwrap();
        assert!((st.voltage(&x, mid) - 1.0).abs() < 1e-12);
        // Branch current: 2V across 2k total = 1 mA flowing out of the
        // source's plus terminal (negative in the MNA convention).
        assert!((x[st.branch_row(0)] + 1e-3).abs() < 1e-12);
    }

    #[test]
    fn gmin_loading_hits_every_node_diagonal() {
        let mut c = Circuit::new();
        c.node("a");
        c.node("b");
        let mut st = Stamp::new(c.num_nodes(), 0);
        st.add_gmin_loading(1e-12);
        assert_eq!(st.a[(0, 0)], 1e-12);
        assert_eq!(st.a[(1, 1)], 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mut st = Stamp::new(c.num_nodes(), 0);
        st.add_conductance(a, Circuit::GROUND, 1.0);
        st.add_current(Circuit::GROUND, a, 1.0);
        st.clear();
        assert_eq!(st.a.norm_inf(), 0.0);
        assert_eq!(st.z[0], 0.0);
    }
}
