//! Test-set compaction by set cover.

/// The faults some test detects; `matrix[t][f]` says whether test `t`
/// detects fault `f`.
pub(crate) fn detected_faults(matrix: &[Vec<bool>]) -> Vec<usize> {
    let n_faults = matrix.first().map_or(0, Vec::len);
    (0..n_faults)
        .filter(|&f| matrix.iter().any(|row| row[f]))
        .collect()
}

/// Greedy set cover of every detected fault: picks tests covering the
/// most still-uncovered faults first. Returns indices of the chosen
/// tests.
pub(crate) fn greedy_cover(matrix: &[Vec<bool>]) -> Vec<usize> {
    let mut uncovered = detected_faults(matrix);
    let mut chosen = Vec::new();
    let mut used = vec![false; matrix.len()];
    while !uncovered.is_empty() {
        let (best, gain) = matrix
            .iter()
            .enumerate()
            .filter(|(t, _)| !used[*t])
            .map(|(t, row)| (t, uncovered.iter().filter(|&&f| row[f]).count()))
            .max_by_key(|&(_, gain)| gain)
            .unwrap_or((usize::MAX, 0));
        if gain == 0 {
            break;
        }
        used[best] = true;
        chosen.push(best);
        uncovered.retain(|&f| !matrix[best][f]);
    }
    chosen
}

/// Exact minimal cover by branch-and-bound (for the small exhaustive
/// analyses — the §4.3 "necessary and sufficient" count). Falls back to
/// the greedy answer if the search exceeds `node_budget`.
pub(crate) fn exact_cover(matrix: &[Vec<bool>], node_budget: usize) -> Vec<usize> {
    let greedy = greedy_cover(matrix);
    let targets = detected_faults(matrix);
    if targets.is_empty() {
        return Vec::new();
    }
    // Per-fault candidate tests.
    let candidates: Vec<Vec<usize>> = targets
        .iter()
        .map(|&f| {
            (0..matrix.len())
                .filter(|&t| matrix[t][f])
                .collect::<Vec<usize>>()
        })
        .collect();

    struct Search<'m> {
        matrix: &'m [Vec<bool>],
        targets: &'m [usize],
        candidates: &'m [Vec<usize>],
        best: Vec<usize>,
        nodes: usize,
        budget: usize,
    }
    impl<'m> Search<'m> {
        fn recurse(&mut self, chosen: &mut Vec<usize>, covered: &mut Vec<bool>) {
            if self.nodes >= self.budget || chosen.len() + 1 > self.best.len() {
                // Prune: cannot improve on the incumbent.
                if chosen.len() >= self.best.len() {
                    return;
                }
            }
            self.nodes += 1;
            if self.nodes > self.budget {
                return;
            }
            // First uncovered target.
            let idx = match covered.iter().position(|&c| !c) {
                Some(i) => i,
                None => {
                    if chosen.len() < self.best.len() {
                        self.best = chosen.clone();
                    }
                    return;
                }
            };
            if chosen.len() + 1 >= self.best.len() {
                return; // even one more test cannot beat the incumbent
            }
            let cands = self.candidates[idx].clone();
            for t in cands {
                let mut newly = Vec::new();
                for (k, &f) in self.targets.iter().enumerate() {
                    if !covered[k] && self.matrix[t][f] {
                        covered[k] = true;
                        newly.push(k);
                    }
                }
                chosen.push(t);
                self.recurse(chosen, covered);
                chosen.pop();
                for k in newly {
                    covered[k] = false;
                }
            }
        }
    }

    let mut search = Search {
        matrix,
        targets: &targets,
        candidates: &candidates,
        best: greedy.clone(),
        nodes: 0,
        budget: node_budget,
    };
    let mut covered = vec![false; targets.len()];
    search.recurse(&mut Vec::new(), &mut covered);
    search.best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// faults: 0,1,2,3. tests: t0 covers {0,1}, t1 covers {1,2}, t2
    /// covers {2,3}, t3 covers {3}.
    fn matrix() -> Vec<Vec<bool>> {
        vec![
            vec![true, true, false, false],
            vec![false, true, true, false],
            vec![false, false, true, true],
            vec![false, false, false, true],
        ]
    }

    #[test]
    fn greedy_covers_everything() {
        let m = matrix();
        let chosen = greedy_cover(&m);
        // All faults covered by the chosen tests.
        #[allow(clippy::needless_range_loop)]
        for f in 0..4 {
            assert!(chosen.iter().any(|&t| m[t][f]), "fault {f}");
        }
        assert!(chosen.len() <= 3);
    }

    #[test]
    fn exact_finds_two_test_cover() {
        let m = matrix();
        let chosen = exact_cover(&m, 100_000);
        assert_eq!(chosen.len(), 2, "{chosen:?}"); // {t0, t2}
    }

    #[test]
    fn uncoverable_faults_ignored() {
        let mut m = matrix();
        for row in &mut m {
            row.push(false); // fault 4 undetectable
        }
        let chosen = exact_cover(&m, 100_000);
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn empty_matrix_is_fine() {
        assert!(greedy_cover(&[]).is_empty());
        assert!(exact_cover(&[], 10).is_empty());
    }
}
