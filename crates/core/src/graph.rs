//! Affinity graphs over samples — the `W` matrices of the spectral
//! regression framework.
//!
//! The paper's §III closes by noting that SRDA "can be generalized by
//! constructing the graph matrix in the unsupervised or semi-supervised
//! way" (citing the authors' companion Spectral Regression papers). This
//! module provides those constructions:
//!
//! * [`AffinityGraph::supervised`] — the paper's block-diagonal class
//!   graph (Eqn 6): `W_ij = 1/m_k` iff `i` and `j` share class `k`.
//! * [`AffinityGraph::knn`] — an unsupervised k-nearest-neighbour graph
//!   with binary or heat-kernel weights (the LPP/Laplacianfaces graph).
//! * [`AffinityGraph::semi_supervised`] — labeled pairs get the class
//!   weight, everything else falls back to the k-NN weight.
//!
//! Graphs are stored as symmetric adjacency lists (the supervised graph is
//! dense within blocks but never materialized as an `m × m` matrix).

use srda_linalg::{vector, Mat};

/// Edge weighting for neighbourhood graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeWeight {
    /// 0/1 adjacency.
    Binary,
    /// Heat kernel `exp(−‖xᵢ − xⱼ‖² / (2t²))`.
    Heat {
        /// Kernel width `t > 0`.
        t: f64,
    },
}

/// A symmetric, non-negative affinity graph over `m` samples.
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    m: usize,
    /// Adjacency: for each node, `(neighbour, weight)` with `neighbour`
    /// strictly increasing; only entries with weight ≠ 0. Symmetric by
    /// construction.
    adj: Vec<Vec<(usize, f64)>>,
}

impl AffinityGraph {
    /// Number of nodes (samples).
    pub fn n_nodes(&self) -> usize {
        self.m
    }

    /// Neighbours of node `i` as `(index, weight)` pairs.
    pub fn neighbors(&self, i: usize) -> &[(usize, f64)] {
        &self.adj[i]
    }

    /// Total number of stored (directed) edges.
    pub fn n_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum()
    }

    /// The paper's supervised class graph (Eqn 6).
    ///
    /// ```
    /// use srda::AffinityGraph;
    ///
    /// let g = AffinityGraph::supervised(&[0, 0, 1]);
    /// // same-class pairs share weight 1/m_k; rows sum to 1
    /// assert_eq!(g.neighbors(0), &[(0, 0.5), (1, 0.5)]);
    /// assert_eq!(g.degrees(), vec![1.0, 1.0, 1.0]);
    /// ```
    pub fn supervised(labels: &[usize]) -> Self {
        let m = labels.len();
        let c = labels.iter().max().map_or(0, |&k| k + 1);
        let mut members = vec![Vec::new(); c];
        for (i, &k) in labels.iter().enumerate() {
            members[k].push(i);
        }
        let mut adj = vec![Vec::new(); m];
        for mem in &members {
            if mem.is_empty() {
                continue;
            }
            let w = 1.0 / mem.len() as f64;
            for &i in mem {
                adj[i] = mem.iter().map(|&j| (j, w)).collect();
            }
        }
        AffinityGraph { m, adj }
    }

    /// Unsupervised symmetric k-NN graph on the rows of `x`.
    ///
    /// An edge `{i, j}` exists if `j` is among the `k` nearest neighbours
    /// of `i` **or** vice versa (the usual symmetrization), weighted per
    /// `weight`.
    pub fn knn(x: &Mat, k: usize, weight: EdgeWeight) -> Self {
        let m = x.nrows();
        let k = k.min(m.saturating_sub(1));
        // brute-force neighbour search: O(m² n); fine at the scales the
        // dense eigenstep (also O(m²·)) can handle anyway
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..m {
            let mut dists: Vec<(f64, usize)> = (0..m)
                .filter(|&j| j != i)
                .map(|j| (vector::dist2_sq(x.row(i), x.row(j)), j))
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for &(d2, j) in dists.iter().take(k) {
                let w = match weight {
                    EdgeWeight::Binary => 1.0,
                    EdgeWeight::Heat { t } => (-d2 / (2.0 * t * t)).exp(),
                };
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                pairs.push((a, b, w));
            }
        }
        // dedupe symmetric duplicates, keep the max weight
        pairs.sort_by_key(|p| (p.0, p.1));
        pairs.dedup_by(|a, b| {
            if a.0 == b.0 && a.1 == b.1 {
                b.2 = b.2.max(a.2);
                true
            } else {
                false
            }
        });
        let mut adj = vec![Vec::new(); m];
        for (i, j, w) in pairs {
            adj[i].push((j, w));
            adj[j].push((i, w));
        }
        for a in &mut adj {
            a.sort_by_key(|&(j, _)| j);
        }
        AffinityGraph { m, adj }
    }

    /// Semi-supervised graph: samples with `Some(label)` are connected to
    /// all same-class labeled samples with the supervised weight; all
    /// samples additionally carry the k-NN affinity scaled by
    /// `unsupervised_weight`.
    pub fn semi_supervised(
        x: &Mat,
        labels: &[Option<usize>],
        k: usize,
        weight: EdgeWeight,
        unsupervised_weight: f64,
    ) -> Self {
        assert_eq!(x.nrows(), labels.len());
        let m = x.nrows();
        let base = AffinityGraph::knn(x, k, weight);
        // accumulate into a map-per-node
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for i in 0..m {
            adj[i] = base.adj[i]
                .iter()
                .map(|&(j, w)| (j, w * unsupervised_weight))
                .collect();
        }
        // supervised part
        let c = labels.iter().flatten().max().map_or(0, |&k2| k2 + 1);
        let mut members = vec![Vec::new(); c];
        for (i, l) in labels.iter().enumerate() {
            if let Some(k2) = l {
                members[*k2].push(i);
            }
        }
        for mem in &members {
            if mem.is_empty() {
                continue;
            }
            let w = 1.0 / mem.len() as f64;
            for &i in mem {
                for &j in mem {
                    match adj[i].binary_search_by_key(&j, |&(n, _)| n) {
                        Ok(pos) => adj[i][pos].1 += w,
                        Err(pos) => adj[i].insert(pos, (j, w)),
                    }
                }
            }
        }
        AffinityGraph { m, adj }
    }

    /// Node degrees `dᵢ = Σⱼ Wᵢⱼ`.
    pub fn degrees(&self) -> Vec<f64> {
        self.adj
            .iter()
            .map(|a| a.iter().map(|&(_, w)| w).sum())
            .collect()
    }

    /// Materialize the normalized affinity `D^{-1/2} W D^{-1/2}` as a
    /// dense symmetric matrix (for the dense eigenstep). Nodes with zero
    /// degree contribute zero rows/columns.
    pub fn normalized_dense(&self) -> Mat {
        let d = self.degrees();
        let inv_sqrt: Vec<f64> = d
            .iter()
            .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
            .collect();
        let mut w = Mat::zeros(self.m, self.m);
        for (i, a) in self.adj.iter().enumerate() {
            for &(j, wij) in a {
                w[(i, j)] = wij * inv_sqrt[i] * inv_sqrt[j];
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_matches_paper_blocks() {
        let g = AffinityGraph::supervised(&[0, 0, 1, 1, 1]);
        assert_eq!(g.n_nodes(), 5);
        // class 0: weight 1/2 among {0,1}
        assert_eq!(g.neighbors(0), &[(0, 0.5), (1, 0.5)]);
        // class 1: weight 1/3 among {2,3,4}
        assert_eq!(g.neighbors(3).len(), 3);
        assert!((g.neighbors(3)[0].1 - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn supervised_ones_vector_is_eigenvector() {
        // W·1 = 1 (each row sums to 1 in the class graph), and W·1 is the
        // degree vector
        let g = AffinityGraph::supervised(&[0, 1, 0, 2, 1]);
        for v in g.degrees() {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    fn grid_points() -> Mat {
        // two tight clusters of 3 points
        Mat::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
            vec![5.0, 5.1],
        ])
        .unwrap()
    }

    #[test]
    fn knn_graph_is_symmetric_and_local() {
        let g = AffinityGraph::knn(&grid_points(), 2, EdgeWeight::Binary);
        // symmetry
        for i in 0..6 {
            for &(j, w) in g.neighbors(i) {
                let back = g
                    .neighbors(j)
                    .iter()
                    .find(|&&(n, _)| n == i)
                    .map(|&(_, wb)| wb);
                assert_eq!(back, Some(w), "asymmetric edge ({i},{j})");
            }
        }
        // locality: no edges between the two clusters with k = 2
        for i in 0..3 {
            for &(j, _) in g.neighbors(i) {
                assert!(j < 3, "cross-cluster edge {i}->{j}");
            }
        }
    }

    #[test]
    fn heat_weights_decay_with_distance() {
        let x = Mat::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
        let g = AffinityGraph::knn(&x, 2, EdgeWeight::Heat { t: 1.0 });
        let w01 = g.neighbors(0).iter().find(|&&(j, _)| j == 1).unwrap().1;
        let w02 = g.neighbors(0).iter().find(|&&(j, _)| j == 2).unwrap().1;
        assert!(w01 > w02);
        assert!((w01 - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn degrees_sum_edge_weights() {
        let g = AffinityGraph::supervised(&[0, 0, 0]);
        assert_eq!(g.degrees(), vec![1.0; 3]);
    }

    #[test]
    fn normalized_dense_is_symmetric_with_unit_spectral_bound() {
        let g = AffinityGraph::knn(&grid_points(), 2, EdgeWeight::Heat { t: 1.0 });
        let w = g.normalized_dense();
        assert!(w.approx_eq(&w.transpose(), 1e-14));
        let eig = srda_linalg::SymmetricEigen::factor(&w).unwrap();
        assert!(eig.values[0] <= 1.0 + 1e-10, "λmax {}", eig.values[0]);
    }

    #[test]
    fn semi_supervised_combines_both_sources() {
        let x = grid_points();
        let labels = [Some(0), None, None, Some(1), None, None];
        let g = AffinityGraph::semi_supervised(&x, &labels, 1, EdgeWeight::Binary, 0.1);
        // labeled singletons get a self-edge of weight 1
        let self_edge = g
            .neighbors(0)
            .iter()
            .find(|&&(j, _)| j == 0)
            .map(|&(_, w)| w);
        assert_eq!(self_edge, Some(1.0));
        // unlabeled nodes still have (scaled) knn edges
        assert!(!g.neighbors(1).is_empty());
        for &(_, w) in g.neighbors(1) {
            assert!(w <= 0.1 + 1e-12);
        }
    }

    #[test]
    fn knn_with_oversized_k_clamps() {
        let x = Mat::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let g = AffinityGraph::knn(&x, 100, EdgeWeight::Binary);
        assert_eq!(g.neighbors(0), &[(1, 1.0)]);
    }
}
