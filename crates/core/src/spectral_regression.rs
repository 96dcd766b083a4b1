//! The general Spectral Regression framework — the paper's closing
//! generalization (§III: "constructing the graph matrix W in the
//! unsupervised or semi-supervised way", pointing at the authors'
//! companion SR papers).
//!
//! The recipe is the same two steps as SRDA, with an arbitrary affinity
//! graph in place of the class graph:
//!
//! 1. **Spectral step** — compute the top eigenvectors of the normalized
//!    affinity `D^{-1/2} W D^{-1/2}` (equivalently, of the random-walk
//!    eigenproblem `W y = λ D y` after rescaling), discarding the trivial
//!    `D^{1/2}·1` eigenvector.
//! 2. **Regression step** — fit each eigenvector with bias-augmented
//!    ridge regression exactly as SRDA does.
//!
//! With [`crate::graph::AffinityGraph::supervised`] this *is* SRDA (the
//! closed-form responses are just the known eigenvectors of that graph —
//! verified in the tests); with a k-NN graph it is the unsupervised
//! spectral embedding + regression of the SR-LPP line of work; with a
//! mixed graph it is semi-supervised discriminant analysis.

use crate::graph::AffinityGraph;
use crate::model::Embedding;
use crate::srda::Design;
use crate::{Result, Srda, SrdaConfig, SrdaError, SrdaSolver};
use srda_linalg::{ExecPolicy, Mat, SymmetricEigen};
use srda_obs::Recorder;
use srda_solvers::{AugmentedOp, ExecDense};

/// Configuration for the generic spectral-regression estimator.
#[derive(Debug, Clone)]
pub struct SpectralRegressionConfig {
    /// Number of embedding dimensions to extract (eigenvectors after the
    /// trivial one).
    pub n_components: usize,
    /// Ridge parameter for the regression step.
    pub alpha: f64,
    /// Use LSQR (with this iteration budget) instead of normal equations.
    pub lsqr_iterations: Option<usize>,
    /// Execution backend for the regression step's products (defaults to
    /// [`ExecPolicy::from_env`]).
    pub exec: ExecPolicy,
    /// Optional run governor, probed before the spectral step, before
    /// every factorization of the regression step and inside its LSQR
    /// loop. Interrupts surface as
    /// [`SrdaError::Interrupted`] with no checkpoint — the spectral step
    /// is not resumable.
    pub governor: Option<srda_solvers::RunGovernor>,
    /// Observability sink (spans + kernel-dispatch counters); defaults to
    /// [`Recorder::from_env`], so `SRDA_TRACE=1` instruments the fit.
    pub recorder: Recorder,
}

impl Default for SpectralRegressionConfig {
    fn default() -> Self {
        SpectralRegressionConfig {
            n_components: 2,
            alpha: 1.0,
            lsqr_iterations: None,
            exec: ExecPolicy::from_env(),
            governor: None,
            recorder: Recorder::from_env(),
        }
    }
}

/// Generic spectral regression over an arbitrary affinity graph.
#[derive(Debug, Clone, Default)]
pub struct SpectralRegression {
    config: SpectralRegressionConfig,
}

impl SpectralRegression {
    /// Create an estimator with the given configuration.
    pub fn new(config: SpectralRegressionConfig) -> Self {
        SpectralRegression { config }
    }

    /// Compute the response vectors (step 1) for `graph`: the top
    /// non-trivial eigenvectors of `D^{-1/2} W D^{-1/2}`, mapped back to
    /// the random-walk scaling (`D^{-1/2}·u`) so that, like SRDA's
    /// responses, they solve `W y = λ D y`.
    ///
    /// Returns an `m × k` matrix with `k ≤ n_components` (fewer if the
    /// graph has fewer informative eigenvectors).
    pub fn responses(&self, graph: &AffinityGraph) -> Result<Mat> {
        let m = graph.n_nodes();
        if m == 0 {
            return Err(SrdaError::InvalidLabels {
                context: "empty graph".into(),
            });
        }
        let d = graph.degrees();
        let inv_sqrt: Vec<f64> = d
            .iter()
            .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
            .collect();

        // eigenvector columns of D^{-1/2} W D^{-1/2}, by the dense
        // symmetric eigensolver: O(m³), exact, fine up to a few thousand
        // samples
        let eig = SymmetricEigen::factor(&graph.normalized_dense())?;
        let eigenvectors = (0..m).map(|idx| eig.vectors.col(idx));

        // the trivial eigenvector is D^{1/2}·1 (eigenvalue = spectral max
        // for a connected graph). Deflate by orthogonality instead of
        // assuming it is exactly the first: build the normalized trivial
        // direction and skip eigenvectors nearly parallel to it.
        let mut trivial: Vec<f64> = d.iter().map(|&x| x.sqrt()).collect();
        srda_linalg::vector::normalize(&mut trivial);

        // When the leading eigenvalue is repeated (exactly the situation
        // in the supervised class graph, where eigenvalue 1 has
        // multiplicity c) the eigensolver returns an arbitrary basis of
        // the eigenspace, with the trivial direction mixed in. Deflate by
        // Gram-Schmidt: orthogonalize every candidate against the trivial
        // direction and against already-accepted responses, dropping
        // candidates that collapse to ~0.
        let mut accepted: Vec<Vec<f64>> = vec![trivial];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for u_raw in eigenvectors {
            if cols.len() >= self.config.n_components {
                break;
            }
            let mut u = u_raw;
            if srda_linalg::gram_schmidt::orthogonalize_against(&accepted, &mut u, 1e-6)
                == srda_linalg::gram_schmidt::GsOutcome::Dependent
            {
                continue;
            }
            accepted.push(u.clone());
            // map back: y = D^{-1/2} u
            let y: Vec<f64> = u.iter().zip(&inv_sqrt).map(|(a, b)| a * b).collect();
            cols.push(y);
        }
        let mut out = Mat::zeros(m, cols.len());
        for (j, cvec) in cols.iter().enumerate() {
            out.set_col(j, cvec);
        }
        Ok(out)
    }

    /// Fit on dense data with the given graph (the graph must be over the
    /// same `m` samples, in the same order). The regression step is
    /// SRDA's own fit of the graph's responses, ridge ladder and
    /// certificates included.
    pub fn fit_dense(&self, x: &Mat, graph: &AffinityGraph) -> Result<Embedding> {
        let srda = Srda::new(SrdaConfig {
            alpha: self.config.alpha,
            solver: match self.config.lsqr_iterations {
                None => SrdaSolver::NormalEquations,
                Some(max_iter) => SrdaSolver::Lsqr { max_iter, tol: 0.0 },
            },
            exec: self.config.exec,
            governor: self.config.governor.clone(),
            recorder: self.config.recorder,
            ..SrdaConfig::default()
        });
        let outcome = srda.instrumented_fit(|| {
            if x.nrows() != graph.n_nodes() {
                return Err(SrdaError::ShapeMismatch {
                    op: "spectral_regression fit_dense",
                    expected: graph.n_nodes(),
                    got: x.nrows(),
                });
            }
            crate::error::check_governor(self.config.governor.as_ref())?;
            let prepare = srda_obs::span!(self.config.recorder, "fit/prepare");
            let ybar = self.responses(graph)?;
            prepare.finish();
            // no checkpoint, so no labels; only the embedding is kept
            let op = ExecDense::new(x, srda.executor());
            srda.fit_responses(Design::Dense(x), &AugmentedOp::new(&op), &ybar, &[])
        })?;
        Ok(outcome.into_model()?.embedding().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeWeight;
    use crate::{ClassIndex, Srda, SrdaConfig};

    fn blobs() -> (Mat, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for k in 0..3usize {
            for s in 0..6 {
                let noise = |d: usize| {
                    let h = ((k * 31 + s * 7 + d * 13) as f64 * 12.9898).sin() * 43758.5453;
                    (h - h.floor() - 0.5) * 0.2
                };
                rows.push(
                    (0..5)
                        .map(|d| if d == k { 4.0 } else { 0.0 } + noise(d))
                        .collect::<Vec<_>>(),
                );
                y.push(k);
            }
        }
        (Mat::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn supervised_graph_responses_match_srda_span() {
        // the SR responses on the class graph must span the same space as
        // SRDA's closed-form responses (both are bases of the eigenvalue-1
        // eigenspace of W, orthogonal to 1)
        let (_, y) = blobs();
        let graph = AffinityGraph::supervised(&y);
        let sr = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            ..Default::default()
        });
        let r_sr = sr.responses(&graph).unwrap();
        assert_eq!(r_sr.ncols(), 2);

        let index = ClassIndex::new(&y).unwrap();
        let r_srda = crate::responses::generate(&index);

        // both span: check each SR response lies in the SRDA span
        let basis: Vec<Vec<f64>> = (0..r_srda.ncols()).map(|j| r_srda.col(j)).collect();
        for j in 0..2 {
            let mut v = r_sr.col(j);
            srda_linalg::vector::normalize(&mut v);
            let proj: f64 = basis
                .iter()
                .map(|b| srda_linalg::vector::dot(b, &v).powi(2))
                .sum();
            assert!(proj > 1.0 - 1e-8, "response {j}: proj {proj}");
        }
    }

    #[test]
    fn supervised_graph_embedding_agrees_with_srda_subspace() {
        let (x, y) = blobs();
        let graph = AffinityGraph::supervised(&y);
        let sr_emb = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            alpha: 1.0,
            lsqr_iterations: None,
            ..Default::default()
        })
        .fit_dense(&x, &graph)
        .unwrap();
        let srda_model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
        // same span of weight columns
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|j| srda_model.embedding().weights().col(j))
            .collect();
        let basis = srda_linalg::gram_schmidt::orthonormalize(&cols, 1e-12);
        for j in 0..2 {
            let mut v = sr_emb.weights().col(j);
            srda_linalg::vector::normalize(&mut v);
            let proj: f64 = basis
                .iter()
                .map(|b| srda_linalg::vector::dot(b, &v).powi(2))
                .sum();
            assert!(proj > 1.0 - 1e-6, "weight {j}: proj {proj}");
        }
    }

    #[test]
    fn unsupervised_knn_graph_separates_clusters() {
        // no labels at all: the k-NN graph's spectral embedding + ridge
        // regression should still separate well-separated blobs
        let (x, y) = blobs();
        let graph = AffinityGraph::knn(&x, 3, EdgeWeight::Heat { t: 1.0 });
        let emb = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            alpha: 0.01,
            lsqr_iterations: None,
            ..Default::default()
        })
        .fit_dense(&x, &graph)
        .unwrap();
        let z = emb.transform_dense(&x).unwrap();
        let (cent, _) = srda_linalg::stats::class_means(&z, &y, 3).unwrap();
        let mut within = 0.0f64;
        for (i, &k) in y.iter().enumerate() {
            within = within.max(srda_linalg::vector::dist2_sq(z.row(i), cent.row(k)).sqrt());
        }
        let mut min_between = f64::INFINITY;
        for a in 0..3 {
            for b in (a + 1)..3 {
                min_between =
                    min_between.min(srda_linalg::vector::dist2_sq(cent.row(a), cent.row(b)).sqrt());
            }
        }
        assert!(
            min_between > within,
            "clusters not separated: within {within}, between {min_between}"
        );
    }

    #[test]
    fn semi_supervised_beats_tiny_labeled_set() {
        // 1 labeled sample per class + unlabeled structure: the mixed
        // graph should classify the unlabeled points correctly
        let (x, y) = blobs();
        let partial: Vec<Option<usize>> = y
            .iter()
            .enumerate()
            .map(|(i, &k)| if i % 6 == 0 { Some(k) } else { None })
            .collect();
        let graph =
            AffinityGraph::semi_supervised(&x, &partial, 3, EdgeWeight::Heat { t: 1.0 }, 0.5);
        let emb = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            alpha: 0.1,
            lsqr_iterations: None,
            ..Default::default()
        })
        .fit_dense(&x, &graph)
        .unwrap();
        let z = emb.transform_dense(&x).unwrap();
        // nearest-centroid using only the labeled points' embeddings
        let labeled: Vec<usize> = (0..18).step_by(6).collect();
        let zl = z.select_rows(&labeled);
        let yl: Vec<usize> = labeled.iter().map(|&i| y[i]).collect();
        let clf = srda_eval_stub::fit_predict(&zl, &yl, &z);
        let errors = clf.iter().zip(&y).filter(|(p, t)| p != t).count();
        assert!(errors <= 2, "{errors} of 18 misclassified");
    }

    #[test]
    fn lsqr_and_direct_agree() {
        let (x, y) = blobs();
        let graph = AffinityGraph::supervised(&y);
        let direct = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            alpha: 1.0,
            lsqr_iterations: None,
            ..Default::default()
        })
        .fit_dense(&x, &graph)
        .unwrap();
        let iterative = SpectralRegression::new(SpectralRegressionConfig {
            n_components: 2,
            alpha: 1.0,
            lsqr_iterations: Some(300),
            ..Default::default()
        })
        .fit_dense(&x, &graph)
        .unwrap();
        assert!(direct.weights().approx_eq(
            iterative.weights(),
            1e-6 * direct.weights().max_abs().max(1.0)
        ));
    }

    #[test]
    fn regression_step_is_the_traced_srda_fit() {
        let (x, y) = blobs();
        let graph = AffinityGraph::supervised(&y);
        for (lsqr_iterations, stage) in [(None, "fit/certify"), (Some(20), "fit/lsqr/panel[1]")] {
            let rec = Recorder::new_enabled();
            SpectralRegression::new(SpectralRegressionConfig {
                lsqr_iterations,
                recorder: rec,
                ..Default::default()
            })
            .fit_dense(&x, &graph)
            .unwrap();
            let report = rec.snapshot();
            assert!(report.spans.iter().all(|s| s.path.starts_with("fit")));
            for path in ["fit", "fit/prepare", stage] {
                assert!(report.spans.iter().any(|s| s.path == path), "{path}");
            }
            assert!(report.counters["flam.fit"] > 0);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (x, y) = blobs();
        let graph = AffinityGraph::supervised(&y[..10]);
        assert!(SpectralRegression::default().fit_dense(&x, &graph).is_err());
    }

    /// tiny local nearest-centroid helper (srda-eval depends on this
    /// crate, so tests here cannot use it without a cycle)
    mod srda_eval_stub {
        use srda_linalg::{vector, Mat};

        pub fn fit_predict(z_train: &Mat, y_train: &[usize], z_all: &Mat) -> Vec<usize> {
            let c = y_train.iter().max().unwrap() + 1;
            let (cent, _) = srda_linalg::stats::class_means(z_train, y_train, c).unwrap();
            (0..z_all.nrows())
                .map(|i| {
                    let mut best = (f64::INFINITY, 0);
                    for k in 0..c {
                        let d = vector::dist2_sq(z_all.row(i), cent.row(k));
                        if d < best.0 {
                            best = (d, k);
                        }
                    }
                    best.1
                })
                .collect()
        }
    }
}
