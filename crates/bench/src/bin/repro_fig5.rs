//! Reproduces **Figure 5** (a–h): SRDA's test error as a function of the
//! regularization parameter, plotted as α/(1+α) ∈ [0, 1], against the
//! constant LDA and IDR/QR reference lines.
//!
//! Paper panels: PIE (10, 30 train), Isolet (50, 90), MNIST (30, 100),
//! 20Newsgroups (5%, 10%). The paper's conclusion — SRDA beats both
//! references over a broad range of α, so parameter selection "is not a
//! very crucial problem" — should be visible as a wide flat valley.

use srda::{SrdaConfig, SrdaSolver};
use srda_bench::driver::{env_scale, env_splits};
use srda_bench::report::render_table;
use srda_data::{per_class_split, ratio_split};
use srda_eval::{run_dense, run_sparse, Aggregate, Algo};

fn alpha_axis() -> Vec<f64> {
    // α/(1+α) ∈ {0.1, …, 0.9}  ⇒  α = r/(1−r)
    (1..=9)
        .map(|i| {
            let r = i as f64 / 10.0;
            r / (1.0 - r)
        })
        .collect()
}

fn dense_panel(name: &str, data: &srda_data::DenseDataset, l: usize, splits: usize) {
    let alphas = alpha_axis();
    let mut rows = Vec::new();

    // reference lines: LDA and IDR/QR at their default settings
    let ref_err = |algo: &Algo| {
        let vals: Vec<f64> = (0..splits)
            .filter_map(|s| {
                let sp = per_class_split(&data.labels, l, s as u64);
                let tr = data.select(&sp.train);
                let te = data.select(&sp.test);
                run_dense(
                    algo,
                    &tr.x,
                    &tr.labels,
                    &te.x,
                    &te.labels,
                    data.n_classes,
                    None,
                )
                .error_rate
            })
            .collect();
        Aggregate::from_values(&vals).mean * 100.0
    };
    let lda_err = ref_err(&Algo::Lda);
    let idr_err = ref_err(&Algo::IdrQr { lambda: 1.0 });

    for &alpha in &alphas {
        let cfg = SrdaConfig {
            alpha,
            solver: SrdaSolver::NormalEquations,
            memory_budget_bytes: None,
            ..SrdaConfig::default()
        };
        let vals: Vec<f64> = (0..splits)
            .filter_map(|s| {
                let sp = per_class_split(&data.labels, l, s as u64);
                let tr = data.select(&sp.train);
                let te = data.select(&sp.test);
                run_dense(
                    &Algo::Srda(cfg.clone()),
                    &tr.x,
                    &tr.labels,
                    &te.x,
                    &te.labels,
                    data.n_classes,
                    None,
                )
                .error_rate
            })
            .collect();
        let agg = Aggregate::from_values(&vals);
        rows.push(vec![
            format!("{:.1}", alpha / (1.0 + alpha)),
            format!("{:.2}", agg.mean * 100.0),
            format!("{lda_err:.2}"),
            format!("{idr_err:.2}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!("Fig 5 panel [{name}, {l} train/class] (error %)"),
            &["a/(1+a)", "SRDA", "LDA", "IDR/QR"],
            &rows
        )
    );
}

fn sparse_panel(name: &str, data: &srda_data::SparseDataset, frac: f64, splits: usize) {
    let alphas = alpha_axis();
    let mut rows = Vec::new();
    for &alpha in &alphas {
        let cfg = SrdaConfig {
            alpha,
            solver: SrdaSolver::Lsqr {
                max_iter: 15,
                tol: 0.0,
            },
            memory_budget_bytes: None,
            ..SrdaConfig::default()
        };
        let vals: Vec<f64> = (0..splits)
            .filter_map(|s| {
                let sp = ratio_split(&data.labels, frac, s as u64);
                let tr = data.select(&sp.train);
                let te = data.select(&sp.test);
                run_sparse(
                    &Algo::Srda(cfg.clone()),
                    &tr.x,
                    &tr.labels,
                    &te.x,
                    &te.labels,
                    data.n_classes,
                    None,
                )
                .error_rate
            })
            .collect();
        let agg = Aggregate::from_values(&vals);
        rows.push(vec![
            format!("{:.1}", alpha / (1.0 + alpha)),
            format!("{:.2}", agg.mean * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!("Fig 5 panel [{name}, {:.0}% train] (error %)", frac * 100.0),
            &["a/(1+a)", "SRDA"],
            &rows
        )
    );
}

fn main() {
    let scale = env_scale();
    let splits = env_splits();

    let pie = srda_data::pie_like(scale, 42);
    let pie_per = pie.x.nrows() / pie.n_classes;
    for l in [10, 30] {
        let l = ((l as f64 * scale).round() as usize).clamp(2, pie_per.saturating_sub(2));
        dense_panel("PIE-like", &pie, l, splits);
    }

    let isolet = srda_data::isolet_like(scale, 42);
    let iso_per = isolet.x.nrows() / isolet.n_classes;
    for l in [50, 90] {
        let l = ((l as f64 * scale).round() as usize).clamp(2, iso_per.saturating_sub(2));
        dense_panel("Isolet-like", &isolet, l, splits);
    }

    let mnist = srda_data::mnist_like(scale, 42);
    let mn_per = mnist.x.nrows() / mnist.n_classes;
    for l in [30, 100] {
        let l = ((l as f64 * scale).round() as usize).clamp(2, mn_per.saturating_sub(2));
        dense_panel("MNIST-like", &mnist, l, splits);
    }

    let news = srda_data::newsgroups_like(scale, 42);
    for frac in [0.05, 0.10] {
        sparse_panel("20NG-like", &news, frac, splits);
    }
}
