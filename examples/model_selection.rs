//! Figure-5-style regularization sweep with machine-readable output:
//! prints a CSV of SRDA test error vs α/(1+α) across all four dataset
//! families, plus the LDA and IDR/QR reference lines for the dense ones.
//!
//! Run with: `cargo run --release --example model_selection > fig5.csv`

use srda::{SrdaConfig, SrdaSolver};
use srda_data::{per_class_split, ratio_split};
use srda_eval::{run_dense, run_sparse, Algo};

fn main() {
    println!("dataset,train,alpha_ratio,srda_err,lda_err,idr_err");

    // dense panels
    let panels: Vec<(&str, srda_data::DenseDataset, usize)> = vec![
        ("pie", srda_data::pie_like(0.1, 9), 5),
        ("isolet", srda_data::isolet_like(0.1, 9), 10),
        ("mnist", srda_data::mnist_like(0.1, 9), 15),
    ];
    for (name, data, l) in &panels {
        let split = per_class_split(&data.labels, *l, 0);
        let train = data.select(&split.train);
        let test = data.select(&split.test);
        let run = |algo: &Algo| {
            run_dense(
                algo,
                &train.x,
                &train.labels,
                &test.x,
                &test.labels,
                data.n_classes,
                None,
            )
            .error_rate
            .unwrap_or(f64::NAN)
        };
        let lda = run(&Algo::Lda);
        let idr = run(&Algo::IdrQr { lambda: 1.0 });
        for i in 1..=9 {
            let r = i as f64 / 10.0;
            let alpha = r / (1.0 - r);
            let srda_err = run(&Algo::Srda(SrdaConfig {
                alpha,
                ..SrdaConfig::default()
            }));
            println!("{name},{l},{r:.1},{:.4},{:.4},{:.4}", srda_err, lda, idr);
        }
    }

    // sparse panel (SRDA only, like the paper's 5(g)/5(h) SRDA curve)
    let news = srda_data::newsgroups_like(0.08, 9);
    let split = ratio_split(&news.labels, 0.1, 0);
    let train = news.select(&split.train);
    let test = news.select(&split.test);
    for i in 1..=9 {
        let r = i as f64 / 10.0;
        let alpha = r / (1.0 - r);
        let err = run_sparse(
            &Algo::Srda(SrdaConfig {
                alpha,
                solver: SrdaSolver::Lsqr {
                    max_iter: 15,
                    tol: 0.0,
                },
                memory_budget_bytes: None,
                ..SrdaConfig::default()
            }),
            &train.x,
            &train.labels,
            &test.x,
            &test.labels,
            news.n_classes,
            None,
        )
        .error_rate
        .unwrap_or(f64::NAN);
        println!("newsgroups,10%,{r:.1},{err:.4},,");
    }
}
