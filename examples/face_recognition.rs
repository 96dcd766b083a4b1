//! Face recognition, the paper's motivating application: compare all four
//! algorithms (LDA, RLDA, SRDA, IDR/QR) on a PIE-like dataset at one
//! training size — a single row of the paper's Tables III & IV.
//!
//! Run with: `cargo run --release --example face_recognition`

use srda::SrdaConfig;
use srda_data::{per_class_split, pie_like};
use srda_eval::{run_dense, Algo};

fn main() {
    let data = pie_like(0.12, 11); // 68 subjects, 1024 "pixels"
    let l = 10; // training images per subject
    println!(
        "PIE-like: {} subjects, {} features, {} images each; {} train/subject\n",
        data.n_classes,
        data.x.ncols(),
        data.x.nrows() / data.n_classes,
        l
    );

    let split = per_class_split(&data.labels, l, 3);
    let train = data.select(&split.train);
    let test = data.select(&split.test);

    println!(
        "{:8} {:>9} {:>10} {:>14}",
        "method", "error %", "train s", "train Gflam"
    );
    for algo in [
        Algo::Lda,
        Algo::Rlda { alpha: 1.0 },
        Algo::Srda(SrdaConfig::default()),
        Algo::IdrQr { lambda: 1.0 },
    ] {
        let out = run_dense(
            &algo,
            &train.x,
            &train.labels,
            &test.x,
            &test.labels,
            data.n_classes,
            None,
        );
        println!(
            "{:8} {:>9.2} {:>10.3} {:>14.3}",
            algo.name(),
            out.error_rate.unwrap() * 100.0,
            out.train_secs.unwrap(),
            out.train_flam.unwrap() as f64 / 1e9,
        );
    }

    println!("\nexpected shape (paper Tables III/IV): SRDA ≈ RLDA < IDR/QR < LDA in error;");
    println!("SRDA much faster than LDA/RLDA, IDR/QR fastest.");
}
