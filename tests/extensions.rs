//! Integration tests for the workflows around the paper's fits:
//! incremental refits, the ingestion pipeline, IDX input and
//! cross-validated `α` selection.

use srda::{Srda, SrdaConfig, SrdaSolver};
use srda_data::ingest::{ingest_corpus, VocabularyOptions};
use srda_data::mnist_like;

#[test]
fn incremental_refit_through_growing_corpus() {
    // simulate a stream: fit on 60%, refit incrementally at 80% and 100%
    let data = srda_data::newsgroups_like(0.03, 19);
    let s60 = srda_data::ratio_split(&data.labels, 0.6, 0);
    let s80 = srda_data::ratio_split(&data.labels, 0.8, 0);
    let base = data.select(&s60.train);
    let mid = data.select(&s80.train);

    let srda = Srda::new(SrdaConfig::default());
    let m0 = Srda::new(SrdaConfig {
        solver: SrdaSolver::Lsqr {
            max_iter: 200,
            tol: 1e-8,
        },
        ..SrdaConfig::default()
    })
    .fit_sparse(&base.x, &base.labels)
    .unwrap();
    let m1 = srda
        .fit_sparse_incremental(&mid.x, &mid.labels, &m0, 200, 1e-8)
        .unwrap();
    let m2 = srda
        .fit_sparse_incremental(&data.x, &data.labels, &m1, 200, 1e-8)
        .unwrap();
    // final model matches a cold fit on the full data
    let cold = Srda::new(SrdaConfig {
        solver: SrdaSolver::Lsqr {
            max_iter: 200,
            tol: 1e-8,
        },
        ..SrdaConfig::default()
    })
    .fit_sparse(&data.x, &data.labels)
    .unwrap();
    let diff = m2
        .embedding()
        .weights()
        .sub(cold.embedding().weights())
        .unwrap()
        .max_abs();
    assert!(diff < 1e-4, "stream drifted from cold fit by {diff}");
}

#[test]
fn ingestion_to_classification_pipeline() {
    // raw strings -> vocabulary -> tf matrix -> SRDA -> predictions
    let texts: Vec<String> = (0..30)
        .map(|i| match i % 3 {
            0 => format!("goalkeeper striker midfield football match {i}"),
            1 => format!("parliament election senate vote legislation {i}"),
            _ => format!("telescope galaxy nebula astronomy orbit {i}"),
        })
        .collect();
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let (x, vocab) = ingest_corpus(&refs, &VocabularyOptions::default(), true);
    assert!(vocab.len() >= 12);
    let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
    let model = Srda::new(SrdaConfig::lsqr_default())
        .fit_sparse(&x, &labels)
        .unwrap();
    let z = model.embedding().transform_sparse(&x).unwrap();
    let err = srda_eval::nearest_centroid_error_rate(&z, &labels, &z, &labels, 3);
    assert_eq!(err, 0.0, "clean topics must classify perfectly");
}

#[test]
fn idx_roundtrip_feeds_the_pipeline() {
    // encode a small dense dataset as IDX bytes, decode, train
    let data = mnist_like(0.03, 23);
    let m = data.x.nrows();
    let bytes_img = srda_data::idx::encode_idx(&srda_data::idx::IdxTensor {
        shape: vec![m, 28, 28],
        data: data
            .x
            .as_slice()
            .iter()
            .map(|&v| (v * 255.0).round() as u8)
            .collect(),
    });
    let bytes_lbl = srda_data::idx::encode_idx(&srda_data::idx::IdxTensor {
        shape: vec![m],
        data: data.labels.iter().map(|&l| l as u8).collect(),
    });
    let imgs = srda_data::idx::parse_idx(&bytes_img).unwrap();
    let lbls = srda_data::idx::parse_idx(&bytes_lbl).unwrap();
    let x = srda_data::idx::images_to_mat(&imgs);
    let y = srda_data::idx::labels_to_vec(&lbls);
    assert_eq!(x.shape(), (m, 784));
    let model = Srda::new(SrdaConfig::default()).fit_dense(&x, &y).unwrap();
    assert_eq!(model.embedding().n_components(), 9);
}

#[test]
fn cross_validated_alpha_selection_runs() {
    let data = mnist_like(0.04, 29);
    let (alpha, err) =
        srda_eval::select_alpha_dense(&data.x, &data.labels, &[0.1, 1.0, 10.0], 3, 1);
    assert!([0.1, 1.0, 10.0].contains(&alpha));
    assert!((0.0..=1.0).contains(&err));
}
