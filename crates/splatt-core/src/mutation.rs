//! Mutation test over the model files `splatt serve`, `predict`,
//! `export-model`, `ModelRegistry::publish_path` and the refresh warm
//! start load: a bit-exact model through [`load_model`], a text model
//! through [`KruskalModel::read`], a checkpoint through
//! [`Checkpoint::read`], and all three — bare or CRC-framed — through the
//! format sniffing of [`load_model_path`] ([`load_model_bytes`]). The
//! model slice of the harness `splatt-store/src/mutation.rs` runs over
//! the store's decoders.
//!
//! Start from a valid encoding (a model drawn by `splatt_rt::qc`) and
//! take its [`Gen::byte_mutants`] — truncations, inversions, bit flips,
//! drawn overwrites, an appended byte (the formats are text: there are
//! no binary integer fields). For every mutant:
//!
//! - no panic and no abort (`qc::check` turns a panic into a failure
//!   naming the seed);
//! - the decoder returns a typed error (`InvalidData`, or a checkpoint's
//!   `Parse`) or a well-formed model — every factor `rank` columns wide —
//!   that encodes and decodes back to the same bits;
//! - no call requests more heap than a stated multiple of the bytes
//!   present ([`splatt_probe::alloc::CountingAlloc`], per thread): no
//!   count read from a header is reserved on its word.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::dense::Matrix;
use crate::kruskal::KruskalModel;
use crate::model_file::{load_model, load_model_bytes, save_model};
use splatt_probe::alloc::heap_of;
use splatt_rt::qc::{self, Gen};
use splatt_store::{encode_frame_into, ARTIFACT_MAGIC};
use std::io::ErrorKind;
use std::path::Path;

/// Heap a decoder may request per byte present. The worst line is an
/// empty one (a rank-0 model's rows): one byte of input, an 8-byte
/// minimum `String` for it. A header line's token vector (4 slots of
/// 16 B for ≥ 11 bytes) and a value line's `String`, value vector and
/// growth of the factor buffer stay below that.
const HEAP_FACTOR: u64 = 8;
/// … plus this much for what does not scale: the 8 KiB `BufReader`
/// buffer, the capped reservations of one order (256 `Matrix` slots of
/// 40 B) and of one factor (256 `f64`), an error's message, and — through
/// the sniffing — a copy of the bytes and the lossy first line.
const HEAP_SLACK: u64 = 24 << 10;

fn within_budget(what: &str, heap: u64, m: &[u8]) {
    assert!(
        heap <= HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "{what} asked for {heap} B for {} B: {:?}",
        m.len(),
        String::from_utf8_lossy(m)
    );
}

type Bits = (Vec<u64>, Vec<(usize, usize, Vec<u64>)>);

/// A model's shape and values as bits — NaNs included, which no value
/// equals. Asserts the model is well formed: every factor `rank` wide.
fn bits(model: &KruskalModel) -> Bits {
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let factors = model
        .factors
        .iter()
        .map(|f| {
            assert_eq!(f.cols(), model.rank(), "a factor is not rank wide");
            (f.rows(), f.cols(), to_bits(f.as_slice()))
        })
        .collect();
    (to_bits(&model.lambda), factors)
}

fn assert_invalid_data(what: &str, e: &std::io::Error) {
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
}

fn check_model_mutant(m: &[u8]) -> std::io::Result<Bits> {
    let (decoded, heap) = heap_of(|| load_model(m));
    within_budget("load_model", heap, m);
    let model = decoded.inspect_err(|e| assert_invalid_data("load_model", e))?;
    let mut again = Vec::new();
    save_model(&model, &mut again).expect("encode to memory");
    let back = load_model(again.as_slice()).expect("a decoded model re-encodes");
    assert_eq!(bits(&back), bits(&model), "encode then decode moved bits");
    Ok(bits(&model))
}

fn check_kruskal_mutant(m: &[u8]) -> std::io::Result<Bits> {
    let (decoded, heap) = heap_of(|| KruskalModel::read(m));
    within_budget("KruskalModel::read", heap, m);
    let model = decoded.inspect_err(|e| assert_invalid_data("KruskalModel::read", e))?;
    let mut again = Vec::new();
    model.write(&mut again).expect("encode to memory");
    let back = KruskalModel::read(again.as_slice()).expect("a decoded model re-encodes");
    assert_eq!(bits(&back), bits(&model), "encode then decode moved bits");
    Ok(bits(&model))
}

fn check_checkpoint_mutant(m: &[u8]) -> Result<Bits, CheckpointError> {
    let (decoded, heap) = heap_of(|| Checkpoint::read(m));
    within_budget("Checkpoint::read", heap, m);
    let ckpt = decoded.inspect_err(|e| match e {
        CheckpointError::Parse { .. } => {}
        CheckpointError::Io(io) => assert_invalid_data("Checkpoint::read", io),
        other => panic!("Checkpoint::read: untyped {other}"),
    })?;
    let mut again = Vec::new();
    ckpt.write(&mut again).expect("encode to memory");
    let back = Checkpoint::read(again.as_slice()).expect("a decoded checkpoint re-encodes");
    assert_eq!(back.iteration, ckpt.iteration);
    let fits = |c: &Checkpoint| c.fits.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        fits(&back),
        fits(&ckpt),
        "encode then decode moved fit bits"
    );
    let model = crate::model_file::model_from_checkpoint(ckpt);
    assert_eq!(
        bits(&crate::model_file::model_from_checkpoint(back)),
        bits(&model),
        "encode then decode moved bits"
    );
    Ok(bits(&model))
}

fn check_sniffed_mutant(m: &[u8]) -> std::io::Result<Bits> {
    let (decoded, heap) = heap_of(|| load_model_bytes(m.to_vec(), Path::new("m.model")));
    within_budget("load_model_path", heap, m);
    let model = decoded.inspect_err(|e| assert_invalid_data("load_model_path", e))?;
    // whatever format it came in, the served form is the bit-exact one
    let mut again = Vec::new();
    save_model(&model, &mut again).expect("encode to memory");
    assert_eq!(check_model_mutant(&again)?, bits(&model));
    Ok(bits(&model))
}

/// A drawn value or one at the edges of what the formats carry.
fn value(g: &mut Gen) -> f64 {
    let drawn = g.f64_in(-4.0, 4.0);
    *g.choose(&[
        drawn,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
    ])
}

/// A valid model: rank 0 (the heap bound's worst case) to 3, order 0 to
/// 3, factors of 0, 1, 3 or 8 rows.
fn model_of(g: &mut Gen) -> KruskalModel {
    let rank = g.range(0..4usize);
    let lambda = (0..rank).map(|_| value(g)).collect();
    let factors = (0..g.range(0..4usize))
        .map(|_| {
            let rows = *g.choose(&[0usize, 1, 3, 8]);
            Matrix::from_vec(rows, rank, (0..rows * rank).map(|_| value(g)).collect())
        })
        .collect();
    KruskalModel { lambda, factors }
}

#[test]
fn mutated_model_files_decode_typed_bounded_and_never_panic() {
    qc::check("model file mutants", 48, |g| {
        let model = model_of(g);
        let want = bits(&model);

        let mut exact = Vec::new();
        save_model(&model, &mut exact).expect("encode to memory");
        let mut text = Vec::new();
        model.write(&mut text).expect("encode to memory");
        let mut ckpt = Vec::new();
        let iteration = g.range(0..4usize);
        Checkpoint {
            iteration,
            lambda: model.lambda.clone(),
            fits: (0..iteration).map(|_| value(g)).collect(),
            factors: model.factors.clone(),
        }
        .write(&mut ckpt)
        .expect("encode to memory");

        // The unmutated encodings decode to the model, bit for bit.
        assert_eq!(check_model_mutant(&exact).expect("bit-exact"), want);
        assert_eq!(check_kruskal_mutant(&text).expect("text"), want);
        assert_eq!(check_checkpoint_mutant(&ckpt).expect("checkpoint"), want);

        // A mutant that decodes is another model (a flipped digit, a
        // dropped final newline), typed in every other case.
        for m in g.byte_mutants(&exact, &[]) {
            let _ = check_model_mutant(&m);
        }
        for m in g.byte_mutants(&text, &[]) {
            let _ = check_kruskal_mutant(&m);
        }
        for m in g.byte_mutants(&ckpt, &[]) {
            let _ = check_checkpoint_mutant(&m);
        }

        // The sniffing sees all three bare, and the bit-exact one framed
        // as `save_model_path` writes it (file magic, magic, generation,
        // length, CRC): a damaged frame never reaches a parser.
        let payload = g.choose(&[&exact, &text, &ckpt]).to_vec();
        for m in g.byte_mutants(&payload, &[]) {
            let _ = check_sniffed_mutant(&m);
        }
        let mut framed = ARTIFACT_MAGIC.to_vec();
        encode_frame_into(&mut framed, 1, &exact);
        let fields = [(0, 8), (8, 4), (12, 8), (20, 4), (24, 4)];
        for m in g.byte_mutants(&framed, &fields) {
            if let Ok(got) = check_sniffed_mutant(&m) {
                assert_eq!(m, framed, "a damaged frame parsed");
                assert_eq!(got, want);
            }
        }
    });
}

#[test]
fn crafted_counts_are_typed_errors_not_aborts() {
    // Each claims 10^11 of something on a few dozen bytes: a reservation
    // on that word is a 4 TB (orders) or 800 GB (rows) abort.
    let model = b"splatt-model-v1 rank 1 order 100000000000\n3ff0000000000000\n";
    let text = b"splatt-kruskal 1 1\n1.0\nmode 100000000000 1\n";
    let ckpt = b"splatt-checkpoint-v1 iteration 0 rank 1 order 100000000000 fits 0\n\
                 3ff0000000000000\n\n";
    let rows = b"splatt-model-v1 rank 1 order 1\n3ff0000000000000\nfactor 100000000000 1\n";
    assert!(check_model_mutant(model).is_err());
    assert!(check_model_mutant(rows).is_err());
    assert!(check_kruskal_mutant(text).is_err());
    assert!(matches!(
        check_checkpoint_mutant(ckpt),
        Err(CheckpointError::Parse { .. })
    ));
    for m in [&model[..], text, ckpt, rows] {
        assert!(check_sniffed_mutant(m).is_err());
    }
}
