//! Standalone, bit-exact Kruskal model files — the serving layer's
//! on-disk model format.
//!
//! A CP-ALS checkpoint ([`crate::Checkpoint`]) carries *solver* state:
//! iteration count, fit history, and the factors. Serving needs only the
//! model — `lambda` plus the factor matrices — so this module extracts
//! that payload into its own magic-tagged container. Like checkpoints,
//! values are serialized as IEEE-754 bit patterns (`f64::to_bits` hex),
//! so `load(save(m)) ≡ m` holds **bit for bit**: a model exported on one
//! machine scores identically everywhere it is served.
//!
//! [`load_model_path`] additionally sniffs the other two formats the
//! workspace produces — a full checkpoint (the model is extracted) and
//! the decimal-text `splatt-kruskal` format ([`KruskalModel::read`],
//! *not* bit-exact) — so `splatt export-model` and `splatt serve` accept
//! whatever a pipeline already has on disk.

use crate::checkpoint::{hex_line, Checkpoint};
use crate::kruskal::{with_claimed_capacity, KruskalModel};
use splatt_dense::Matrix;
use std::io::{BufRead, BufReader, BufWriter, Error, ErrorKind, Read, Write};
use std::path::Path;

/// Magic/format header; bump only with a format change.
pub const MODEL_HEADER: &str = "splatt-model-v1";

fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

fn parse_hex_line(line: &str, expect: usize) -> std::io::Result<Vec<f64>> {
    let vals: Vec<f64> = line
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| bad(format!("invalid f64 bit pattern '{t}'")))
        })
        .collect::<Result<_, _>>()?;
    if vals.len() != expect {
        return Err(bad(format!(
            "expected {expect} values, found {}",
            vals.len()
        )));
    }
    Ok(vals)
}

/// Serialize `model` in the bit-exact `splatt-model-v1` format.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_model(model: &KruskalModel, w: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "{MODEL_HEADER} rank {} order {}",
        model.rank(),
        model.order()
    )?;
    hex_line(&mut w, model.lambda.iter())?;
    for f in &model.factors {
        writeln!(w, "factor {} {}", f.rows(), f.cols())?;
        for i in 0..f.rows() {
            hex_line(&mut w, f.row(i).iter())?;
        }
    }
    w.flush()
}

/// Parse a model written by [`save_model`].
///
/// # Errors
/// Returns `InvalidData` on malformed content.
pub fn load_model(r: impl Read) -> std::io::Result<KruskalModel> {
    let mut lines = BufReader::new(r).lines();
    let mut next = || -> std::io::Result<String> {
        lines
            .next()
            .ok_or_else(|| bad("unexpected end of model file"))?
    };

    let header = next()?;
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() != 5 || parts[0] != MODEL_HEADER || parts[1] != "rank" || parts[3] != "order" {
        return Err(bad(format!("missing {MODEL_HEADER} header")));
    }
    let rank: usize = parts[2].parse().map_err(|_| bad("bad rank"))?;
    let order: usize = parts[4].parse().map_err(|_| bad("bad order"))?;

    let lambda = parse_hex_line(&next()?, rank)?;
    let mut factors = with_claimed_capacity(order);
    for _ in 0..order {
        let head = next()?;
        let parts: Vec<&str> = head.split_whitespace().collect();
        if parts.len() != 3 || parts[0] != "factor" {
            return Err(bad("missing factor header"));
        }
        let rows: usize = parts[1].parse().map_err(|_| bad("bad row count"))?;
        let cols: usize = parts[2].parse().map_err(|_| bad("bad col count"))?;
        if cols != rank {
            return Err(bad(format!("factor has {cols} columns but rank is {rank}")));
        }
        let mut data = with_claimed_capacity(rows.saturating_mul(cols));
        for _ in 0..rows {
            data.extend(parse_hex_line(&next()?, cols)?);
        }
        factors.push(Matrix::from_vec(rows, cols, data));
    }
    Ok(KruskalModel { lambda, factors })
}

/// Serialize `model` to `path` as a CRC-framed artifact published
/// atomically (`write temp → fsync → rename → fsync dir`): a crash at
/// any point leaves either the previous file or the complete new one,
/// and any later torn/flipped bytes fail the checksum instead of
/// parsing. `generation` stamps the frame (e.g. a refresh counter).
///
/// # Errors
/// Propagates I/O failures; injected-fault and corruption errors from
/// the store are converted to `InvalidData`.
pub fn save_model_path(model: &KruskalModel, path: &Path, generation: u64) -> std::io::Result<()> {
    let mut payload = Vec::new();
    save_model(model, &mut payload)?;
    splatt_store::publish_artifact(path, generation, &payload, None).map_err(std::io::Error::from)
}

/// Extract the model payload from a checkpoint: the serving layer does
/// not need the iteration count or fit history.
pub fn model_from_checkpoint(ckpt: Checkpoint) -> KruskalModel {
    KruskalModel {
        lambda: ckpt.lambda,
        factors: ckpt.factors,
    }
}

/// Load a model from any on-disk format the workspace produces, sniffed
/// by header line: `splatt-model-v1` (bit-exact), `splatt-checkpoint-v1`
/// (model extracted from the solver state), or the decimal-text
/// `splatt-kruskal` format.
///
/// # Errors
/// Returns `InvalidData` for unrecognized or malformed content and
/// propagates I/O failures.
pub fn load_model_path(path: &Path) -> std::io::Result<KruskalModel> {
    load_model_bytes(std::fs::read(path)?, path)
}

/// [`load_model_path`] on the bytes of the file at `path`.
pub(crate) fn load_model_bytes(raw: Vec<u8>, path: &Path) -> std::io::Result<KruskalModel> {
    // Framed artifacts (written by `save_model_path` / checkpoint
    // saves) are checksum-verified before any parsing; the payload is
    // then sniffed like a bare file.
    let bytes = if splatt_store::is_framed(&raw) {
        splatt_store::unwrap_artifact(&raw, path)
            .map_err(std::io::Error::from)?
            .payload
    } else {
        raw
    };
    let first_line = bytes
        .split(|&b| b == b'\n')
        .next()
        .map(String::from_utf8_lossy)
        .unwrap_or_default();
    if first_line.starts_with(MODEL_HEADER) {
        load_model(bytes.as_slice())
    } else if first_line.starts_with(crate::checkpoint::CHECKPOINT_HEADER) {
        let ckpt = Checkpoint::read(bytes.as_slice())
            .map_err(|e| bad(format!("checkpoint parse: {e}")))?;
        Ok(model_from_checkpoint(ckpt))
    } else if first_line.starts_with("splatt-kruskal") {
        KruskalModel::read(bytes.as_slice())
    } else {
        Err(bad(format!(
            "'{}' is not a splatt model, checkpoint, or kruskal file",
            path.display()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KruskalModel {
        KruskalModel {
            lambda: vec![1.5, -0.0, f64::MIN_POSITIVE],
            factors: vec![
                Matrix::random(5, 3, 1),
                Matrix::random(4, 3, 2),
                Matrix::random(6, 3, 3),
            ],
        }
    }

    fn bits(m: &KruskalModel) -> (Vec<u64>, Vec<Vec<u64>>) {
        (
            m.lambda.iter().map(|v| v.to_bits()).collect(),
            m.factors
                .iter()
                .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect(),
        )
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let model = sample();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let back = load_model(buf.as_slice()).unwrap();
        assert_eq!(bits(&back), bits(&model));
        for (a, b) in back.factors.iter().zip(&model.factors) {
            assert_eq!(a.shape(), b.shape());
        }
    }

    #[test]
    fn nan_and_inf_survive_roundtrip() {
        let mut model = sample();
        model.lambda = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let back = load_model(buf.as_slice()).unwrap();
        assert!(back.lambda[0].is_nan());
        assert_eq!(back.lambda[1], f64::INFINITY);
        assert_eq!(back.lambda[2], f64::NEG_INFINITY);
    }

    #[test]
    fn empty_and_singleton_models_roundtrip() {
        for model in [
            KruskalModel {
                lambda: vec![],
                factors: vec![Matrix::zeros(3, 0), Matrix::zeros(2, 0)],
            },
            KruskalModel {
                lambda: vec![2.0],
                factors: vec![Matrix::filled(1, 1, 0.5), Matrix::filled(1, 1, -0.25)],
            },
        ] {
            let mut buf = Vec::new();
            save_model(&model, &mut buf).unwrap();
            let back = load_model(buf.as_slice()).unwrap();
            assert_eq!(bits(&back), bits(&model));
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load_model("not a model".as_bytes()).is_err());
        assert!(load_model("".as_bytes()).is_err());
        let mut buf = Vec::new();
        save_model(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(load_model(truncated.as_bytes()).is_err());
        let corrupt = text.replacen("factor", "fractal", 1);
        assert!(load_model(corrupt.as_bytes()).is_err());
    }

    #[test]
    fn path_loader_sniffs_all_three_formats() {
        let dir = std::env::temp_dir().join("splatt_model_file_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let model = sample();

        let model_path = dir.join("m.splatt");
        save_model(&model, std::fs::File::create(&model_path).unwrap()).unwrap();
        assert_eq!(bits(&load_model_path(&model_path).unwrap()), bits(&model));

        let ckpt = Checkpoint {
            iteration: 4,
            lambda: model.lambda.clone(),
            fits: vec![0.5; 4],
            factors: model.factors.clone(),
        };
        let ckpt_path = ckpt.write_to_dir(&dir).unwrap();
        assert_eq!(bits(&load_model_path(&ckpt_path).unwrap()), bits(&model));

        let text_path = dir.join("m.kruskal");
        model
            .write(std::fs::File::create(&text_path).unwrap())
            .unwrap();
        let back = load_model_path(&text_path).unwrap();
        assert_eq!(back.rank(), model.rank());
        assert_eq!(back.order(), model.order());

        let junk_path = dir.join("junk.txt");
        std::fs::write(&junk_path, "hello world\n").unwrap();
        assert!(load_model_path(&junk_path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_save_round_trips_and_detects_damage() {
        let dir = std::env::temp_dir().join("splatt_model_framed_unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let model = sample();
        let path = dir.join("m.splatt");
        save_model_path(&model, &path, 3).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        assert!(splatt_store::is_framed(&bytes), "model must be framed");
        assert_eq!(bits(&load_model_path(&path).unwrap()), bits(&model));

        // Truncations and bit flips must be typed errors, never a
        // silently wrong model.
        for cut in [1usize, bytes.len() / 3, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_model_path(&path).is_err(), "cut at {cut}");
        }
        let mut damaged = bytes.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        assert!(load_model_path(&path).is_err(), "bit flip undetected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_factor_header_is_an_error_not_an_allocation_bomb() {
        let mut buf = Vec::new();
        save_model(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let huge = text.replacen("factor 5 3", "factor 99999999999 3", 1);
        assert!(load_model(huge.as_bytes()).is_err());
    }
}
