//! Per-iteration CP-ALS checkpoints with **bit-exact** round-tripping.
//!
//! A checkpoint captures the complete solver state at an iteration
//! boundary: the iteration count, the column-norm weights `lambda`, the
//! fit history, and every factor matrix. Gram matrices are *not* stored —
//! they are recomputed from the factors on resume, and since `mat_ata` is
//! deterministic the recomputed values are bit-identical to what the
//! uninterrupted run held.
//!
//! Values are serialized as IEEE-754 bit patterns (`f64::to_bits` hex),
//! not decimal text, so `resume(checkpoint(k)) ≡ run-through` holds
//! **bit for bit** — the invariant the fault-tolerance tests pin down.
//!
//! On disk, [`Checkpoint::write_to_dir`] wraps the text payload in a
//! `splatt-store` CRC-framed artifact and publishes it atomically
//! (`write temp → fsync → rename → fsync dir`), so a crash mid-save
//! leaves either the previous checkpoint or the complete new one —
//! never a parseable-but-truncated file. [`Checkpoint::read_from`]
//! verifies the frame checksum before parsing; a file without the
//! artifact magic is rejected typed, never handed to the text parser.

use crate::kruskal::with_claimed_capacity;
use splatt_dense::Matrix;
use splatt_store::StoreError;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic/format header; bump only with a format change.
pub const CHECKPOINT_HEADER: &str = "splatt-checkpoint-v1";

/// Errors produced while writing or reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed checkpoint content (line number is 1-based).
    Parse { line: usize, message: String },
    /// A structurally valid checkpoint that does not match the run it
    /// was asked to resume (wrong dims, rank, or iteration count).
    Mismatch(String),
    /// The CRC-framed container failed verification (torn file, bit
    /// flip, trailing junk) — the payload was never parsed.
    Corrupt(StoreError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint container corrupt: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => CheckpointError::Io(io),
            other => CheckpointError::Corrupt(other),
        }
    }
}

/// Complete CP-ALS state at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Number of *completed* iterations (resume starts at this index).
    pub iteration: usize,
    /// Column-norm weights after the last completed iteration.
    pub lambda: Vec<f64>,
    /// Fit after each completed iteration (`fits.len() == iteration`
    /// for checkpoints produced by the driver).
    pub fits: Vec<f64>,
    /// One factor matrix per mode.
    pub factors: Vec<Matrix>,
}

/// One line of space-separated `f64` bit patterns (16 hex digits each):
/// the value encoding of checkpoints and bit-exact model files.
pub(crate) fn hex_line<'a>(
    out: &mut impl Write,
    values: impl Iterator<Item = &'a f64>,
) -> std::io::Result<()> {
    let mut first = true;
    for v in values {
        if !first {
            write!(out, " ")?;
        }
        write!(out, "{:016x}", v.to_bits())?;
        first = false;
    }
    writeln!(out)
}

fn parse_hex_line(line: &str, lineno: usize, expect: usize) -> Result<Vec<f64>, CheckpointError> {
    let vals: Vec<f64> = line
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| CheckpointError::Parse {
                    line: lineno,
                    message: format!("invalid f64 bit pattern '{t}'"),
                })
        })
        .collect::<Result<_, _>>()?;
    if vals.len() != expect {
        return Err(CheckpointError::Parse {
            line: lineno,
            message: format!("expected {expect} values, found {}", vals.len()),
        });
    }
    Ok(vals)
}

impl Checkpoint {
    /// Decomposition rank.
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Serialize to a writer (text lines, hex bit patterns for floats).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write(&self, w: impl Write) -> Result<(), CheckpointError> {
        let mut w = BufWriter::new(w);
        writeln!(
            w,
            "{CHECKPOINT_HEADER} iteration {} rank {} order {} fits {}",
            self.iteration,
            self.rank(),
            self.order(),
            self.fits.len()
        )?;
        hex_line(&mut w, self.lambda.iter())?;
        hex_line(&mut w, self.fits.iter())?;
        for f in &self.factors {
            writeln!(w, "factor {} {}", f.rows(), f.cols())?;
            for i in 0..f.rows() {
                hex_line(&mut w, f.row(i).iter())?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Parse a checkpoint written by [`Checkpoint::write`].
    ///
    /// # Errors
    /// [`CheckpointError::Parse`] on malformed content, [`CheckpointError::Io`]
    /// on read failures.
    pub fn read(r: impl Read) -> Result<Checkpoint, CheckpointError> {
        let mut lines = BufReader::new(r).lines();
        let mut lineno = 0usize;
        let mut next = |lineno: &mut usize| -> Result<String, CheckpointError> {
            *lineno += 1;
            lines
                .next()
                .ok_or(CheckpointError::Parse {
                    line: *lineno,
                    message: "unexpected end of checkpoint".to_string(),
                })?
                .map_err(CheckpointError::Io)
        };

        let header = next(&mut lineno)?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.len() != 9
            || parts[0] != CHECKPOINT_HEADER
            || parts[1] != "iteration"
            || parts[3] != "rank"
            || parts[5] != "order"
            || parts[7] != "fits"
        {
            return Err(CheckpointError::Parse {
                line: 1,
                message: format!("missing {CHECKPOINT_HEADER} header"),
            });
        }
        let field = |s: &str, what: &str| -> Result<usize, CheckpointError> {
            s.parse().map_err(|_| CheckpointError::Parse {
                line: 1,
                message: format!("bad {what} '{s}'"),
            })
        };
        let iteration = field(parts[2], "iteration")?;
        let rank = field(parts[4], "rank")?;
        let order = field(parts[6], "order")?;
        let nfits = field(parts[8], "fit count")?;

        let lambda = parse_hex_line(&next(&mut lineno)?, lineno, rank)?;
        let fits = parse_hex_line(&next(&mut lineno)?, lineno, nfits)?;

        let mut factors = with_claimed_capacity(order);
        for _ in 0..order {
            let head = next(&mut lineno)?;
            let parts: Vec<&str> = head.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "factor" {
                return Err(CheckpointError::Parse {
                    line: lineno,
                    message: "missing factor header".to_string(),
                });
            }
            let rows: usize = parts[1].parse().map_err(|_| CheckpointError::Parse {
                line: lineno,
                message: format!("bad row count '{}'", parts[1]),
            })?;
            let cols: usize = parts[2].parse().map_err(|_| CheckpointError::Parse {
                line: lineno,
                message: format!("bad col count '{}'", parts[2]),
            })?;
            if cols != rank {
                return Err(CheckpointError::Parse {
                    line: lineno,
                    message: format!("factor has {cols} columns but rank is {rank}"),
                });
            }
            let mut data = with_claimed_capacity(rows.saturating_mul(cols));
            for _ in 0..rows {
                data.extend(parse_hex_line(&next(&mut lineno)?, lineno, cols)?);
            }
            factors.push(Matrix::from_vec(rows, cols, data));
        }
        Ok(Checkpoint {
            iteration,
            lambda,
            fits,
            factors,
        })
    }

    /// Write to `dir/ckpt-{iteration:05}.splatt`, returning the path.
    ///
    /// The text payload is wrapped in a CRC-framed artifact stamped
    /// with the iteration number and published atomically: a crash at
    /// any point leaves either the previous file or the complete new
    /// one.
    ///
    /// # Errors
    /// Propagates I/O failures (the directory is created if missing).
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("ckpt-{:05}.splatt", self.iteration));
        let mut payload = Vec::new();
        self.write(&mut payload)?;
        splatt_store::publish_artifact(&path, self.iteration as u64, &payload, None)?;
        Ok(path)
    }

    /// Read a checkpoint file from disk: a framed artifact, checksum
    /// verified before parsing.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the file is not a framed
    /// artifact or the frame fails verification; otherwise see
    /// [`Checkpoint::read`].
    pub fn read_from(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        let frame = splatt_store::unwrap_artifact(&bytes, path)?;
        Self::read(frame.payload.as_slice())
    }

    /// The highest-iteration `ckpt-*.splatt` in `dir`, if any.
    ///
    /// # Errors
    /// Propagates directory-listing failures.
    pub fn latest_in(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
        let mut best: Option<PathBuf> = None;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            if name.starts_with("ckpt-")
                && name.ends_with(".splatt")
                && best
                    .as_ref()
                    .is_none_or(|b| b.file_name().and_then(|n| n.to_str()).unwrap_or("") < name)
            {
                best = Some(path);
            }
        }
        Ok(best)
    }

    /// Validate this checkpoint against the run about to resume from it.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] naming the first discrepancy.
    pub fn validate(
        &self,
        dims: &[usize],
        rank: usize,
        max_iters: usize,
    ) -> Result<(), CheckpointError> {
        if self.rank() != rank {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint rank {} vs requested rank {rank}",
                self.rank()
            )));
        }
        if self.order() != dims.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint order {} vs tensor order {}",
                self.order(),
                dims.len()
            )));
        }
        for (m, (f, &d)) in self.factors.iter().zip(dims).enumerate() {
            if f.rows() != d {
                return Err(CheckpointError::Mismatch(format!(
                    "mode {m}: checkpoint factor has {} rows, tensor dim is {d}",
                    f.rows()
                )));
            }
        }
        if self.iteration >= max_iters {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint already at iteration {} of max_iters {max_iters}",
                self.iteration
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            iteration: 7,
            lambda: vec![1.5, -0.0, f64::MIN_POSITIVE],
            fits: vec![0.1, 0.25, 0.3, 0.999999999999, 0.5, 0.6, 0.7],
            factors: vec![
                Matrix::random(5, 3, 1),
                Matrix::random(4, 3, 2),
                Matrix::random(6, 3, 3),
            ],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = Checkpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back.iteration, ck.iteration);
        assert_eq!(
            back.lambda.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ck.lambda.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            back.fits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ck.fits.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for (a, b) in back.factors.iter().zip(&ck.factors) {
            assert_eq!(a.shape(), b.shape());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn nan_and_inf_survive_roundtrip() {
        let mut ck = sample();
        ck.lambda = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = Checkpoint::read(buf.as_slice()).unwrap();
        assert!(back.lambda[0].is_nan());
        assert_eq!(back.lambda[1], f64::INFINITY);
        assert_eq!(back.lambda[2], f64::NEG_INFINITY);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(Checkpoint::read("not a checkpoint".as_bytes()).is_err());
        assert!(Checkpoint::read("".as_bytes()).is_err());
        // truncated factor section
        let mut buf = Vec::new();
        sample().write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            Checkpoint::read(truncated.as_bytes()),
            Err(CheckpointError::Parse { .. })
        ));
        // corrupt hex
        let corrupt = text.replacen("factor", "fractal", 1);
        assert!(Checkpoint::read(corrupt.as_bytes()).is_err());
    }

    #[test]
    fn validate_catches_mismatches() {
        let ck = sample();
        assert!(ck.validate(&[5, 4, 6], 3, 20).is_ok());
        assert!(matches!(
            ck.validate(&[5, 4, 6], 4, 20),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(ck.validate(&[5, 4], 3, 20).is_err());
        assert!(ck.validate(&[5, 4, 7], 3, 20).is_err());
        assert!(
            ck.validate(&[5, 4, 6], 3, 7).is_err(),
            "iteration >= max_iters"
        );
    }

    #[test]
    fn dir_write_and_latest() {
        let dir = std::env::temp_dir().join("splatt_ckpt_unit");
        std::fs::remove_dir_all(&dir).ok();
        let mut ck = sample();
        ck.iteration = 3;
        let p3 = ck.write_to_dir(&dir).unwrap();
        ck.iteration = 11;
        let p11 = ck.write_to_dir(&dir).unwrap();
        assert!(p3.exists() && p11.exists());
        assert_eq!(Checkpoint::latest_in(&dir).unwrap(), Some(p11.clone()));
        let back = Checkpoint::read_from(&p11).unwrap();
        assert_eq!(back.iteration, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_checkpoints_are_framed_and_verified() {
        let dir = std::env::temp_dir().join("splatt_ckpt_framed_unit");
        std::fs::remove_dir_all(&dir).ok();
        let ck = sample();
        let path = ck.write_to_dir(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(splatt_store::is_framed(&bytes), "checkpoint must be framed");

        // A flip anywhere — inside the frame or in the file magic —
        // must surface as Corrupt: never a parsed checkpoint.
        for probe in [bytes.len() / 2, bytes.len() - 1] {
            let mut damaged = bytes.clone();
            damaged[probe] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            match Checkpoint::read_from(&path) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("flip at {probe}: expected Corrupt, got {other:?}"),
            }
        }
        // No artifact magic — one flipped bit of it, or the bare text
        // payload with nothing to verify — is refused at byte 0, before
        // the text parser sees anything.
        let mut magic_flip = bytes.clone();
        magic_flip[0] ^= 0x10;
        let mut bare_text = Vec::new();
        ck.write(&mut bare_text).unwrap();
        for (what, unframed) in [("magic flip", magic_flip), ("bare text", bare_text)] {
            std::fs::write(&path, &unframed).unwrap();
            match Checkpoint::read_from(&path) {
                Err(CheckpointError::Corrupt(StoreError::Corrupt {
                    offset: 0,
                    defect: splatt_store::FrameDefect::BadMagic,
                    ..
                })) => {}
                other => panic!("{what}: expected Corrupt(BadMagic), got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_factor_header_is_an_error_not_an_allocation_bomb() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Claim an absurd row count; the reader must fail at the first
        // missing line instead of reserving rows*cols floats.
        let huge = text.replacen("factor 5 3", "factor 99999999999 3", 1);
        assert!(matches!(
            Checkpoint::read(huge.as_bytes()),
            Err(CheckpointError::Parse { .. })
        ));
    }
}
