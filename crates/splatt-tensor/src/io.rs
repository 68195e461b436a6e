//! FROSTT-style `.tns` text I/O.
//!
//! The data sets in the paper's Table I ship as whitespace-separated text:
//! one nonzero per line, `order` 1-based coordinates followed by the value.
//! Lines starting with `#` are comments. Mode dimensions are inferred as
//! the per-mode maximum unless provided explicitly.

use crate::SparseTensor;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced while parsing a `.tns` stream.
#[derive(Debug)]
pub enum TnsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line could not be parsed; carries the 1-based line number
    /// and a description.
    Parse { line: usize, message: String },
    /// A coordinate appeared twice under [`DuplicatePolicy::Error`];
    /// carries the 1-based line of the second occurrence and the 1-based
    /// coordinate.
    Duplicate { line: usize, coord: Vec<u64> },
}

impl std::fmt::Display for TnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnsError::Io(e) => write!(f, "I/O error: {e}"),
            TnsError::Parse { line, message } => write!(f, "line {line}: {message}"),
            TnsError::Duplicate { line, coord } => {
                let c: Vec<String> = coord.iter().map(|i| i.to_string()).collect();
                write!(f, "line {line}: duplicate coordinate ({})", c.join(", "))
            }
        }
    }
}

impl std::error::Error for TnsError {}

impl From<std::io::Error> for TnsError {
    fn from(e: std::io::Error) -> Self {
        TnsError::Io(e)
    }
}

/// What `read_tns_with` does when the same coordinate appears on more
/// than one data line. FROSTT files are nominally duplicate-free, but
/// real exports (and the scaled-down synthetic generators) are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep every line as its own nonzero (the historical behavior);
    /// callers may [`SparseTensor::coalesce`] later.
    #[default]
    Keep,
    /// Merge repeated coordinates by summing their values.
    Sum,
    /// Reject the stream with [`TnsError::Duplicate`].
    Error,
}

/// Parse the shared per-line payload: `ord` 1-based coordinates (mapped
/// to 0-based `u32`) followed by a finite value.
fn parse_entry_fields(
    fields: &[&str],
    ord: usize,
    lineno: usize,
) -> Result<(Vec<u32>, f64), TnsError> {
    let mut coord = Vec::with_capacity(ord);
    for (m, f) in fields[..ord].iter().enumerate() {
        let idx: u64 = f.parse().map_err(|_| TnsError::Parse {
            line: lineno,
            message: format!("invalid index '{f}' in mode {m}"),
        })?;
        if idx == 0 || idx > u32::MAX as u64 {
            return Err(TnsError::Parse {
                line: lineno,
                message: format!("index {idx} out of range (format is 1-based)"),
            });
        }
        coord.push((idx - 1) as u32);
    }
    let v: f64 = fields[ord].parse().map_err(|_| TnsError::Parse {
        line: lineno,
        message: format!("invalid value '{}'", fields[ord]),
    })?;
    if !v.is_finite() {
        return Err(TnsError::Parse {
            line: lineno,
            message: format!("non-finite value '{}'", fields[ord]),
        });
    }
    Ok((coord, v))
}

/// Parse a `.tns` stream into raw `(coordinate, value)` entries in file
/// order, without building a tensor: the ingest path for WAL delta
/// batches, where entries must survive exactly as written (duplicates
/// preserved, order preserved) so the log replays deterministically.
/// Coordinates are returned 0-based; the same validations as
/// [`read_tns_with`] apply (consistent arity, 1-based indices that fit
/// `u32`, finite values).
///
/// Returns `(order, entries)`.
///
/// # Errors
/// See [`read_tns_with`]; an empty stream is an error.
pub(crate) fn read_tns_entries(reader: impl Read) -> Result<RawEntries, TnsError> {
    let mut reader = BufReader::new(reader);
    let mut order: Option<usize> = None;
    let mut entries: Vec<(Vec<u32>, f64)> = Vec::new();
    let mut line_buf = String::new();
    let mut lineno = 0usize;
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let ord = *order.get_or_insert_with(|| fields.len().saturating_sub(1));
        if ord < 2 {
            return Err(TnsError::Parse {
                line: lineno,
                message: format!("expected at least 3 fields, found {}", fields.len()),
            });
        }
        if fields.len() != ord + 1 {
            return Err(TnsError::Parse {
                line: lineno,
                message: format!("expected {} fields, found {}", ord + 1, fields.len()),
            });
        }
        entries.push(parse_entry_fields(&fields, ord, lineno)?);
    }
    match order {
        Some(ord) => Ok((ord, entries)),
        None => Err(TnsError::Parse {
            line: 0,
            message: "empty tensor file: cannot infer order".to_string(),
        }),
    }
}

/// Raw `.tns` content: the inferred order and every `(coords, value)`
/// entry in file order (0-based coordinates, duplicates preserved).
pub(crate) type RawEntries = (usize, Vec<(Vec<u32>, f64)>);

/// Read raw `.tns` entries from a file on disk; see `read_tns_entries`.
///
/// # Errors
/// See `read_tns_entries`.
pub fn read_tns_entries_file(path: impl AsRef<Path>) -> Result<RawEntries, TnsError> {
    read_tns_entries(std::fs::File::open(path)?)
}

/// Parse a `.tns` stream, inferring mode dimensions from the data.
/// Equivalent to `read_tns_with` under [`DuplicatePolicy::Keep`].
///
/// # Errors
/// See `read_tns_with`.
pub fn read_tns(reader: impl Read) -> Result<SparseTensor, TnsError> {
    read_tns_with(reader, DuplicatePolicy::Keep)
}

/// Parse a `.tns` stream, inferring mode dimensions from the data and
/// resolving repeated coordinates per `duplicates`.
///
/// # Errors
/// [`TnsError::Parse`] on malformed lines (wrong arity, non-numeric
/// fields, zero or `> u32::MAX` indices — the format is 1-based — and
/// non-finite values, which would silently poison a decomposition,
/// including a [`DuplicatePolicy::Sum`] that overflows: the error names
/// the line whose value did it);
/// [`TnsError::Duplicate`] on a repeated coordinate under
/// [`DuplicatePolicy::Error`]; [`TnsError::Io`] on read failures. An
/// empty stream is an error (the order cannot be inferred).
pub(crate) fn read_tns_with(
    reader: impl Read,
    duplicates: DuplicatePolicy,
) -> Result<SparseTensor, TnsError> {
    let reader = BufReader::new(reader);
    let mut order: Option<usize> = None;
    let mut inds: Vec<Vec<u32>> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    // coordinate -> entry index, maintained only when duplicates matter
    let mut seen: HashMap<Vec<u32>, usize> = HashMap::new();

    let mut line_buf = String::new();
    let mut reader = reader;
    let mut lineno = 0usize;
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let ord = *order.get_or_insert_with(|| fields.len().saturating_sub(1));
        if ord < 2 {
            return Err(TnsError::Parse {
                line: lineno,
                message: format!("expected at least 3 fields, found {}", fields.len()),
            });
        }
        if fields.len() != ord + 1 {
            return Err(TnsError::Parse {
                line: lineno,
                message: format!("expected {} fields, found {}", ord + 1, fields.len()),
            });
        }
        if inds.is_empty() {
            inds = vec![Vec::new(); ord];
            dims = vec![0; ord];
        }
        let (coord, v) = parse_entry_fields(&fields, ord, lineno)?;
        if duplicates != DuplicatePolicy::Keep {
            if let Some(&at) = seen.get(&coord) {
                match duplicates {
                    DuplicatePolicy::Sum => {
                        let sum = vals[at] + v;
                        // two finite values can overflow to infinity
                        if !sum.is_finite() {
                            return Err(TnsError::Parse {
                                line: lineno,
                                message: format!(
                                    "non-finite value {sum}: '{}' added to an earlier line's",
                                    fields[ord]
                                ),
                            });
                        }
                        vals[at] = sum;
                        continue;
                    }
                    DuplicatePolicy::Error => {
                        return Err(TnsError::Duplicate {
                            line: lineno,
                            coord: coord.iter().map(|&i| i as u64 + 1).collect(),
                        });
                    }
                    DuplicatePolicy::Keep => unreachable!(),
                }
            }
            seen.insert(coord.clone(), vals.len());
        }
        for (m, &i) in coord.iter().enumerate() {
            inds[m].push(i);
            dims[m] = dims[m].max(i as usize + 1);
        }
        vals.push(v);
    }

    if order.is_none() {
        return Err(TnsError::Parse {
            line: 0,
            message: "empty tensor file: cannot infer order".to_string(),
        });
    }
    Ok(SparseTensor::from_parts(dims, inds, vals))
}

/// Read a `.tns` file from disk.
///
/// # Errors
/// See [`read_tns`].
pub fn read_tns_file(path: impl AsRef<Path>) -> Result<SparseTensor, TnsError> {
    read_tns(std::fs::File::open(path)?)
}

/// Read a `.tns` file from disk with an explicit duplicate policy.
///
/// # Errors
/// See `read_tns_with`.
pub fn read_tns_file_with(
    path: impl AsRef<Path>,
    duplicates: DuplicatePolicy,
) -> Result<SparseTensor, TnsError> {
    read_tns_with(std::fs::File::open(path)?, duplicates)
}

/// Write a tensor as 1-based `.tns` text.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_tns(tensor: &SparseTensor, writer: impl Write) -> Result<(), std::io::Error> {
    let mut w = BufWriter::new(writer);
    for x in 0..tensor.nnz() {
        for m in 0..tensor.order() {
            write!(w, "{} ", tensor.ind(m)[x] as u64 + 1)?;
        }
        writeln!(w, "{}", tensor.vals()[x])?;
    }
    w.flush()
}

/// Write a tensor to a `.tns` file on disk.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_tns_file(tensor: &SparseTensor, path: impl AsRef<Path>) -> Result<(), std::io::Error> {
    write_tns(tensor, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "1 1 1 1.5\n2 3 4 -2.0\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.coord(1), vec![1, 2, 3]);
        assert_eq!(t.vals(), &[1.5, -2.0]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n1 1 2.0\n  # another\n2 2 3.0\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.order(), 2);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let t = SparseTensor::from_entries(
            vec![3, 4, 5],
            &[(vec![0, 1, 2], 1.25), (vec![2, 3, 4], -0.5)],
        );
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.canonical_entries(), t.canonical_entries());
    }

    #[test]
    fn inferred_dims_are_maxima() {
        let t = read_tns("5 1 1.0\n1 7 2.0\n".as_bytes()).unwrap();
        assert_eq!(t.dims(), &[5, 7]);
    }

    #[test]
    fn rejects_zero_index() {
        let err = read_tns("0 1 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_ragged_lines() {
        let err = read_tns("1 1 1 1.0\n1 1 2.0\n".as_bytes()).unwrap_err();
        match err {
            TnsError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("fields"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_value() {
        let err = read_tns("1 1 abc\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse { .. }));
    }

    #[test]
    fn rejects_empty_stream() {
        assert!(read_tns("".as_bytes()).is_err());
        assert!(read_tns("# only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_nonfinite_values() {
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("1 1 1.0\n2 2 {bad}\n");
            let err = read_tns(text.as_bytes()).unwrap_err();
            match err {
                TnsError::Parse { line, message } => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(message.contains("non-finite"), "{bad}: {message}");
                }
                other => panic!("{bad}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_policy_sum_merges_values() {
        let text = "1 2 3 1.5\n4 1 1 2.0\n1 2 3 -0.5\n";
        let t = read_tns_with(text.as_bytes(), DuplicatePolicy::Sum).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(
            t.canonical_entries(),
            vec![(vec![0, 1, 2], 1.0), (vec![3, 0, 0], 2.0)]
        );
    }

    /// Regression: each value is finite, so each line parsed, and the sum
    /// of the two used to enter the tensor as `inf`.
    #[test]
    fn duplicate_policy_sum_rejects_an_overflowing_sum() {
        let text = "1 1 1 1.5e308\n2 2 2 1.0\n1 1 1 1.5e308\n";
        match read_tns_with(text.as_bytes(), DuplicatePolicy::Sum).unwrap_err() {
            TnsError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("non-finite"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // a finite sum of the same magnitude still merges
        let t = read_tns_with(
            "1 1 1.5e308\n1 1 -1.5e308\n".as_bytes(),
            DuplicatePolicy::Sum,
        );
        assert_eq!(t.unwrap().vals(), &[0.0]);
        assert_eq!(read_tns(text.as_bytes()).unwrap().nnz(), 3);
    }

    #[test]
    fn duplicate_policy_error_names_line_and_coord() {
        let text = "1 2 3 1.5\n4 1 1 2.0\n1 2 3 -0.5\n";
        let err = read_tns_with(text.as_bytes(), DuplicatePolicy::Error).unwrap_err();
        match err {
            TnsError::Duplicate { line, coord } => {
                assert_eq!(line, 3);
                assert_eq!(coord, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // keep (the default) still accepts the stream verbatim
        assert_eq!(read_tns(text.as_bytes()).unwrap().nnz(), 3);
    }

    #[test]
    fn qc_roundtrip_with_duplicates_matches_coalesce() {
        // Sum must agree with the in-memory coalesce on any generated
        // stream containing repeats.
        splatt_rt::qc::check("tns sum == coalesce", 48, |g| {
            let dims = [
                g.usize_in(1..6) as u32,
                g.usize_in(1..6) as u32,
                g.usize_in(1..6) as u32,
            ];
            let n = g.usize_in(1..40);
            let mut text = String::new();
            let mut reference = SparseTensor::new(dims.iter().map(|&d| d as usize).collect());
            for _ in 0..n {
                let coord: Vec<u32> = dims
                    .iter()
                    .map(|&d| g.usize_in(0..d as usize) as u32)
                    .collect();
                // small integers over 2^-4 stay exact under f64 addition,
                // so text-vs-memory sums are bit-comparable
                let v = (g.usize_in(0..64) as f64 - 32.0) / 16.0;
                text.push_str(&format!(
                    "{} {} {} {v}\n",
                    coord[0] + 1,
                    coord[1] + 1,
                    coord[2] + 1
                ));
                reference.push(&coord, v);
            }
            reference.coalesce();
            let parsed = read_tns_with(text.as_bytes(), DuplicatePolicy::Sum).unwrap();
            // coalesce drops entries that summed to exactly zero; the
            // reader keeps them, so compare on the union of coordinates
            let mut parsed = parsed;
            parsed.coalesce();
            assert_eq!(
                parsed.canonical_entries(),
                reference.canonical_entries(),
                "seed {:#x}",
                g.seed()
            );
        });
    }

    #[test]
    fn qc_adversarial_streams_error_not_panic() {
        // Whatever we throw at the parser, it must return Ok or a typed
        // error — never panic, never wrap an index.
        splatt_rt::qc::check("tns adversarial inputs", 64, |g| {
            let base = "1 2 3 1.0\n2 3 4 2.0\n3 1 2 3.0\n";
            let attack = *g.choose(&[
                "truncate",
                "huge-index",
                "overflow-index",
                "nan",
                "inf",
                "ragged",
                "zero-index",
                "negative-index",
                "garbage",
            ]);
            let text = match attack {
                // cut the stream mid-line (no trailing newline)
                "truncate" => {
                    let cut = g.usize_in(1..base.len());
                    base[..cut].to_string()
                }
                "huge-index" => format!("{base}4294967295 1 1 1.0\n"),
                "overflow-index" => format!("{base}4294967296 1 1 1.0\n"),
                "nan" => format!("{base}4 4 4 NaN\n"),
                "inf" => format!("{base}4 4 4 -inf\n"),
                "ragged" => format!("{base}1 2 1.0\n"),
                "zero-index" => format!("{base}0 1 1 1.0\n"),
                "negative-index" => format!("{base}-3 1 1 1.0\n"),
                "garbage" => format!("{base}\u{1F4A3} \u{1F4A3} \u{1F4A3} \u{1F4A3}\n"),
                _ => unreachable!(),
            };
            let policy = *g.choose(&[
                DuplicatePolicy::Keep,
                DuplicatePolicy::Sum,
                DuplicatePolicy::Error,
            ]);
            match read_tns_with(text.as_bytes(), policy) {
                Ok(t) => {
                    // the only attacks that may still parse are a
                    // truncation that landed on a line boundary, or the
                    // largest representable index
                    assert!(
                        attack == "truncate" || attack == "huge-index",
                        "attack {attack} parsed (seed {:#x})",
                        g.seed()
                    );
                    assert!(t.nnz() <= 4);
                    for m in 0..t.order() {
                        assert!(t.dims()[m] <= u32::MAX as usize);
                    }
                }
                Err(TnsError::Parse { line, .. }) => {
                    assert!(line <= 4, "line {line} out of range (seed {:#x})", g.seed());
                }
                Err(TnsError::Duplicate { .. }) => {
                    panic!("no attack introduces duplicates (seed {:#x})", g.seed())
                }
                Err(TnsError::Io(e)) => panic!("unexpected I/O error {e} (seed {:#x})", g.seed()),
            }
        });
    }

    #[test]
    fn entries_reader_preserves_order_and_duplicates() {
        let text = "# c\n1 2 3 1.5\n1 2 3 -0.5\n4 1 1 2.0\n";
        let (order, entries) = read_tns_entries(text.as_bytes()).unwrap();
        assert_eq!(order, 3);
        assert_eq!(
            entries,
            vec![
                (vec![0, 1, 2], 1.5),
                (vec![0, 1, 2], -0.5),
                (vec![3, 0, 0], 2.0),
            ]
        );
    }

    #[test]
    fn entries_reader_rejects_what_the_tensor_reader_rejects() {
        for bad in [
            "",
            "0 1 1 1.0\n",
            "1 1 1 NaN\n",
            "1 1 1 1.0\n1 1 2.0\n",
            "4294967296 1 1 1.0\n",
        ] {
            assert!(read_tns_entries(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("splatt_tns_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![1, 1], 4.0)]);
        write_tns_file(&t, &path).unwrap();
        let back = read_tns_file(&path).unwrap();
        assert_eq!(back.canonical_entries(), t.canonical_entries());
        std::fs::remove_dir_all(&dir).ok();
    }
}
