//! Mutation test over the tensor files every `splatt` subcommand reads:
//! [`read_tns_entries`], what `splatt ingest` turns into WAL deltas, and
//! [`read_tns_with`] under each [`DuplicatePolicy`], what `cpd`, `check`,
//! `stats` and `complete` load. The model-file slice of the harness is
//! `splatt-core/src/mutation.rs`.
//!
//! Start from a valid file — a tensor drawn by `splatt_rt::qc`, written by
//! [`write_tns`], sometimes under a comment and a blank line — and take
//! its [`Gen::byte_mutants`]: truncations, inversions, bit flips, drawn
//! overwrites, an appended byte (the format is text: there are no binary
//! integer fields). For every mutant:
//!
//! - no panic (`qc::check` turns one into a failure naming the seed);
//! - the decoder returns a typed error — `Parse` naming a line the file
//!   has, `Duplicate` only under [`DuplicatePolicy::Error`], `Io` only as
//!   `InvalidData` for bytes that are not UTF-8 — or entries / a tensor
//!   with finite values, dims the maxima of its indices, distinct
//!   coordinates unless the policy keeps repeats, that [`write_tns`] and
//!   [`read_tns`] give back to the bit;
//! - no call requests more heap than a stated multiple of the bytes
//!   present ([`splatt_probe::alloc::CountingAlloc`], per thread).

use crate::io::{read_tns, read_tns_entries, read_tns_with, write_tns, DuplicatePolicy, TnsError};
use crate::SparseTensor;
use splatt_probe::alloc::heap_of;
use splatt_rt::qc::{self, Gen};
use std::collections::HashSet;

/// Heap a decoder may request per byte present. The worst line is the
/// shortest data line, `1 1 1\n` (order 2): six bytes ask for its
/// 3-slot field vector (48 B), its coordinate (8 B), its share of the
/// doubling entry or index and value vectors (≤ 2 × 32 B) and, when
/// repeats are looked up, a key copy and its share of the doubling hash
/// table (≤ 8 + 2 × 40 B) — about 210 B, 35 per byte.
const HEAP_FACTOR: u64 = 40;
/// … plus this much for what does not scale: the 8 KiB `BufReader`
/// buffer, the line buffer's first growth and an error's message.
const HEAP_SLACK: u64 = 12 << 10;

fn within_budget(what: &str, heap: u64, m: &[u8]) {
    assert!(
        heap <= HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "{what} asked for {heap} B for {} B: {:?}",
        m.len(),
        String::from_utf8_lossy(m)
    );
}

/// Entries with their values as bits.
type Bits = Vec<(Vec<u32>, u64)>;

fn bits<'a>(entries: impl IntoIterator<Item = (Vec<u32>, &'a f64)>) -> Bits {
    entries.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
}

fn tensor_bits(t: &SparseTensor) -> Bits {
    bits((0..t.nnz()).map(|x| (t.coord(x), &t.vals()[x])))
}

fn encoded(t: &SparseTensor) -> Vec<u8> {
    let mut out = Vec::new();
    write_tns(t, &mut out).expect("encode to memory");
    out
}

/// A typed failure of a decoder under `policy` (`None`: the entries
/// reader, which keeps repeats).
fn assert_typed(what: &str, e: &TnsError, m: &[u8], policy: Option<DuplicatePolicy>) {
    let lines = m.split(|&b| b == b'\n').count();
    match e {
        TnsError::Parse { line, .. } => assert!(*line <= lines, "{what}: {e} of {lines} lines"),
        TnsError::Duplicate { line, .. } => {
            assert_eq!(policy, Some(DuplicatePolicy::Error), "{what}: {e}");
            assert!(*line <= lines, "{what}: {e} of {lines} lines");
        }
        TnsError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
            assert!(std::str::from_utf8(m).is_err(), "{what}: {e} on UTF-8");
        }
    }
}

/// Dims are inferred: each is one past the largest index in its mode.
fn assert_valid(what: &str, t: &SparseTensor) {
    assert!(
        t.order() >= 2 && t.nnz() > 0,
        "{what}: empty or order {}",
        t.order()
    );
    assert!(
        t.vals().iter().all(|v| v.is_finite()),
        "{what}: {:?}",
        t.vals()
    );
    for m in 0..t.order() {
        let most = t.ind(m).iter().max().map_or(0, |&i| i as usize + 1);
        assert_eq!(t.dims()[m], most, "{what}: dim {m} is not the maximum");
    }
}

fn check_entries_mutant(m: &[u8]) -> Result<Bits, TnsError> {
    let (decoded, heap) = heap_of(|| read_tns_entries(m));
    within_budget("read_tns_entries", heap, m);
    let (order, entries) = decoded.inspect_err(|e| assert_typed("read_tns_entries", e, m, None))?;
    assert!(entries.iter().all(|(c, _)| c.len() == order));
    // as a tensor of the entries' own extent, written and read back
    let mut dims = vec![0; order];
    for (c, _) in &entries {
        for (d, &i) in dims.iter_mut().zip(c) {
            *d = (*d).max(i as usize + 1);
        }
    }
    let t = SparseTensor::from_entries(dims, &entries);
    assert_valid("read_tns_entries", &t);
    let (_, back) = read_tns_entries(encoded(&t).as_slice()).expect("decoded entries re-encode");
    let got = bits(entries.iter().map(|(c, v)| (c.clone(), v)));
    assert_eq!(bits(back.iter().map(|(c, v)| (c.clone(), v))), got);
    Ok(got)
}

fn check_tensor_mutant(m: &[u8], policy: DuplicatePolicy) -> Result<Bits, TnsError> {
    let what = format!("read_tns_with({policy:?})");
    let (decoded, heap) = heap_of(|| read_tns_with(m, policy));
    within_budget(&what, heap, m);
    let t = decoded.inspect_err(|e| assert_typed(&what, e, m, Some(policy)))?;
    assert_valid(&what, &t);
    if policy != DuplicatePolicy::Keep {
        let coords: HashSet<Vec<u32>> = (0..t.nnz()).map(|x| t.coord(x)).collect();
        assert_eq!(coords.len(), t.nnz(), "{what} kept a repeat");
    }
    let back = read_tns(encoded(&t).as_slice()).expect("a decoded tensor re-encodes");
    assert_eq!(back.dims(), t.dims());
    assert_eq!(
        tensor_bits(&back),
        tensor_bits(&t),
        "encode then decode moved bits"
    );
    Ok(tensor_bits(&t))
}

/// A drawn value or one at the edges of what the format carries: a
/// signed zero, the smallest normal and subnormal, the largest finite,
/// and half of it (two of those in one cell overflow a sum).
fn value(g: &mut Gen) -> f64 {
    let drawn = g.f64_in(-4.0, 4.0);
    if g.bool() {
        return drawn;
    }
    *g.choose(&[-0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, 1.5e308, -1.5e308])
}

/// A valid tensor: order 2 to 4, dims 1 to 3 (repeated coordinates are
/// common), 1 to 6 nonzeros.
fn tensor_of(g: &mut Gen) -> SparseTensor {
    let dims: Vec<usize> = (0..g.range(2..5usize))
        .map(|_| g.range(1..4usize))
        .collect();
    let mut t = SparseTensor::new(dims.clone());
    for _ in 0..g.range(1..7usize) {
        let coord: Vec<u32> = dims.iter().map(|&d| g.range(0..d as u32)).collect();
        let v = value(g);
        t.push(&coord, v);
    }
    t
}

#[test]
fn mutated_tensor_files_decode_typed_bounded_and_never_panic() {
    qc::check("tns file mutants", 32, |g| {
        let t = tensor_of(g);
        let mut file = Vec::new();
        if g.bool() {
            file.extend_from_slice(b"# drawn\n\n");
        }
        file.extend(encoded(&t));

        // The unmutated file reads back entry for entry, bit for bit, in
        // dims of its indices' maxima.
        let want = tensor_bits(&t);
        assert_eq!(check_entries_mutant(&file).expect("valid entries"), want);
        assert_eq!(
            check_tensor_mutant(&file, DuplicatePolicy::Keep).expect("valid tensor"),
            want
        );

        for m in g.byte_mutants(&file, &[]) {
            let _ = check_entries_mutant(&m);
            for policy in [
                DuplicatePolicy::Keep,
                DuplicatePolicy::Sum,
                DuplicatePolicy::Error,
            ] {
                let _ = check_tensor_mutant(&m, policy);
            }
        }
    });
}

/// Two finite values whose sum is not: the summed cell used to enter the
/// tensor as `inf`. Typed under `Sum`, and under its mutants too.
#[test]
fn an_overflowing_duplicate_sum_is_a_typed_error() {
    let payload = b"1 1 1 1.5e308\n1 1 1 1.5e308\n";
    assert!(matches!(
        check_tensor_mutant(payload, DuplicatePolicy::Sum),
        Err(TnsError::Parse { line: 2, .. })
    ));
    assert!(matches!(
        check_tensor_mutant(payload, DuplicatePolicy::Error),
        Err(TnsError::Duplicate { line: 2, .. })
    ));
    assert_eq!(
        check_tensor_mutant(payload, DuplicatePolicy::Keep)
            .unwrap()
            .len(),
        2
    );
    assert_eq!(check_entries_mutant(payload).unwrap().len(), 2);
    for m in Gen::from_seed(0x7E5).byte_mutants(payload, &[]) {
        for policy in [
            DuplicatePolicy::Keep,
            DuplicatePolicy::Sum,
            DuplicatePolicy::Error,
        ] {
            let _ = check_tensor_mutant(&m, policy);
        }
    }
}
