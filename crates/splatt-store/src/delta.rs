//! The nnz-delta batch codec: the payload format WAL records carry.
//!
//! A batch is a list of sparse-tensor entries `(coords, value)` of one
//! fixed order. Values travel as raw `f64` bit patterns so a decoded
//! batch is *bit-identical* to what was appended — the property the
//! refit-oracle pins in the recovery storm depend on. The codec is
//! deliberately dumb: fixed-width little-endian fields inside a
//! CRC-protected frame, with every length cross-checked against the
//! actual byte count *before* any allocation (a corrupt count field
//! must produce a typed error, not an allocation bomb — the frame CRC
//! normally catches damage first, but the decoder must stand alone).
//!
//! Layout: `u8 order ‖ u32 count ‖ count × (order × u32 coords ‖ u64 value-bits)`.

/// One sparse entry: zero-based coordinates and the value.
pub(crate) type DeltaEntry = (Vec<u32>, f64);

/// Why a delta payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaDecodeError {
    /// Byte offset the decoder stopped at.
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delta decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DeltaDecodeError {}

fn err(offset: usize, message: impl Into<String>) -> DeltaDecodeError {
    DeltaDecodeError {
        offset,
        message: message.into(),
    }
}

/// Encode a batch of `order`-way entries.
///
/// # Panics
/// If any entry's coordinate count differs from `order`, or `count`
/// exceeds `u32::MAX` — both are caller bugs, not data errors.
pub fn encode_delta(order: usize, entries: &[DeltaEntry]) -> Vec<u8> {
    assert!(
        order >= 1 && order <= u8::MAX as usize,
        "order {order} out of range"
    );
    assert!(entries.len() <= u32::MAX as usize, "batch too large");
    let mut out = Vec::with_capacity(5 + entries.len() * (4 * order + 8));
    out.push(order as u8);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (coords, value) in entries {
        assert_eq!(coords.len(), order, "entry order mismatch");
        for &c in coords {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    out
}

/// Check a payload's header against its length; returns the order and
/// the entry bytes. The only place a payload's lengths are read, so
/// every decoder allocates after — and by — what this has checked.
fn entry_bytes(bytes: &[u8]) -> Result<(usize, &[u8]), DeltaDecodeError> {
    if bytes.len() < 5 {
        return Err(err(bytes.len(), "payload shorter than the 5-byte header"));
    }
    let order = bytes[0] as usize;
    if order == 0 {
        return Err(err(0, "order must be at least 1"));
    }
    let count = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
    let entry_len = 4 * order + 8;
    let expected = count
        .checked_mul(entry_len)
        .and_then(|n| n.checked_add(5))
        .ok_or_else(|| err(1, "entry count overflows the payload length"))?;
    if bytes.len() != expected {
        return Err(err(
            bytes.len().min(expected),
            format!(
                "count {count} of order-{order} entries needs {expected} bytes, payload has {}",
                bytes.len()
            ),
        ));
    }
    Ok((order, &bytes[5..]))
}

/// The entries of checked entry bytes, in order: each one's coordinates
/// (read as they are consumed) and its value.
fn entries(
    body: &[u8],
    order: usize,
) -> impl ExactSizeIterator<Item = (impl Iterator<Item = u32> + '_, f64)> + '_ {
    body.chunks_exact(4 * order + 8).map(move |entry| {
        let (coords, bits) = entry.split_at(4 * order);
        let coords = coords
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
        let bits = u64::from_le_bytes(bits.try_into().expect("8 bytes"));
        (coords, f64::from_bits(bits))
    })
}

/// Decode a batch; returns `(order, entries)` with values bit-identical
/// to what [`encode_delta`] was given.
pub fn decode_delta(bytes: &[u8]) -> Result<(usize, Vec<DeltaEntry>), DeltaDecodeError> {
    let (order, body) = entry_bytes(bytes)?;
    let entries = entries(body, order)
        .map(|(coords, value)| (coords.collect(), value))
        .collect();
    Ok((order, entries))
}

/// Delta entries of one order held flat: every entry's coordinates side
/// by side in one `u32` slab, the values in another, in the order they
/// were added. The packed form a refresh round decodes its WAL tail
/// into — one allocation per slab, none per entry, and kept for the next
/// round's entries by [`DeltaBatch::clear`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    order: usize,
    coords: Vec<u32>,
    vals: Vec<f64>,
}

impl DeltaBatch {
    /// An empty batch of `order`-way entries.
    pub fn new(order: usize) -> DeltaBatch {
        DeltaBatch {
            order,
            ..DeltaBatch::default()
        }
    }

    /// Drop every entry and take `order`-way ones from now on, keeping
    /// both slabs' memory.
    pub fn clear(&mut self, order: usize) {
        self.order = order;
        self.coords.clear();
        self.vals.clear();
    }

    /// Decode a payload and append its entries — the decoder
    /// [`decode_delta`] runs, read into the slabs. Returns the
    /// payload's order; a payload of another order than the batch's is
    /// appended nothing, and neither is one that does not decode.
    pub fn decode_append(&mut self, bytes: &[u8]) -> Result<usize, DeltaDecodeError> {
        let (order, body) = entry_bytes(bytes)?;
        if order == self.order {
            let entries = entries(body, order);
            self.coords.reserve(entries.len() * order);
            self.vals.reserve(entries.len());
            for (coords, value) in entries {
                self.coords.extend(coords);
                self.vals.push(value);
            }
        }
        Ok(order)
    }

    /// Coordinates per entry.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` without entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Entry `i`'s coordinates.
    #[inline]
    pub fn coord(&self, i: usize) -> &[u32] {
        &self.coords[i * self.order..(i + 1) * self.order]
    }

    /// Every entry's coordinates, entry after entry.
    #[inline]
    pub fn coords(&self) -> &[u32] {
        &self.coords
    }

    /// Every entry's value, in entry order.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_identical() {
        let entries: Vec<DeltaEntry> = vec![
            (vec![0, 1, 2], 1.5),
            (vec![9, 9, 9], -0.0),
            (vec![u32::MAX, 0, 7], f64::MIN_POSITIVE),
            (vec![3, 4, 5], 1.0e-300),
            (vec![1, 2, 3], std::f64::consts::PI),
        ];
        let bytes = encode_delta(3, &entries);
        let (order, decoded) = decode_delta(&bytes).expect("decode");
        assert_eq!(order, 3);
        assert_eq!(decoded.len(), entries.len());
        for ((ec, ev), (dc, dv)) in entries.iter().zip(&decoded) {
            assert_eq!(ec, dc);
            assert_eq!(ev.to_bits(), dv.to_bits(), "value bits must match");
        }
    }

    #[test]
    fn the_packed_decoder_appends_what_decode_delta_returns() {
        let first: Vec<DeltaEntry> = vec![(vec![0, 1, 2], 1.5), (vec![9, 9, 9], -0.0)];
        let second: Vec<DeltaEntry> = vec![(vec![u32::MAX, 0, 7], f64::MIN_POSITIVE)];
        let mut batch = DeltaBatch::new(3);
        for entries in [&first, &second] {
            assert_eq!(batch.decode_append(&encode_delta(3, entries)), Ok(3));
        }
        let all: Vec<DeltaEntry> = first.iter().chain(&second).cloned().collect();
        assert_eq!(batch.len(), all.len());
        for (i, (coords, value)) in all.iter().enumerate() {
            assert_eq!(batch.coord(i), coords.as_slice());
            assert_eq!(batch.vals()[i].to_bits(), value.to_bits());
        }
        let flat: Vec<u32> = all.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        assert_eq!(batch.coords(), flat.as_slice());

        // another order, or bytes that do not decode: nothing appended
        let before = batch.clone();
        assert_eq!(
            batch.decode_append(&encode_delta(2, &[(vec![1, 2], 3.0)])),
            Ok(2)
        );
        let torn = encode_delta(3, &first);
        assert!(batch.decode_append(&torn[..torn.len() - 1]).is_err());
        assert_eq!(batch, before);

        batch.clear(2);
        assert!(batch.is_empty() && batch.coords().is_empty());
        assert_eq!(batch.order(), 2);
    }

    #[test]
    fn empty_batch_round_trips() {
        let bytes = encode_delta(4, &[]);
        let (order, decoded) = decode_delta(&bytes).expect("decode");
        assert_eq!(order, 4);
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let entries: Vec<DeltaEntry> = (0..8).map(|i| (vec![i, i + 1], i as f64 * 0.5)).collect();
        let bytes = encode_delta(2, &entries);
        for cut in 0..bytes.len() {
            assert!(
                decode_delta(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        assert!(decode_delta(&bytes).is_ok());
    }

    #[test]
    fn inflated_count_is_rejected_without_allocating() {
        let mut bytes = encode_delta(3, &[(vec![1, 2, 3], 1.0)]);
        // Claim u32::MAX entries; the checked arithmetic must reject it
        // before reserving count*entry_len bytes.
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_delta(&bytes).expect_err("rejected");
        assert!(e.message.contains("needs"), "{e}");
    }

    #[test]
    fn zero_order_is_rejected() {
        let bytes = vec![0u8, 0, 0, 0, 0];
        assert!(decode_delta(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_delta(2, &[(vec![1, 2], 3.0)]);
        bytes.push(0xAB);
        assert!(decode_delta(&bytes).is_err());
    }
}
