//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), in-crate.
//!
//! The workspace is std-only by policy, so the checksum every on-disk
//! frame carries is implemented here rather than pulled from a crate.
//! The table is built at compile time; the byte-at-a-time loop is fast
//! enough for the artifact sizes this repo persists (checkpoints and
//! WAL records in the kilobytes-to-megabytes range).

/// The 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Streaming CRC32 state, for checksumming without concatenating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (all-ones preconditioning).
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The finalized (bit-inverted) checksum.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for split in [0, 1, 7, 100, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let data = b"splatt durable frame payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
