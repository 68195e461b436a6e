//! The versioned store manifest: one small framed artifact that names
//! what the store directory currently contains.
//!
//! `MANIFEST.splatt` is published atomically, so its generation number
//! is the store's commit clock: readers that see generation *g* see
//! every artifact the manifest at *g* names. Entries are free-form
//! `key=value` pairs — the ingest CLI records the acked WAL sequence,
//! the active segment, and the paths of derived artifacts.

use crate::atomic::{publish_artifact, read_artifact};
use crate::error::StoreError;
use crate::frame::FrameDefect;
use crate::io::IoFaultPlan;
use std::path::Path;

/// File name of the manifest inside a store directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST.splatt";

/// First payload line of every manifest.
pub(crate) const MANIFEST_HEADER: &str = "splatt-manifest-v1";

/// The decoded manifest: a generation stamp and ordered entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotonic publish counter; starts at 1 for the first publish.
    pub generation: u64,
    /// Ordered `key=value` entries.
    pub entries: Vec<(String, String)>,
}

impl Manifest {
    /// Value of the first entry with `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Set `key` to `value`, replacing an existing entry.
    pub fn set(&mut self, key: &str, value: &str) {
        assert!(
            !key.contains('=') && !key.contains('\n') && !value.contains('\n'),
            "manifest keys must be '='-free and values newline-free"
        );
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.entries.push((key.to_string(), value.to_string()));
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for (k, v) in &self.entries {
            text.push_str(k);
            text.push('=');
            text.push_str(v);
            text.push('\n');
        }
        text.into_bytes()
    }

    /// The inverse of [`Manifest::encode`] and no more lenient: the
    /// header line, then `key=value` lines, every line `'\n'`-terminated
    /// and none empty — so a value keeps a trailing `'\r'`, and whatever
    /// decodes re-encodes to the same bytes. Anything else is
    /// [`StoreError::Corrupt`].
    pub(crate) fn decode(
        generation: u64,
        payload: &[u8],
        path: &Path,
    ) -> Result<Manifest, StoreError> {
        let corrupt = || StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            defect: FrameDefect::BadMagic,
        };
        let text = std::str::from_utf8(payload).map_err(|_| corrupt())?;
        let body = text.strip_suffix('\n').ok_or_else(corrupt)?;
        let mut lines = body.split('\n');
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(corrupt());
        }
        let mut entries = Vec::with_capacity(body.matches('\n').count());
        for line in lines {
            let (k, v) = line.split_once('=').ok_or_else(corrupt)?;
            entries.push((k.to_string(), v.to_string()));
        }
        Ok(Manifest {
            generation,
            entries,
        })
    }

    /// Load the manifest from a store directory; `Ok(None)` when the
    /// store has never published one.
    pub fn load(dir: &Path, plan: Option<&IoFaultPlan>) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        if !path.exists() {
            return Ok(None);
        }
        let frame = read_artifact(&path, plan)?;
        Ok(Some(Manifest::decode(
            frame.generation,
            &frame.payload,
            &path,
        )?))
    }

    /// Atomically publish this manifest into `dir` at the next
    /// generation (current on-disk generation + 1). Returns the
    /// published generation.
    pub fn publish(&mut self, dir: &Path, plan: Option<&IoFaultPlan>) -> Result<u64, StoreError> {
        let current = match Manifest::load(dir, plan) {
            Ok(Some(m)) => m.generation,
            Ok(None) => 0,
            // A corrupt manifest must not wedge the store forever:
            // republishing at the next generation after the last one we
            // were asked for is still monotonic for readers.
            Err(StoreError::Corrupt { .. }) => self.generation,
            Err(e) => return Err(e),
        };
        self.generation = current.max(self.generation) + 1;
        let path = dir.join(MANIFEST_NAME);
        publish_artifact(&path, self.generation, &self.encode(), plan)?;
        Ok(self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir() -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("splatt-store-manifest-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn publish_load_round_trips_and_generation_is_monotonic() {
        let dir = tmpdir();
        assert_eq!(Manifest::load(&dir, None).expect("load empty"), None);

        let mut m = Manifest::default();
        m.set("acked_seq", "41");
        m.set("segments", "3");
        assert_eq!(m.publish(&dir, None).expect("publish"), 1);

        let loaded = Manifest::load(&dir, None).expect("load").expect("some");
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.get("acked_seq"), Some("41"));
        assert_eq!(loaded.get("segments"), Some("3"));

        let mut m2 = loaded;
        m2.set("acked_seq", "99");
        assert_eq!(m2.publish(&dir, None).expect("publish 2"), 2);
        let loaded2 = Manifest::load(&dir, None).expect("load 2").expect("some");
        assert_eq!(loaded2.generation, 2);
        assert_eq!(loaded2.get("acked_seq"), Some("99"));
    }

    #[test]
    fn corrupt_manifest_is_typed_not_a_panic() {
        let dir = tmpdir();
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage bytes").expect("write");
        match Manifest::load(&dir, None) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Regression: `decode` split with `str::lines`, which eats a `'\r'`
    /// before each `'\n'` — a refresh engine reopened on this store read
    /// its model from `model.splatt` instead of `model.splatt\r`.
    #[test]
    fn a_value_ending_in_carriage_return_comes_back_with_it() {
        let dir = tmpdir();
        let mut m = Manifest::default();
        m.set("refresh_model", "model.splatt\r");
        m.publish(&dir, None).expect("publish");
        let loaded = Manifest::load(&dir, None).expect("load").expect("some");
        assert_eq!(loaded.get("refresh_model"), Some("model.splatt\r"));
    }

    #[test]
    fn only_what_encode_writes_decodes() {
        let path = Path::new("MANIFEST.splatt");
        let decode = |text: &str| Manifest::decode(1, text.as_bytes(), path);
        let header = MANIFEST_HEADER;
        for good in [format!("{header}\n"), format!("{header}\nk=v\n=\na==b\n")] {
            let m = decode(&good).expect(&good);
            assert_eq!(m.encode(), good.as_bytes());
        }
        for bad in [
            String::new(),
            header.to_string(),             // no final newline
            format!("{header}\nk=v"),       // no final newline
            format!("{header}\nk=v\n\n"),   // a blank line
            format!("{header}\n\nk=v\n"),   // a blank line
            format!("{header}\r\nk=v\r\n"), // CRLF
            format!("{header}\nk\n"),       // no '='
            "splatt-manifest-v0\nk=v\n".to_string(),
        ] {
            assert!(
                matches!(decode(&bad), Err(StoreError::Corrupt { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn set_replaces_in_place() {
        let mut m = Manifest::default();
        m.set("k", "1");
        m.set("other", "x");
        m.set("k", "2");
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.get("k"), Some("2"));
    }
}
