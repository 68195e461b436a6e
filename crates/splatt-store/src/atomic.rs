//! Atomic artifact publish: `write temp → fsync file → rename → fsync dir`.
//!
//! The protocol guarantees that at every instruction boundary a reader
//! of the destination path observes either the *old* artifact (or its
//! absence) or the complete *new* one — never a hybrid, never a
//! half-written file. The rename is the commit point: POSIX renames
//! within a directory are atomic, and the directory fsync makes the
//! commit itself durable. A crash before the rename leaves at most a
//! stale `.<name>.tmp` alongside an untouched destination; a retry
//! simply overwrites it.
//!
//! Every step draws an op from the optional [`IoFaultPlan`], which is
//! how the recovery storm kills the publish at each boundary and how
//! torn writes / bit flips are injected into the temp file (where the
//! CRC framing of [`publish_artifact`] must catch them).

use crate::counters::COUNTERS;
use crate::error::StoreError;
use crate::frame::{self, Frame, FrameDefect, ARTIFACT_MAGIC};
use splatt_faults::{IoFault, IoFaultPlan};
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;

/// Draw an op for a non-writing step (create, rename); only a
/// scheduled crash can stop it.
fn step(plan: Option<&IoFaultPlan>, site: &str) -> Result<(), StoreError> {
    if let Some(p) = plan {
        p.next_op(site)?;
    }
    Ok(())
}

/// Write `bytes` to `file`, subject to injected bit flips and torn
/// writes. A torn write puts a strict prefix on disk and then reports
/// the process dead.
pub(crate) fn write_faulted(
    file: &mut File,
    bytes: &[u8],
    plan: Option<&IoFaultPlan>,
    site: &str,
) -> Result<(), StoreError> {
    let Some(p) = plan else {
        file.write_all(bytes)?;
        return Ok(());
    };
    let op = p.next_op(site)?;
    let mut buf = bytes.to_vec();
    p.flip_bit(op, site, &mut buf);
    if let Some(prefix) = p.torn_write_len(op, site, buf.len()) {
        file.write_all(&buf[..prefix])?;
        let _ = file.flush();
        return Err(StoreError::Fault(IoFault::Crash {
            op,
            site: format!("{site} (torn after {prefix}/{} bytes)", buf.len()),
        }));
    }
    file.write_all(&buf)?;
    Ok(())
}

/// `fsync` the file, subject to injected failure. On injected failure
/// the data must not be acknowledged; a retry draws a fresh op.
pub(crate) fn fsync_faulted(
    file: &File,
    plan: Option<&IoFaultPlan>,
    site: &str,
) -> Result<(), StoreError> {
    if let Some(p) = plan {
        let op = p.next_op(site)?;
        if p.fsync_fails(op, site) {
            return Err(StoreError::Fault(IoFault::FsyncFailed {
                op,
                site: site.to_string(),
            }));
        }
    }
    file.sync_all()?;
    COUNTERS.fsyncs.fetch_add(1, Relaxed);
    Ok(())
}

/// `fsync` a directory so a just-committed rename/create survives power
/// loss.
pub(crate) fn fsync_dir(
    dir: &Path,
    plan: Option<&IoFaultPlan>,
    site: &str,
) -> Result<(), StoreError> {
    let handle = File::open(dir)?;
    fsync_faulted(&handle, plan, site)
}

/// Read `path` fully, subject to injected short reads (the returned
/// buffer is a prefix of the file's bytes).
pub(crate) fn read_faulted(
    path: &Path,
    plan: Option<&IoFaultPlan>,
    site: &str,
) -> Result<Vec<u8>, StoreError> {
    read_faulted_from(path, 0, plan, site)
}

/// [`read_faulted`] of the bytes from `offset` to the end of the file
/// (none, when the file is shorter than that).
pub(crate) fn read_faulted_from(
    path: &Path,
    offset: u64,
    plan: Option<&IoFaultPlan>,
    site: &str,
) -> Result<Vec<u8>, StoreError> {
    let mut bytes = Vec::new();
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.read_to_end(&mut bytes)?;
    if let Some(p) = plan {
        let op = p.next_op(site)?;
        if let Some(short) = p.short_read_len(op, site, bytes.len()) {
            bytes.truncate(short);
        }
    }
    Ok(bytes)
}

/// Atomically replace `path` with `bytes`.
///
/// On success the new content is durable. On any error — injected or
/// real — the destination still holds exactly what it held before.
pub fn publish_bytes(
    path: &Path,
    bytes: &[u8],
    plan: Option<&IoFaultPlan>,
) -> Result<(), StoreError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("publish path has no file name: {}", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => Path::new(".").to_path_buf(),
    };
    let tmp = dir.join(format!(".{file_name}.tmp"));

    step(plan, "publish create-temp")?;
    let mut file = File::create(&tmp)?;
    write_faulted(&mut file, bytes, plan, "publish write")?;
    fsync_faulted(&file, plan, "publish fsync-file")?;
    drop(file);

    step(plan, "publish rename")?;
    fs::rename(&tmp, path)?;
    fsync_dir(&dir, plan, "publish fsync-dir")?;
    COUNTERS.atomic_publishes.fetch_add(1, Relaxed);
    Ok(())
}

/// Atomically publish `payload` as a CRC-framed artifact file:
/// [`ARTIFACT_MAGIC`] followed by a single generation-stamped frame.
pub fn publish_artifact(
    path: &Path,
    generation: u64,
    payload: &[u8],
    plan: Option<&IoFaultPlan>,
) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(ARTIFACT_MAGIC.len() + frame::frame_len(payload.len()));
    bytes.extend_from_slice(&ARTIFACT_MAGIC);
    frame::encode_frame_into(&mut bytes, generation, payload);
    publish_bytes(path, &bytes, plan)
}

/// Whether `bytes` begin with the framed-artifact file magic.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.len() >= ARTIFACT_MAGIC.len() && bytes[..ARTIFACT_MAGIC.len()] == ARTIFACT_MAGIC
}

/// Unwrap an in-memory framed artifact: verify the file magic, the
/// frame CRC, and that nothing trails the frame.
pub fn unwrap_artifact(bytes: &[u8], path: &Path) -> Result<Frame, StoreError> {
    if !is_framed(bytes) {
        COUNTERS.checksum_failures.fetch_add(1, Relaxed);
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            defect: FrameDefect::BadMagic,
        });
    }
    let body = &bytes[ARTIFACT_MAGIC.len()..];
    match frame::parse_frame_at(body, 0) {
        Ok((frame, end)) if end == body.len() => Ok(frame),
        Ok((_, end)) => {
            COUNTERS.checksum_failures.fetch_add(1, Relaxed);
            Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: (ARTIFACT_MAGIC.len() + end) as u64,
                defect: FrameDefect::BadMagic,
            })
        }
        Err(defect) => {
            COUNTERS.checksum_failures.fetch_add(1, Relaxed);
            Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: ARTIFACT_MAGIC.len() as u64,
                defect,
            })
        }
    }
}

/// Read and unwrap a framed artifact file.
pub fn read_artifact(path: &Path, plan: Option<&IoFaultPlan>) -> Result<Frame, StoreError> {
    let bytes = read_faulted(path, plan, "artifact read")?;
    unwrap_artifact(&bytes, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_faults::IoFaultRates;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "splatt-store-atomic-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn publish_then_read_round_trips() {
        let dir = tmpdir("rt");
        let path = dir.join("model.bin");
        publish_artifact(&path, 41, b"payload bytes", None).expect("publish");
        let frame = read_artifact(&path, None).expect("read");
        assert_eq!(frame.generation, 41);
        assert_eq!(frame.payload, b"payload bytes");
        // republish overwrites atomically
        publish_artifact(&path, 42, b"newer", None).expect("republish");
        let frame = read_artifact(&path, None).expect("read 2");
        assert_eq!(frame.generation, 42);
        assert_eq!(frame.payload, b"newer");
    }

    #[test]
    fn crash_at_every_op_never_exposes_a_hybrid() {
        // Count ops in a clean faulted run first.
        let dir = tmpdir("storm");
        let path = dir.join("artifact.bin");
        publish_artifact(&path, 1, b"old artifact", None).expect("seed old");
        let quiet = IoFaultPlan::quiet(7);
        publish_artifact(&path, 2, b"new artifact", Some(&quiet)).expect("clean run");
        let total_ops = quiet.ops_seen();
        assert!(total_ops >= 4, "expected several ops, saw {total_ops}");

        for k in 0..total_ops {
            let dir = tmpdir("storm-k");
            let path = dir.join("artifact.bin");
            publish_artifact(&path, 1, b"old artifact", None).expect("seed old");
            let plan = IoFaultPlan::quiet(7).with_crash_at_op(k);
            let err = publish_artifact(&path, 2, b"new artifact", Some(&plan))
                .expect_err("crash scheduled");
            assert!(err.is_crash(), "op {k}: {err}");
            // A reader must still see exactly old or exactly new.
            let frame = read_artifact(&path, None).expect("destination stays valid");
            match frame.generation {
                1 => assert_eq!(frame.payload, b"old artifact", "op {k}"),
                2 => assert_eq!(frame.payload, b"new artifact", "op {k}"),
                g => panic!("op {k}: unexpected generation {g}"),
            }
        }
    }

    #[test]
    fn torn_or_flipped_temp_never_reaches_the_destination_valid() {
        // With aggressive write faults, either the publish succeeds
        // (no fault fired on the write op) and the artifact verifies,
        // or it fails and the old artifact is untouched.
        for seed in 0..40u64 {
            let dir = tmpdir("wf");
            let path = dir.join("a.bin");
            publish_artifact(&path, 1, b"old", None).expect("seed");
            let plan = IoFaultPlan::new(
                seed,
                IoFaultRates {
                    torn_write: 0.5,
                    bit_flip: 0.5,
                    ..Default::default()
                },
            );
            match publish_artifact(&path, 2, b"replacement", Some(&plan)) {
                Ok(()) => {
                    // A bit flip may have corrupted the temp file; the
                    // CRC must catch it at read time — the one thing
                    // that must never happen is a silently wrong read.
                    match read_artifact(&path, None) {
                        Ok(frame) => {
                            assert_eq!(frame.generation, 2, "seed {seed}");
                            assert_eq!(frame.payload, b"replacement", "seed {seed}");
                        }
                        Err(StoreError::Corrupt { .. }) => {}
                        Err(other) => panic!("seed {seed}: {other}"),
                    }
                }
                Err(e) => {
                    assert!(e.is_crash() || e.is_fsync_failure(), "seed {seed}: {e}");
                    let frame = read_artifact(&path, None).expect("old intact");
                    assert_eq!(frame.generation, 1, "seed {seed}");
                    assert_eq!(frame.payload, b"old", "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn fsync_failure_is_not_acked_and_retry_succeeds() {
        let dir = tmpdir("fsync");
        let path = dir.join("a.bin");
        let plan = IoFaultPlan::new(
            0,
            IoFaultRates {
                failed_fsync: 1.0,
                ..Default::default()
            },
        );
        let err = publish_artifact(&path, 1, b"x", Some(&plan)).expect_err("fsync fails");
        assert!(err.is_fsync_failure(), "{err}");
        // Retry without faults succeeds and the artifact verifies.
        publish_artifact(&path, 1, b"x", None).expect("retry");
        assert_eq!(read_artifact(&path, None).expect("read").payload, b"x");
    }

    #[test]
    fn unframed_bytes_are_rejected_typed() {
        let dir = tmpdir("unframed");
        let path = dir.join("plain.txt");
        std::fs::write(&path, b"not a framed artifact").expect("write");
        match read_artifact(&path, None) {
            Err(StoreError::Corrupt { defect, .. }) => {
                assert_eq!(defect, FrameDefect::BadMagic);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn trailing_junk_after_the_frame_is_rejected() {
        let dir = tmpdir("trail");
        let path = dir.join("a.bin");
        publish_artifact(&path, 1, b"ok", None).expect("publish");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"JUNK");
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            read_artifact(&path, None),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
