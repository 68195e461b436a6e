//! Queue-depth admission control for request-serving layers.
//!
//! A server that accepts every request melts down under overload: queues
//! grow without bound, every request misses its deadline, and goodput
//! collapses. An [`AdmissionGate`] caps the number of in-flight requests
//! and *sheds* the excess immediately with a typed [`Overloaded`]
//! rejection, so clients get a fast, retryable "no" instead of a slow
//! timeout — the serving-layer counterpart of the run-governance
//! principle that a bounded refusal beats an unbounded hang.
//!
//! The gate is a single atomic depth counter: admission is one CAS loop,
//! release (permit drop) one decrement. Shed and admit totals are kept
//! for observability.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Rejection returned when the gate is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Queue depth observed at rejection time.
    pub depth: usize,
    /// The gate's configured capacity.
    pub max_depth: usize,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "overloaded: {} requests in flight (limit {})",
            self.depth, self.max_depth
        )
    }
}

impl std::error::Error for Overloaded {}

/// A bounded-depth admission gate; see the module docs.
#[derive(Debug)]
pub struct AdmissionGate {
    max_depth: usize,
    depth: AtomicUsize,
    admitted: AtomicU64,
    sheds: AtomicU64,
}

impl AdmissionGate {
    /// A gate admitting at most `max_depth` concurrent permits.
    /// `max_depth == 0` sheds everything — useful for drain/test modes.
    pub fn new(max_depth: usize) -> Self {
        AdmissionGate {
            max_depth,
            depth: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// Try to enter the gate. On success the returned permit holds one
    /// unit of depth until dropped; at capacity the request is shed.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, Overloaded> {
        let mut current = self.depth.load(Ordering::Relaxed);
        loop {
            if current >= self.max_depth {
                self.sheds.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded {
                    depth: current,
                    max_depth: self.max_depth,
                });
            }
            match self.depth.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(AdmissionPermit { gate: self });
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Permits currently outstanding.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Total requests admitted since construction.
    #[cfg(test)]
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total requests shed since construction.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }
}

/// One unit of admitted depth; releases its slot on drop.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.depth.fetch_sub(1, Ordering::AcqRel);
    }
}

impl AdmissionGate {
    /// Like [`AdmissionGate::try_admit`], but the permit owns an `Arc`
    /// of the gate instead of borrowing it — for permits stored in
    /// long-lived structures (a reactor's per-connection state, a
    /// worker-pool job) that outlive any one stack frame.
    pub fn try_admit_owned(self: &Arc<Self>) -> Result<OwnedAdmissionPermit, Overloaded> {
        // Admit through the borrowed path, then forget the borrow and
        // hand ownership to the Arc-holding permit: exactly one
        // decrement happens, on OwnedAdmissionPermit::drop.
        let permit = self.try_admit()?;
        std::mem::forget(permit);
        Ok(OwnedAdmissionPermit {
            gate: Arc::clone(self),
        })
    }
}

/// One unit of admitted depth holding the gate alive; releases on drop.
/// See [`AdmissionGate::try_admit_owned`].
#[derive(Debug)]
pub struct OwnedAdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl OwnedAdmissionPermit {
    /// The gate this permit was admitted through.
    #[cfg(test)]
    pub(crate) fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }
}

impl Drop for OwnedAdmissionPermit {
    fn drop(&mut self) {
        self.gate.depth.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit().unwrap();
        let b = gate.try_admit().unwrap();
        assert_eq!(gate.depth(), 2);
        let err = gate.try_admit().unwrap_err();
        assert_eq!(
            err,
            Overloaded {
                depth: 2,
                max_depth: 2
            }
        );
        assert!(err.to_string().contains("limit 2"));
        drop(a);
        assert_eq!(gate.depth(), 1);
        let c = gate.try_admit().unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.depth(), 0);
        assert_eq!(gate.admitted(), 3);
        assert_eq!(gate.sheds(), 1);
    }

    #[test]
    fn owned_permits_share_depth_with_borrowed_ones() {
        let gate = Arc::new(AdmissionGate::new(2));
        let owned = gate.try_admit_owned().unwrap();
        let _borrowed = gate.try_admit().unwrap();
        assert_eq!(gate.depth(), 2);
        assert!(gate.try_admit_owned().is_err());
        assert!(Arc::ptr_eq(owned.gate(), &gate));
        drop(owned);
        assert_eq!(gate.depth(), 1);
        assert_eq!(gate.admitted(), 2);
        assert_eq!(gate.sheds(), 1);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let gate = AdmissionGate::new(0);
        assert!(gate.try_admit().is_err());
        assert_eq!(gate.admitted(), 0);
        assert_eq!(gate.sheds(), 1);
    }

    #[test]
    fn concurrent_admission_never_exceeds_capacity() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let gate = Arc::new(AdmissionGate::new(4));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        if let Ok(_permit) = gate.try_admit() {
                            peak.fetch_max(gate.depth(), Ordering::Relaxed);
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(gate.depth(), 0);
        assert!(peak.load(Ordering::Relaxed) <= 4);
        assert_eq!(gate.admitted() + gate.sheds(), 16_000);
    }
}
