//! Hierarchical cooperative cancellation.
//!
//! A [`CancelToken`] is a clonable handle on one shared flag. Children
//! created through [`CancelToken::child`] are cancelled when any
//! ancestor is cancelled, but cancelling a child leaves its parent
//! untouched — a governed sub-phase (one CSF build, one distributed
//! collective) can be abandoned without killing the whole run.
//!
//! The hot path is [`CancelToken::is_cancelled`]: a single relaxed
//! atomic load, cheap enough to sit inside kernel inner loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use splatt_rt::sync::Mutex;

struct Inner {
    flag: AtomicBool,
    children: Mutex<Vec<Weak<Inner>>>,
}

impl Inner {
    fn cancel(&self) {
        // Already-cancelled tokens have already propagated; stopping
        // here keeps deep trees O(affected) instead of O(tree).
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        let children = std::mem::take(&mut *self.children.lock());
        for child in children {
            if let Some(c) = child.upgrade() {
                c.cancel();
            }
        }
    }
}

/// A clonable cancellation handle; see the module docs.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled root token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                children: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A child token: cancelled when `self` is cancelled, but
    /// cancellable on its own without affecting `self`.
    ///
    /// Dead children are pruned amortized, so a long-lived parent that
    /// spawns one child per request (a serve connection, a governed
    /// loop) tracks O(live children), not O(children ever created).
    pub fn child(&self) -> CancelToken {
        let child = CancelToken::new();
        if self.is_cancelled() {
            child.cancel();
        } else {
            let mut children = self.inner.children.lock();
            // Sweep dropped Weaks before the Vec would grow: each sweep
            // is O(len) but runs at most once per len pushes, keeping
            // the list within 2x the live count.
            if children.len() == children.capacity() {
                children.retain(|w| w.strong_count() > 0);
            }
            children.push(Arc::downgrade(&child.inner));
        }
        child
    }

    /// Children currently tracked for cancel propagation (live plus any
    /// dropped-but-unswept).
    #[cfg(test)]
    fn tracked_children(&self) -> usize {
        self.inner.children.lock().len()
    }

    /// Request cancellation of this token and every descendant.
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// One relaxed load — the kernel-loop fast path.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_propagates_to_descendants() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(!grandchild.is_cancelled());
        root.cancel();
        assert!(root.is_cancelled());
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn cancelling_a_child_spares_the_parent() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!root.is_cancelled());
        assert!(!b.is_cancelled());
    }

    #[test]
    fn child_of_cancelled_token_is_born_cancelled() {
        let root = CancelToken::new();
        root.cancel();
        assert!(root.child().is_cancelled());
    }

    #[test]
    fn dead_children_are_pruned_not_accumulated() {
        let root = CancelToken::new();
        for _ in 0..10_000 {
            let _short_lived = root.child();
        }
        assert!(
            root.tracked_children() <= 64,
            "tracked {} children after 10k short-lived requests",
            root.tracked_children()
        );
        // Live children must survive the sweeps and still cancel.
        let keep: Vec<CancelToken> = (0..100).map(|_| root.child()).collect();
        for _ in 0..10_000 {
            let _short_lived = root.child();
        }
        root.cancel();
        assert!(keep.iter().all(CancelToken::is_cancelled));
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
