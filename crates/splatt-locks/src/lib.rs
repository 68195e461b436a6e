//! Mutex-pool substrate for the splatt-rs workspace.
//!
//! SPLATT's lock-based MTTKRP kernels protect output-matrix rows with a
//! pool of mutexes hashed by row index. The Chapel port's biggest
//! scalability bug (paper Section V-D.2, Figure 4) was the *kind* of lock
//! in that pool:
//!
//! * Chapel `sync` variables under Qthreads put the waiting task to sleep —
//!   catastrophic for the MTTKRP's very short critical sections. Our
//!   `SleepLock` reproduces that cost model (park immediately).
//! * The fix was `atomic bool` + `testAndSet()` + task-yield spinning
//!   (paper Listing 6) — our `SpinLock` is a direct translation.
//! * Chapel's `fifo` tasking layer implements `sync` with spin-ish OS
//!   mutexes, which the paper found competitive — our `OsLock`
//!   (`parking_lot::Mutex`: adaptive spin, then park) plays that role.
//!
//! All three implement `RawLock` and plug into [`LockPool`], which is
//! cache-line padded and hashed exactly like SPLATT's `mutex_pool`.

mod pool;
mod raw;

pub use pool::{LockPool, DEFAULT_POOL_SIZE};
pub use raw::LockStrategy;
