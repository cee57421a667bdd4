//! Deterministic fault injection for resilience tests.
//!
//! Compiled only under the `fault-inject` cargo feature. A test arms one
//! [`Fault`] at a branch & bound node index; every node processed at or
//! after that index trips the fault until the returned [`FaultGuard`] is
//! dropped. The guard also holds a global lock so concurrently running
//! tests cannot interleave their injection plans.
//!
//! This module exists to *prove* the resilience machinery: that an
//! injected simplex breakdown aborts the solve with a structured error,
//! that a worker panic degrades the search instead of crashing the
//! process, that a warm start failing its residual check falls back to a
//! cold solve with the same answer, and that every rung of the layout escalation ladder fires.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The failure mode to force inside the branch & bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The node's LP reports numerical breakdown (cycling guard /
    /// residual blow-up), aborting the solve with `SolveError::Numerical`.
    SimplexNumerical,
    /// The worker processing the node panics mid-expansion.
    WorkerPanic,
    /// The node behaves as if the wall-clock budget just expired.
    Timeout,
    /// The node's warm re-optimized LP result fails its residual check,
    /// forcing the worker onto the cold-restart path.
    WarmResidual,
}

/// Panic payload used by [`Fault::WorkerPanic`], so tests can tell an
/// injected panic apart from a real one.
#[derive(Debug)]
pub struct InjectedPanic;

const DISARMED: u8 = 0;

static KIND: AtomicU8 = AtomicU8::new(DISARMED);
static AT_NODE: AtomicUsize = AtomicUsize::new(0);
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Serialises fault-injecting tests and disarms the fault on drop.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        KIND.store(DISARMED, Ordering::SeqCst);
    }
}

/// Arms `fault` for every branch & bound node index `>= at_node` (indices
/// count nodes in processing order, starting at 0). Stays armed until the
/// guard drops.
#[must_use]
pub fn arm(fault: Fault, at_node: usize) -> FaultGuard {
    // A previous test may have panicked while holding the lock (that is the
    // point of WorkerPanic); recover rather than propagate the poison.
    let lock = ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    AT_NODE.store(at_node, Ordering::SeqCst);
    let code = match fault {
        Fault::SimplexNumerical => 1,
        Fault::WorkerPanic => 2,
        Fault::Timeout => 3,
        Fault::WarmResidual => 4,
    };
    KIND.store(code, Ordering::SeqCst);
    FaultGuard { _lock: lock }
}

/// The fault to trip at `node`, if one is armed there.
pub(crate) fn armed_at(node: usize) -> Option<Fault> {
    let fault = match KIND.load(Ordering::SeqCst) {
        1 => Fault::SimplexNumerical,
        2 => Fault::WorkerPanic,
        3 => Fault::Timeout,
        4 => Fault::WarmResidual,
        _ => return None,
    };
    (node >= AT_NODE.load(Ordering::SeqCst)).then_some(fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_and_disarming() {
        {
            let _g = arm(Fault::WorkerPanic, 5);
            assert_eq!(armed_at(4), None);
            assert_eq!(armed_at(5), Some(Fault::WorkerPanic));
            assert_eq!(armed_at(99), Some(Fault::WorkerPanic));
        }
        assert_eq!(armed_at(99), None, "guard drop disarms");
    }
}
