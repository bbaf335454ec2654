//! The admission gate: bounds how many requests execute at once.
//!
//! Requests run inline on their connection's thread (a connection is
//! serial, so there is nothing to hand off); the gate only decides
//! *whether* a request may run now. It counts `threads` running slots
//! and `queue_cap` waiting slots:
//!
//! * a free running slot is taken at once — no thread is woken;
//! * with every running slot taken, the request waits on a condvar if a
//!   waiting slot is free;
//! * otherwise [`Admission::admit`] refuses (`None`) immediately, which
//!   the server answers with the typed `overloaded` error.
//!
//! A running slot is a [`Slot`] guard, released on drop — also when the
//! request panics. [`Admission::shutdown`] closes the gate to new
//! requests and waits until every admitted one (running or waiting) has
//! finished. Locks are poison-recovering ([`lock_recover`]).

use std::sync::{Condvar, Mutex, PoisonError};

use sit_obs::sync::lock_recover;

#[derive(Default)]
struct Gate {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// A counting gate over `threads` running and `queue_cap` waiting
/// requests.
pub struct Admission {
    threads: usize,
    queue_cap: usize,
    gate: Mutex<Gate>,
    /// Signalled when a slot frees while requests wait or a drain does.
    released: Condvar,
}

/// A held running slot; dropping it lets the next request run.
pub struct Slot<'a>(&'a Admission);

impl Admission {
    /// A gate letting `threads` requests run at once and `queue_cap`
    /// more wait for a slot (each at least 1).
    pub fn new(threads: usize, queue_cap: usize) -> Admission {
        Admission {
            threads: threads.max(1),
            queue_cap: queue_cap.max(1),
            gate: Mutex::new(Gate::default()),
            released: Condvar::new(),
        }
    }

    /// Take a running slot, waiting for one if a waiting slot is free;
    /// `None` at once when both are full or the gate is closed.
    pub fn admit(&self) -> Option<Slot<'_>> {
        let mut gate = lock_recover(&self.gate);
        if gate.closed || (gate.running >= self.threads && gate.waiting >= self.queue_cap) {
            return None;
        }
        gate.waiting += 1;
        while gate.running >= self.threads {
            gate = self
                .released
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
        gate.waiting -= 1;
        gate.running += 1;
        Some(Slot(self))
    }

    /// Requests holding a running slot (diagnostics).
    pub fn running(&self) -> usize {
        lock_recover(&self.gate).running
    }

    /// Requests waiting for a running slot (diagnostics).
    pub fn waiting(&self) -> usize {
        lock_recover(&self.gate).waiting
    }

    /// Close the gate to new requests and wait until every admitted one
    /// has finished. Waiting requests still run. Idempotent.
    pub fn shutdown(&self) {
        let mut gate = lock_recover(&self.gate);
        gate.closed = true;
        while gate.running > 0 || gate.waiting > 0 {
            gate = self
                .released
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let admission = self.0;
        let mut gate = lock_recover(&admission.gate);
        gate.running -= 1;
        // Condvar notifies are syscalls even with nobody waiting, so the
        // uncontended path skips them.
        if gate.waiting > 0 || gate.closed {
            admission.released.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    /// Spin until `cond` holds (bounded, so a bug fails instead of hangs).
    fn wait_until(cond: impl Fn() -> bool) {
        for _ in 0..5000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("condition not reached within 5 s");
    }

    /// Hold a waiting slot from a helper thread; it runs (and returns)
    /// once a running slot frees.
    fn spawn_waiter(gate: &Arc<Admission>) -> std::thread::JoinHandle<()> {
        let gate = Arc::clone(gate);
        std::thread::spawn(move || drop(gate.admit().expect("waiter admitted")))
    }

    #[test]
    fn rejects_when_running_and_waiting_slots_are_full() {
        let gate = Arc::new(Admission::new(2, 1));
        let first = gate.admit().unwrap();
        let second = gate.admit().unwrap();
        assert_eq!(gate.running(), 2);
        let waiter = spawn_waiter(&gate);
        wait_until(|| gate.waiting() == 1);
        assert!(gate.admit().is_none());
        drop((first, second));
        waiter.join().unwrap();
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
    }

    #[test]
    fn a_waiter_proceeds_when_a_slot_frees() {
        let gate = Arc::new(Admission::new(1, 4));
        let held = gate.admit().unwrap();
        let waiter = spawn_waiter(&gate);
        wait_until(|| gate.waiting() == 1);
        assert!(
            !waiter.is_finished(),
            "waiter must block while the slot is held"
        );
        drop(held);
        waiter.join().unwrap();
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
    }

    #[test]
    fn shutdown_waits_for_in_flight_work_and_is_idempotent() {
        let gate = Arc::new(Admission::new(1, 4));
        let held = gate.admit().unwrap();
        let waiter = spawn_waiter(&gate);
        wait_until(|| gate.waiting() == 1);
        let drainer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.shutdown())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drainer.is_finished(), "drain must wait for in-flight work");
        drop(held);
        // The queued waiter still runs, then the drain completes.
        waiter.join().unwrap();
        drainer.join().unwrap();
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
        gate.shutdown();
    }

    #[test]
    fn a_closed_gate_rejects_new_requests() {
        let gate = Admission::new(4, 4);
        gate.shutdown();
        assert!(gate.admit().is_none());
    }

    #[test]
    fn a_slot_is_released_when_its_request_panics() {
        let gate = Admission::new(1, 1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _slot = gate.admit().unwrap();
            panic!("request panic must release its slot");
        }));
        assert!(result.is_err());
        assert_eq!(gate.running(), 0);
        // The single slot is usable again, and drain does not wedge.
        drop(gate.admit().unwrap());
        gate.shutdown();
    }
}
