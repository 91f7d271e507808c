//! Admission control: one FIFO gate in front of evaluation.
//!
//! Each connection thread evaluates its own `QUERY`, after it passes
//! this gate. At most `slots` evaluations run at once, and at most
//! `capacity` admitted requests wait for a slot. A request that would
//! overflow the wait (or arrive while the daemon drains) is refused
//! with an immediate `BUSY` instead of being buffered without bound —
//! bounded latency for everyone beats unbounded queues for no one.
//! Waiting requests start in arrival order: each takes a ticket when it
//! is admitted, and a free slot goes to the lowest ticket still waiting.
//!
//! The gate holds counters and a pool of at most `slots` warm
//! [`TasmWorkspace`]s, not requests. A running request borrows a
//! workspace with its [`Slot`] and hands both back when it finishes,
//! before its response is written, so a slow reader never holds a slot.
//!
//! Drain correctness hangs on one counter: `outstanding` is incremented
//! at admission and decremented only after the connection thread has
//! written the response bytes (the [`OutstandingToken`] RAII guard), so
//! [`Admission::wait_idle`] returning `true` means every admitted
//! request's answer reached its socket.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use tasm_core::TasmWorkspace;

/// The request was shed: the wait is full or the daemon is draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Busy;

/// RAII guard pairing every admitted request with exactly one
/// `outstanding` decrement — even when the connection dies before the
/// response is written.
pub(crate) struct OutstandingToken {
    admission: Arc<Admission>,
}

impl Drop for OutstandingToken {
    fn drop(&mut self) {
        let mut st = self.admission.lock_state();
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.admission.idle_cv.notify_all();
        }
    }
}

/// One evaluation slot and the warm workspace that comes with it.
///
/// Dropping it frees the slot for the next request in line. The
/// workspace goes back to the pool, unless the thread is unwinding from
/// a panic: that workspace was abandoned mid-update and must never be
/// reused.
pub(crate) struct Slot {
    admission: Arc<Admission>,
    ws: Option<TasmWorkspace>,
    /// The request's place in arrival order (named in the panic log).
    pub(crate) ticket: u64,
}

impl Slot {
    /// The workspace to evaluate on.
    pub(crate) fn workspace(&mut self) -> &mut TasmWorkspace {
        self.ws
            .as_mut()
            .expect("a slot holds its workspace until dropped")
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut st = self.admission.lock_state();
        if !thread::panicking() {
            st.pool.extend(self.ws.take());
        }
        st.running -= 1;
        if st.started < st.admitted {
            self.admission.turn_cv.notify_all();
        }
    }
}

struct State {
    /// Tickets handed out: the next admitted request takes this one.
    admitted: u64,
    /// Tickets whose evaluation has started; the holder of this ticket
    /// is the next to start.
    started: u64,
    /// Evaluations holding a [`Slot`] now.
    running: usize,
    /// Workspaces of finished evaluations, ready for the next.
    pool: Vec<TasmWorkspace>,
    draining: bool,
    /// Requests admitted whose responses have not hit their sockets yet.
    outstanding: usize,
}

/// The admission gate shared by every connection thread.
pub(crate) struct Admission {
    state: Mutex<State>,
    /// Admitted requests wait here for their turn and a free slot.
    turn_cv: Condvar,
    /// `drain` waits here for `outstanding == 0`.
    idle_cv: Condvar,
    /// Evaluations allowed at once.
    pub(crate) slots: usize,
    /// Admitted requests allowed to wait for a slot.
    capacity: usize,
    /// Requests refused with `BUSY` (overload visibility).
    shed: AtomicUsize,
}

impl Admission {
    pub(crate) fn new(slots: usize, capacity: usize) -> Arc<Self> {
        Arc::new(Admission {
            state: Mutex::new(State {
                admitted: 0,
                started: 0,
                running: 0,
                pool: Vec::new(),
                draining: false,
                outstanding: 0,
            }),
            turn_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            slots: slots.max(1),
            capacity: capacity.max(1),
            shed: AtomicUsize::new(0),
        })
    }

    /// The state lock, recovering from poisoning: every update leaves
    /// the counters valid, and a panicking request is isolated by
    /// design and must not wedge admission for everyone.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a request and blocks until it may evaluate: its turn in
    /// arrival order has come and a slot is free. Sheds it ([`Busy`])
    /// when `capacity` admitted requests already wait or the daemon is
    /// draining. Drop the [`Slot`] when the evaluation ends, and the
    /// token only after the response has been written.
    pub(crate) fn enter(self: &Arc<Self>) -> Result<(OutstandingToken, Slot), Busy> {
        let mut st = self.lock_state();
        if st.draining || st.admitted - st.started >= self.capacity as u64 {
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Busy);
        }
        let ticket = st.admitted;
        st.admitted += 1;
        st.outstanding += 1;
        while st.started != ticket || st.running == self.slots {
            st = self
                .turn_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.started += 1;
        st.running += 1;
        if st.started < st.admitted && st.running < self.slots {
            // The next ticket may start too.
            self.turn_cv.notify_all();
        }
        let ws = st.pool.pop();
        drop(st);
        let token = OutstandingToken {
            admission: self.clone(),
        };
        let slot = Slot {
            admission: self.clone(),
            ws: Some(ws.unwrap_or_default()),
            ticket,
        };
        Ok((token, slot))
    }

    /// Stops admitting: everything new is shed with `BUSY`, while the
    /// requests already admitted still run in turn.
    pub(crate) fn begin_drain(&self) {
        self.lock_state().draining = true;
    }

    /// Blocks until every admitted request's response has been written
    /// (`true`) or `limit` elapses first (`false`).
    pub(crate) fn wait_idle(&self, limit: Duration) -> bool {
        let end = Instant::now() + limit;
        let mut st = self.lock_state();
        while st.outstanding > 0 {
            let now = Instant::now();
            if now >= end {
                return false;
            }
            let (s, _) = self
                .idle_cv
                .wait_timeout(st, end - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = s;
        }
        true
    }

    /// Requests shed with `BUSY` so far.
    pub(crate) fn shed_count(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// Blocks until `n` admitted requests wait for a slot.
    fn await_waiting(adm: &Admission, n: u64) {
        loop {
            let st = adm.lock_state();
            if st.admitted - st.started == n {
                return;
            }
            drop(st);
            thread::yield_now();
        }
    }

    #[test]
    fn overflow_is_shed_with_busy() {
        let adm = Admission::new(1, 2);
        let (_t0, held) = adm.enter().unwrap();
        thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| adm.enter().is_ok()))
                .collect();
            await_waiting(&adm, 2);
            assert_eq!(adm.enter().err(), Some(Busy), "the wait is full");
            assert_eq!(adm.shed_count(), 1);
            drop(held);
            for w in waiters {
                assert!(w.join().unwrap(), "admitted requests still run");
            }
        });
        assert_eq!(adm.shed_count(), 1);
    }

    #[test]
    fn draining_sheds_everything_but_admitted_requests_still_run() {
        let adm = Admission::new(1, 8);
        let (t0, held) = adm.enter().unwrap();
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let (token, slot) = adm.enter().unwrap();
                drop(slot);
                drop(token);
            });
            await_waiting(&adm, 1);
            adm.begin_drain();
            assert_eq!(adm.enter().err(), Some(Busy));
            drop(held);
            waiter.join().unwrap();
        });
        drop(t0);
        assert!(adm.wait_idle(Duration::from_secs(5)));
        assert_eq!(adm.shed_count(), 1);
    }

    #[test]
    fn wait_idle_tracks_the_outstanding_tokens() {
        let adm = Admission::new(2, 8);
        let (t1, slot) = adm.enter().unwrap();
        adm.begin_drain();
        assert!(!adm.wait_idle(Duration::from_millis(10)), "t1 is alive");
        drop(slot); // evaluated; the response is not written yet
        assert!(!adm.wait_idle(Duration::from_millis(10)));
        drop(t1); // response written
        assert!(adm.wait_idle(Duration::from_millis(100)));
    }

    #[test]
    fn a_slot_returns_its_workspace_unless_its_thread_panicked() {
        let adm = Admission::new(2, 8);
        let (_t, slot) = adm.enter().unwrap();
        drop(slot);
        assert_eq!(adm.lock_state().pool.len(), 1);
        let (_t, slot) = adm.enter().unwrap();
        assert!(adm.lock_state().pool.is_empty(), "the warm one is reused");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("evaluation failed");
        }));
        assert!(caught.is_err());
        let st = adm.lock_state();
        assert!(st.pool.is_empty(), "a panicked workspace is dropped");
        assert_eq!(st.running, 0, "but its slot is freed");
    }

    /// A small seeded generator (SplitMix64): the stress runs below
    /// replay exactly from their seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn gate_stress_keeps_order_and_bounds_and_loses_no_request_or_wakeup() {
        for seed in 0..32u64 {
            let (done, finished) = std::sync::mpsc::channel();
            let runner = thread::spawn(move || {
                gate_stress_run(seed);
                let _ = done.send(());
            });
            if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                finished.recv_timeout(Duration::from_secs(60))
            {
                panic!("seed {seed}: hung — a lost wakeup or a leaked slot");
            }
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Connection threads enter a gate of 1–4 slots and a wait of 1–6,
    /// retrying on `BUSY`, and hold their slot for a random spell. No
    /// more than `slots` evaluations may overlap; they start in ticket
    /// order; every admitted ticket runs exactly once; a `BUSY` comes
    /// only when `capacity` others may have been waiting; and the drain
    /// sees every token.
    fn gate_stress_run(seed: u64) {
        let mut rng = SplitMix(seed);
        let conns = 1 + rng.below(8) as usize;
        let slots = 1 + rng.below(4) as usize;
        let capacity = 1 + rng.below(6) as usize;
        let per_conn = 20 + rng.below(60) as usize;
        let adm = Admission::new(slots, capacity);
        // Test-side ledger: `calls` counts `enter` calls before they
        // are made, `starts` and `sheds` their outcomes after them.
        let (calls, starts, sheds) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let running = AtomicUsize::new(0);
        let started = Mutex::new(Vec::new());
        let barrier = Barrier::new(conns);
        let tokens: Vec<OutstandingToken> = thread::scope(|scope| {
            let handles: Vec<_> = (0..conns as u64)
                .map(|c| {
                    let (adm, running, started, barrier) = (&adm, &running, &started, &barrier);
                    let (calls, starts, sheds) = (&calls, &starts, &sheds);
                    scope.spawn(move || {
                        let mut rng = SplitMix(seed * 131 + c);
                        barrier.wait();
                        let mut tokens = Vec::new();
                        for _ in 0..per_conn {
                            let (token, slot) = loop {
                                let settled =
                                    starts.load(Ordering::SeqCst) + sheds.load(Ordering::SeqCst);
                                calls.fetch_add(1, Ordering::SeqCst);
                                match adm.enter() {
                                    Ok(entered) => break entered,
                                    Err(Busy) => {
                                        sheds.fetch_add(1, Ordering::SeqCst);
                                        // Every request waiting at the shed
                                        // was called by now and had not
                                        // settled before this call.
                                        let others = calls.load(Ordering::SeqCst) - 1 - settled;
                                        assert!(
                                            others >= capacity as u64,
                                            "seed {seed}: BUSY with at most {others} waiting"
                                        );
                                        thread::yield_now();
                                    }
                                }
                            };
                            starts.fetch_add(1, Ordering::SeqCst);
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(now <= slots, "seed {seed}: {now} evaluations overlap");
                            assert!(
                                slot.ticket < adm.lock_state().started,
                                "seed {seed}: ticket {} started out of turn",
                                slot.ticket
                            );
                            started.lock().unwrap().push(slot.ticket);
                            for _ in 0..rng.below(3) {
                                thread::yield_now();
                            }
                            running.fetch_sub(1, Ordering::SeqCst);
                            drop(slot);
                            tokens.push(token);
                        }
                        tokens
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("connection thread"))
                .collect()
        });
        let started = started.into_inner().unwrap();
        let total = (conns * per_conn) as u64;
        if slots == 1 {
            // One slot: the log is the start order itself.
            assert!(
                started.iter().copied().eq(0..total),
                "seed {seed}: out of arrival order"
            );
        }
        let mut tickets = started;
        tickets.sort_unstable();
        assert!(
            tickets.iter().copied().eq(0..total),
            "seed {seed}: a request was lost or doubled"
        );
        adm.begin_drain();
        assert_eq!(adm.enter().err(), Some(Busy), "draining sheds");
        assert!(!adm.wait_idle(Duration::ZERO), "tokens are still alive");
        drop(tokens);
        assert!(adm.wait_idle(Duration::from_secs(5)), "seed {seed}");
    }
}
