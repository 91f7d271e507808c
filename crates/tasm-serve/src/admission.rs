//! Admission control: the bounded request queue between connection
//! threads and evaluation workers.
//!
//! Load shedding happens at the door: a request that would overflow the
//! queue (or arrive while the daemon drains) is refused with an
//! immediate `BUSY` instead of being buffered without bound — bounded
//! latency for everyone beats unbounded queues for no one. Admitted
//! requests are grouped into **shared batches**: a worker that
//! picks up a request on a tree document also takes the requests
//! *already queued* on that same document (up to [`MAX_BATCH`]) and
//! evaluates the group in ONE sweep of the document through the
//! resident driver. Nothing
//! waits for company: batches form only when a backlog does, so an
//! idle daemon adds no latency. Corpus requests are never grouped —
//! each carries its own request-local dictionary and is evaluated
//! alone, so grouping them would only serialize them on one worker.
//!
//! Drain correctness hangs on one counter: `outstanding` is incremented
//! at submit and decremented only after the connection thread has
//! written the response bytes (the [`OutstandingToken`] RAII guard), so
//! [`Admission::wait_idle`] returning `true` means every admitted
//! request's answer reached its socket.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::conn::ResponseSlot;
use crate::Doc;
use tasm_tree::{LabelDict, Tree};

/// Most requests one worker evaluates under a single shared sweep.
const MAX_BATCH: usize = 16;

/// One admitted query waiting for (or undergoing) evaluation.
pub(crate) struct PendingRequest {
    /// The target document (shared with the store; batch compatibility
    /// is pointer identity on this Arc).
    pub(crate) doc: Arc<Doc>,
    /// The query: encoded into a tree document's dictionary, or, for a
    /// corpus, in the label space of `dict`.
    pub(crate) query: Tree,
    /// Corpus requests: the request-local dictionary `query` was parsed
    /// into (each shard encodes from it). `None` for tree documents,
    /// whose request carries only the encoded tree.
    pub(crate) dict: Option<LabelDict>,
    /// Ranking size (validated `>= 1` at the connection layer).
    pub(crate) k: usize,
    /// The effective deadline duration, for error messages.
    pub(crate) timeout_ms: u64,
    /// Absolute expiry instant, fixed at admission.
    pub(crate) deadline_at: Instant,
    /// Whether the client asked for the `STATS` line (`stats=1`).
    pub(crate) stats: bool,
    /// The query root's label name (fault-injection hook + log line).
    pub(crate) root_label: String,
    /// The original request line, logged verbatim when evaluation
    /// panics.
    pub(crate) raw: String,
    /// Where the worker delivers the response.
    pub(crate) slot: ResponseSlot,
}

/// The request was shed: queue full or the daemon is draining.
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

struct State {
    queue: VecDeque<PendingRequest>,
    draining: bool,
    /// Requests admitted whose responses have not hit their sockets yet.
    outstanding: usize,
}

/// The bounded admission queue shared by connections and workers.
pub(crate) struct Admission {
    state: Mutex<State>,
    /// Workers wait here for queue items (and drain wake-ups).
    work_cv: Condvar,
    /// `drain` waits here for `outstanding == 0`.
    idle_cv: Condvar,
    capacity: usize,
    /// Requests refused with `BUSY` (overload visibility).
    shed: AtomicUsize,
}

impl Admission {
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Admission {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
                outstanding: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            capacity: capacity.max(1),
            shed: AtomicUsize::new(0),
        })
    }

    /// The state lock, recovering from poisoning: a panicking worker is
    /// isolated by design and must not wedge admission for everyone.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `req` or sheds it ([`Busy`]) when the queue is full or
    /// the daemon is draining. On success the returned token MUST be
    /// dropped only after the response has been written.
    pub(crate) fn submit(self: &Arc<Self>, req: PendingRequest) -> Result<OutstandingToken, Busy> {
        let mut st = self.lock_state();
        if st.draining || st.queue.len() >= self.capacity {
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Busy);
        }
        st.queue.push_back(req);
        st.outstanding += 1;
        self.work_cv.notify_one();
        Ok(OutstandingToken {
            admission: self.clone(),
        })
    }

    /// Worker entry: blocks for the next batch — the oldest request
    /// plus the requests already queued on the same tree document —
    /// or `None` once the daemon drains and the queue is empty, the
    /// worker's signal to exit.
    pub(crate) fn next_batch(&self) -> Option<Vec<PendingRequest>> {
        let mut st = self.lock_state();
        loop {
            if let Some(first) = st.queue.pop_front() {
                let doc = first.doc.clone();
                let mut batch = vec![first];
                if doc.tree().is_some() {
                    let mut i = 0;
                    while i < st.queue.len() && batch.len() < MAX_BATCH {
                        if Arc::ptr_eq(&st.queue[i].doc, &doc) {
                            let req = st.queue.remove(i).expect("index in bounds");
                            batch.push(req);
                        } else {
                            i += 1;
                        }
                    }
                }
                return Some(batch);
            }
            if st.draining {
                return None;
            }
            st = self
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admitting (everything new is shed with `BUSY`) and wakes
    /// every waiting worker so the queue drains.
    pub(crate) fn begin_drain(&self) {
        self.lock_state().draining = true;
        self.work_cv.notify_all();
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
    use tasm_index::Corpus;
    use tasm_tree::bracket;

    fn doc() -> Arc<Doc> {
        let mut dict = LabelDict::new();
        let tree = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        Arc::new(Doc::new("d", tree, dict))
    }

    fn request(doc: &Arc<Doc>) -> PendingRequest {
        let mut dict = LabelDict::new();
        let query = bracket::parse("{a}", &mut dict).unwrap();
        PendingRequest {
            doc: doc.clone(),
            query,
            dict: doc.corpus().is_some().then_some(dict),
            k: 1,
            timeout_ms: 1000,
            deadline_at: Instant::now() + Duration::from_secs(1),
            stats: false,
            root_label: "a".into(),
            raw: "QUERY doc=d k=1 q=<a/>".into(),
            slot: ResponseSlot::new(),
        }
    }

    #[test]
    fn overflow_is_shed_with_busy() {
        let adm = Admission::new(2);
        let d = doc();
        let _t1 = adm.submit(request(&d)).unwrap();
        let _t2 = adm.submit(request(&d)).unwrap();
        assert!(adm.submit(request(&d)).is_err());
        assert_eq!(adm.shed_count(), 1);
    }

    #[test]
    fn draining_sheds_everything_and_wakes_workers() {
        let adm = Admission::new(8);
        adm.begin_drain();
        assert!(adm.submit(request(&doc())).is_err());
        assert_eq!(adm.next_batch().map(|b| b.len()), None);
    }

    #[test]
    fn compatible_requests_batch_under_one_scan() {
        let adm = Admission::new(8);
        let d = doc();
        let other = doc(); // different Arc: incompatible by identity
        let _t: Vec<_> = (0..3).map(|_| adm.submit(request(&d)).unwrap()).collect();
        let _o = adm.submit(request(&other)).unwrap();
        let batch = adm.next_batch().unwrap();
        assert_eq!(batch.len(), 3, "same-doc requests share the batch");
        let batch2 = adm.next_batch().unwrap();
        assert_eq!(batch2.len(), 1);
        assert!(Arc::ptr_eq(&batch2[0].doc, &other));
    }

    #[test]
    fn max_batch_caps_the_group() {
        let adm = Admission::new(64);
        let d = doc();
        let _t: Vec<_> = (0..MAX_BATCH + 3)
            .map(|_| adm.submit(request(&d)).unwrap())
            .collect();
        assert_eq!(adm.next_batch().unwrap().len(), MAX_BATCH);
        assert_eq!(adm.next_batch().unwrap().len(), 3);
    }

    #[test]
    fn corpus_requests_are_never_grouped() {
        let dir = std::env::temp_dir().join(format!(
            "tasm-serve-admission-corpus-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::create(&dir).unwrap();
        let c = Arc::new(Doc::new_corpus("c", Arc::new(corpus)));
        let d = doc();
        let adm = Admission::new(8);
        let _t: Vec<_> = (0..3)
            .flat_map(|_| [adm.submit(request(&c)), adm.submit(request(&d))])
            .map(Result::unwrap)
            .collect();
        // Corpus requests are evaluated one by one, so each is its own
        // batch and another worker can take the next; the interleaved
        // tree requests still share one scan.
        assert_eq!(adm.next_batch().unwrap().len(), 1);
        assert_eq!(adm.next_batch().unwrap().len(), 3);
        assert_eq!(adm.next_batch().unwrap().len(), 1);
        assert_eq!(adm.next_batch().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn admission_stress_loses_no_request_wakeup_or_worker() {
        for seed in 0..24u64 {
            let (done, finished) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                admission_stress_run(seed);
                let _ = done.send(());
            });
            if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                finished.recv_timeout(Duration::from_secs(60))
            {
                panic!("seed {seed}: hung — a lost wakeup or a worker that never exited");
            }
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Producers submit numbered requests over two documents into a
    /// small queue, retrying on `BUSY`; workers take batches until the
    /// drain. Every admitted request must reach exactly one worker, in
    /// a batch of one document, every worker must exit, and the drain
    /// must see every token dropped.
    fn admission_stress_run(seed: u64) {
        let mut rng = SplitMix(seed);
        let producers = 1 + rng.below(3) as usize;
        let workers = 1 + rng.below(4) as usize;
        let per_producer = 20 + rng.below(80) as usize;
        let adm = Admission::new(1 + rng.below(6) as usize);
        let docs = [doc(), doc()];
        let taken = Mutex::new(Vec::new());
        let start = std::sync::Barrier::new(producers + workers);
        let tokens: Vec<OutstandingToken> = std::thread::scope(|scope| {
            let worker_handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let (adm, taken, start) = (&adm, &taken, &start);
                    scope.spawn(move || {
                        let mut rng = SplitMix(seed * 31 + w);
                        start.wait();
                        while let Some(batch) = adm.next_batch() {
                            assert!(batch.len() <= MAX_BATCH);
                            assert!(batch.iter().all(|r| Arc::ptr_eq(&r.doc, &batch[0].doc)));
                            let ids = batch.iter().map(|r| r.raw.parse::<usize>().unwrap());
                            taken.lock().unwrap().extend(ids);
                            if rng.below(4) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let producer_handles: Vec<_> = (0..producers)
                .map(|p| {
                    let (adm, docs, start) = (&adm, &docs, &start);
                    scope.spawn(move || {
                        let mut rng = SplitMix(seed * 131 + p as u64);
                        start.wait();
                        let mut tokens = Vec::new();
                        for i in 0..per_producer {
                            let doc = &docs[rng.below(2) as usize];
                            loop {
                                let mut req = request(doc);
                                req.raw = (p * 1000 + i).to_string();
                                match adm.submit(req) {
                                    Ok(token) => {
                                        tokens.push(token);
                                        break;
                                    }
                                    Err(Busy) => std::thread::yield_now(),
                                }
                            }
                        }
                        tokens
                    })
                })
                .collect();
            let tokens: Vec<OutstandingToken> = producer_handles
                .into_iter()
                .flat_map(|h| h.join().expect("producer"))
                .collect();
            adm.begin_drain();
            for h in worker_handles {
                h.join().expect("worker");
            }
            tokens
        });
        let mut taken = taken.into_inner().unwrap();
        taken.sort_unstable();
        let mut want: Vec<usize> = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(taken, want, "seed {seed}: a request was lost or doubled");
        assert!(!adm.wait_idle(Duration::ZERO), "tokens are still alive");
        drop(tokens);
        assert!(adm.wait_idle(Duration::from_secs(5)), "seed {seed}");
    }

    #[test]
    fn wait_idle_tracks_the_outstanding_tokens() {
        let adm = Admission::new(8);
        let d = doc();
        let t1 = adm.submit(request(&d)).unwrap();
        adm.begin_drain();
        assert!(!adm.wait_idle(Duration::from_millis(10)), "t1 is alive");
        let _ = adm.next_batch(); // worker picks it up; still outstanding
        assert!(!adm.wait_idle(Duration::from_millis(10)));
        drop(t1); // response written
        assert!(adm.wait_idle(Duration::from_millis(100)));
    }
}
