//! The spill-encoder pool: background workers that sort spill batches
//! while the mapper keeps buffering (DESIGN.md §3 15/16).
//!
//! Hadoop's map task overlaps `io.sort.mb` spills with user map code via
//! `SpillThread`; synchronously sorting every full buffer on the map
//! thread serializes CPU that the paper's phase breakdowns show can hide
//! under the map phase. A [`SpillPool`] is a small engine-wide pool of
//! workers fed through a **bounded** queue: submission blocks when the
//! queue is full, so a mapper that out-produces the encoders backpressures
//! instead of buffering unboundedly. A map task's
//! [`finish`](crate::shuffle::SortSpillBuffer::finish) becomes a
//! drain-and-merge barrier that waits for its outstanding spills before
//! merging — the determinism contract (spills land in submission order)
//! is preserved, which the spill-count invariance test pins down.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs.
    not_empty: Condvar,
    /// Submitters wait here when the queue is at capacity (backpressure).
    not_full: Condvar,
    queue_cap: usize,
    /// Nanoseconds workers spent executing jobs — the numerator of the
    /// bench-smoke spill-overlap metric.
    busy_nanos: AtomicU64,
    /// Submissions that had to wait on a full queue.
    submit_waits: AtomicU64,
    jobs_run: AtomicU64,
}

/// Blocked submissions tolerated before the pool adds a worker: one
/// wait can be a scheduling blip, but sustained backpressure means the
/// encoders are the bottleneck, not the mappers.
const GROW_WAITS_PER_WORKER: u64 = 4;

/// A pool of spill-encoder worker threads with a bounded job queue.
/// The pool starts small and **grows itself** from observed submit-wait
/// pressure: every [`GROW_WAITS_PER_WORKER`] blocked submissions since
/// the last growth add one worker, up to `max_workers` — so an
/// all-spill workload gets encoder parallelism without idle threads on
/// map-light jobs. Dropping the pool drains remaining jobs and joins
/// the workers.
pub struct SpillPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    max_workers: usize,
    /// `submit_waits` value when the pool last grew (or started).
    grow_mark: AtomicU64,
    /// Workers added by pressure-driven growth.
    workers_grown: AtomicU64,
}

impl SpillPool {
    /// A fixed-size pool: `n_workers` threads behind a queue of at most
    /// `queue_cap` waiting jobs (both floored at 1). Never grows.
    pub fn new(n_workers: usize, queue_cap: usize) -> SpillPool {
        SpillPool::adaptive(n_workers, n_workers, queue_cap)
    }

    /// A pressure-scaled pool: starts with `initial_workers` threads and
    /// grows toward `max_workers` as submissions block on the full
    /// queue (all sizes floored at 1).
    pub fn adaptive(initial_workers: usize, max_workers: usize, queue_cap: usize) -> SpillPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_cap: queue_cap.max(1),
            busy_nanos: AtomicU64::new(0),
            submit_waits: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
        });
        let initial = initial_workers.max(1);
        let workers = (0..initial)
            .map(|i| spawn_worker(&shared, i))
            .collect();
        SpillPool {
            shared,
            workers: Mutex::new(workers),
            max_workers: max_workers.max(initial),
            grow_mark: AtomicU64::new(0),
            workers_grown: AtomicU64::new(0),
        }
    }

    /// Enqueue a job, blocking while the queue is at capacity. The wait
    /// is the designed backpressure: a mapper that emits faster than the
    /// encoders drain stalls here instead of growing memory — and
    /// repeated waits are the growth signal.
    pub fn submit(&self, job: Job) {
        let mut st = self.shared.state.lock();
        let mut waited = false;
        while st.queue.len() >= self.shared.queue_cap && !st.shutdown {
            waited = true;
            self.shared.not_full.wait(&mut st);
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.not_empty.notify_one();
        if waited {
            let waits = self.shared.submit_waits.fetch_add(1, Ordering::Relaxed) + 1;
            self.maybe_grow(waits);
        }
    }

    /// Add a worker if wait pressure since the last growth crossed the
    /// threshold and the cap allows it.
    fn maybe_grow(&self, waits: u64) {
        let mut workers = self.workers.lock();
        if workers.len() >= self.max_workers {
            return;
        }
        if waits < self.grow_mark.load(Ordering::Relaxed) + GROW_WAITS_PER_WORKER {
            return;
        }
        self.grow_mark.store(waits, Ordering::Relaxed);
        let handle = spawn_worker(&self.shared, workers.len());
        workers.push(handle);
        self.workers_grown.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds workers have spent executing jobs.
    pub fn busy_nanos(&self) -> u64 {
        self.shared.busy_nanos.load(Ordering::Relaxed)
    }

    /// Submissions that blocked on a full queue.
    pub fn submit_waits(&self) -> u64 {
        self.shared.submit_waits.load(Ordering::Relaxed)
    }

    /// Jobs executed to completion.
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs_run.load(Ordering::Relaxed)
    }

    /// Workers added by pressure-driven growth since construction.
    pub fn workers_grown(&self) -> u64 {
        self.workers_grown.load(Ordering::Relaxed)
    }

    pub fn n_workers(&self) -> usize {
        self.workers.lock().len()
    }
}

fn spawn_worker(shared: &Arc<PoolShared>, index: usize) -> JoinHandle<()> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("spill-encoder-{index}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn spill-encoder worker")
}

impl Drop for SpillPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers.get_mut().drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                shared.not_empty.wait(&mut st);
            }
        };
        shared.not_full.notify_one();
        let t0 = Instant::now();
        job();
        shared
            .busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_jobs_and_counts_busy_time() {
        let pool = SpillPool::new(2, 4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let hits = hits.clone();
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // drains the queue and joins
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn busy_nanos_accumulate() {
        let pool = SpillPool::new(1, 2);
        pool.submit(Box::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }));
        // Wait for the job to complete, then check the gauge.
        while pool.jobs_run() < 1 {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert!(pool.busy_nanos() >= 1_000_000, "≥1ms of busy time recorded");
    }

    #[test]
    fn bounded_queue_backpressures_submitters() {
        // One deliberately-slow worker and a queue of 1: the third
        // submission must block until the worker drains a slot.
        let pool = SpillPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = gate.clone();
            pool.submit(Box::new(move || {
                let (m, cv) = &*gate;
                let mut open = m.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            }));
        }
        pool.submit(Box::new(|| {})); // fills the queue
        let t0 = Instant::now();
        let opener = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let (m, cv) = &*gate;
                *m.lock() = true;
                cv.notify_all();
            })
        };
        pool.submit(Box::new(|| {})); // must wait for the gate to open
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(4),
            "submission should have blocked on the full queue"
        );
        assert!(pool.submit_waits() >= 1);
        opener.join().unwrap();
    }

    #[test]
    fn drop_with_empty_queue_exits_cleanly() {
        let pool = SpillPool::new(3, 2);
        drop(pool);
    }

    #[test]
    fn adaptive_pool_grows_under_sustained_backpressure() {
        // One slow worker behind a queue of 1: most of the 48
        // submissions block, and every GROW_WAITS_PER_WORKER blocked
        // submissions add a worker up to the cap of 4.
        let pool = SpillPool::adaptive(1, 4, 1);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..48 {
            let hits = hits.clone();
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_micros(500));
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            pool.submit_waits() >= GROW_WAITS_PER_WORKER,
            "the slow single worker must have caused backpressure"
        );
        assert!(
            pool.workers_grown() >= 1,
            "sustained waits must grow the pool (waits={})",
            pool.submit_waits()
        );
        assert!(pool.n_workers() > 1 && pool.n_workers() <= 4);
        drop(pool);
        assert_eq!(hits.load(Ordering::SeqCst), 48);
    }

    #[test]
    fn fixed_pool_never_grows() {
        let pool = SpillPool::new(1, 1);
        for _ in 0..24 {
            pool.submit(Box::new(|| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }));
        }
        assert_eq!(pool.workers_grown(), 0);
        assert_eq!(pool.n_workers(), 1);
    }
}
