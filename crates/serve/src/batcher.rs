//! Work-conserving micro-batching over one [`Engine`].
//!
//! Requests enter a bounded admission queue; a single batcher thread
//! blocks for the next request, then takes whatever else is already
//! queued — arrivals that piled up while the previous batch ran — into one
//! `Engine::classify` call. It flushes as soon as the batch reaches
//! `max_batch` documents or the queue is empty: an idle server answers a
//! lone request at once, and a loaded one still coalesces, with no timer
//! on either path (continuous batching).
//!
//! Coalescing is *free* of output risk: every engine method scores each
//! document independently (index-ordered chunking, per-row forward passes),
//! so a document's prediction is byte-identical whether it is classified
//! alone or inside any batch. The batching-invariance property test in
//! `structmine-engine` pins that contract; this module merely relies on it.

use std::sync::mpsc;
use std::sync::Arc;

use structmine_engine::{Engine, Prediction};
use structmine_store::obs;

/// Batching knobs (`--max-batch`, `--queue-cap`).
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Stop coalescing once a batch holds this many documents.
    pub max_batch: usize,
    /// Bounded admission queue length, in *requests*; an arriving request
    /// that finds the queue full is rejected with 503 instead of piling up.
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            queue_cap: 64,
        }
    }
}

/// One queued request: its documents and the channel its reply goes to.
struct Job {
    lines: Vec<String>,
    reply: mpsc::Sender<Result<Vec<Prediction>, String>>,
}

/// A cloneable handle for submitting work to the batcher thread.
#[derive(Clone)]
pub struct BatchQueue {
    tx: mpsc::SyncSender<Job>,
}

impl BatchQueue {
    /// Submit `lines` for classification. Returns the receiver the reply
    /// will arrive on, or `None` when the admission queue is full (503).
    pub fn submit(
        &self,
        lines: Vec<String>,
    ) -> Option<mpsc::Receiver<Result<Vec<Prediction>, String>>> {
        let (reply, rx) = mpsc::channel();
        match self.tx.try_send(Job { lines, reply }) {
            Ok(()) => Some(rx),
            Err(_) => {
                obs::counter_add("serve.rejections", 1);
                None
            }
        }
    }
}

/// The batcher thread plus its admission queue. Dropping the last
/// [`BatchQueue`] *and* calling [`Batcher::shutdown`] drains the queue,
/// flushes the final micro-batch, and joins the thread.
pub struct Batcher {
    queue: BatchQueue,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Spawn the batcher thread over `engine`. A failed spawn is an IO
    /// error for the caller to surface — a server without a batcher cannot
    /// answer anything, so it must not start.
    pub fn start(engine: Arc<Engine>, cfg: BatcherConfig) -> std::io::Result<Batcher> {
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
        let handle = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || run(engine, cfg, rx))?;
        Ok(Batcher {
            queue: BatchQueue { tx },
            handle: Some(handle),
        })
    }

    /// A handle for submitting requests.
    pub fn queue(&self) -> BatchQueue {
        self.queue.clone()
    }

    /// Close the queue and wait for the final micro-batch to flush.
    pub fn shutdown(mut self) {
        // Replace the held sender with a dangling one so the channel
        // disconnects once in-flight handlers drop their clones.
        let (dangling, _) = mpsc::sync_channel(1);
        self.queue.tx = dangling;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Why a batch was flushed; becomes a counter name on the run report.
#[derive(Debug, PartialEq, Eq)]
enum Flush {
    /// The batch reached `max_batch` documents.
    Size,
    /// The queue was empty: nothing else was waiting, so flush at once.
    Idle,
    /// The queue closed (shutdown): this is the final batch.
    Drain,
}

fn run(engine: Arc<Engine>, cfg: BatcherConfig, rx: mpsc::Receiver<Job>) {
    while let Ok(first) = rx.recv() {
        let (jobs, n_docs, flush) = next_batch(first, &rx, cfg.max_batch);
        obs::counter_add(
            match flush {
                Flush::Size => "serve.flushes_size",
                Flush::Idle => "serve.flushes_idle",
                Flush::Drain => "serve.flushes_drain",
            },
            1,
        );
        classify_batch(&engine, jobs, n_docs);
    }
}

/// Form one batch: `first` plus every job already queued, until the batch
/// holds `max_batch` documents. Never waits. The job that crosses
/// `max_batch` stays in the batch (requests are never split), so a batch
/// may overshoot by less than one request. Returns the jobs, their document
/// count, and why the batch closed.
fn next_batch(first: Job, rx: &mpsc::Receiver<Job>, max_batch: usize) -> (Vec<Job>, usize, Flush) {
    let mut n_docs = first.lines.len();
    let mut jobs = vec![first];
    while n_docs < max_batch {
        match rx.try_recv() {
            Ok(job) => {
                n_docs += job.lines.len();
                jobs.push(job);
            }
            Err(mpsc::TryRecvError::Empty) => return (jobs, n_docs, Flush::Idle),
            Err(mpsc::TryRecvError::Disconnected) => return (jobs, n_docs, Flush::Drain),
        }
    }
    (jobs, n_docs, Flush::Size)
}

/// One coalesced `Engine::classify` call, results scattered back per job.
fn classify_batch(engine: &Engine, mut jobs: Vec<Job>, n_docs: usize) {
    obs::counter_add("serve.batches", 1);
    obs::counter_add("serve.docs", n_docs as u64);
    // Move the lines out of the jobs instead of cloning every string per
    // batch; reply scattering below only needs the per-job counts.
    let counts: Vec<usize> = jobs.iter().map(|j| j.lines.len()).collect();
    let mut all: Vec<String> = Vec::with_capacity(n_docs);
    for job in &mut jobs {
        all.append(&mut job.lines);
    }
    let result = {
        let _span = obs::span("serve/batch-classify");
        engine.classify(&all)
    };
    match result {
        Ok(preds) => {
            let mut offset = 0;
            for (job, n) in jobs.into_iter().zip(counts) {
                // A receiver may have hung up (client gone); that is its
                // problem, not the batch's.
                let _ = job.reply.send(Ok(preds[offset..offset + n].to_vec()));
                offset += n;
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for job in jobs {
                let _ = job.reply.send(Err(msg.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job of `docs` documents whose reply nobody reads.
    fn job(docs: usize) -> Job {
        Job {
            lines: vec!["doc".to_string(); docs],
            reply: mpsc::channel().0,
        }
    }

    #[test]
    fn empty_queue_flushes_a_lone_job_at_once() {
        let (tx, rx) = mpsc::sync_channel(8);
        let (jobs, n_docs, flush) = next_batch(job(1), &rx, 32);
        assert_eq!((jobs.len(), n_docs, flush), (1, 1, Flush::Idle));
        drop(tx);
    }

    #[test]
    fn queued_jobs_coalesce_up_to_max_batch_without_splitting() {
        let (tx, rx) = mpsc::sync_channel(8);
        for _ in 0..5 {
            tx.try_send(job(3)).expect("queue has room");
        }
        let first = rx.try_recv().expect("five jobs queued");
        let (jobs, n_docs, flush) = next_batch(first, &rx, 8);
        // 3 + 3 < 8, so a third job is taken and overshoots to 9.
        assert_eq!((jobs.len(), n_docs, flush), (3, 9, Flush::Size));
        assert_eq!(rx.try_iter().count(), 2, "two jobs stay queued");
    }

    #[test]
    fn closed_queue_flushes_as_drain() {
        let (tx, rx) = mpsc::sync_channel(8);
        tx.try_send(job(2)).expect("queue has room");
        tx.try_send(job(2)).expect("queue has room");
        drop(tx);
        let first = rx.try_recv().expect("two jobs queued");
        let (jobs, n_docs, flush) = next_batch(first, &rx, 32);
        assert_eq!((jobs.len(), n_docs, flush), (2, 4, Flush::Drain));
    }
}
