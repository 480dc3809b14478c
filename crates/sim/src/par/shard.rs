//! One shard of the parallel engine: a part of the layout held as a
//! [`World`] (the crate-private `world` module — the same dispatch loop the
//! sequential engine runs, over a placement that stages frames for other
//! shards in [`World::outbox`]), plus what only a shard needs: a clock
//! pinned to window horizons, its share of the run metrics, and the
//! mailbox plumbing the window driver ([`crate::par::ParSimulation`])
//! calls at every barrier.

use crate::metrics::Metrics;
use crate::queue::Event;
use crate::world::{Run, World};

/// One shard's runtime state.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Local clock: advanced by event pops, pinned to the window horizon
    /// at each barrier.
    pub now: u64,
    /// This shard's share of the run metrics (merged by the driver).
    pub metrics: Metrics,
    /// The rings this shard holds.
    pub world: World,
    /// Events this shard processed (throughput accounting).
    pub processed: u64,
    /// Recycled batch buffers: emptied by [`Shard::drain_batches`], handed
    /// back to [`Shard::flush_batches`] so the steady-state window loop
    /// allocates nothing.
    spare: Vec<Vec<Event>>,
}

impl Shard {
    /// The shard holding `world`.
    pub fn new(world: World) -> Self {
        Shard { now: 0, metrics: Metrics::default(), world, processed: 0, spare: Vec::new() }
    }

    /// The world on this shard's clock and metrics.
    pub fn run(&mut self) -> Run<'_> {
        self.world.run(&mut self.now, &mut self.metrics)
    }

    /// Queue an event addressed to this shard (the driver's schedule
    /// routing and the mailbox drain both land here).
    pub fn enqueue(&mut self, event: Event) {
        self.world.enqueue(self.now, event);
    }

    /// Queued entries still to drain.
    pub fn queue_len(&self) -> usize {
        self.world.events.len()
    }

    /// Process every local event with `at <= horizon`, in `(at, key)`
    /// order. Cross-shard sends land in [`World::outbox`].
    pub fn run_window(&mut self, horizon: u64) {
        self.processed += self.run().run_until(horizon);
    }

    /// `at` of the next local event, `u64::MAX` when the queue is empty —
    /// the windowed driver's published progress bound (idle-window
    /// skipping jumps every clock to the minimum of these).
    pub fn next_event_at(&mut self) -> u64 {
        self.world.events.peek_at().unwrap_or(u64::MAX)
    }

    /// Flush every non-empty outbox as **one batch per destination** into
    /// the cross-shard mailboxes. Returns the minimum `at` over every
    /// flushed event (`u64::MAX` when nothing was staged) — part of this
    /// shard's published progress bound, since a flushed event is pending
    /// work the destination has not yet seen.
    pub fn flush_batches(&mut self, txs: &[crossbeam::channel::Sender<Vec<Event>>]) -> u64 {
        let mut sent_min = u64::MAX;
        for (outbox, tx) in self.world.outbox.iter_mut().zip(txs) {
            if outbox.is_empty() {
                continue;
            }
            for event in outbox.iter() {
                sent_min = sent_min.min(event.at);
            }
            let batch = std::mem::replace(outbox, self.spare.pop().unwrap_or_default());
            self.metrics.par.frames_batched += batch.len() as u64;
            self.metrics.par.batches += 1;
            self.metrics.par.max_batch = self.metrics.par.max_batch.max(batch.len() as u64);
            // A closed mailbox means its owner already unwound; the
            // barrier wait after this flush surfaces the poisoning.
            let _ = tx.send(batch);
        }
        sent_min
    }

    /// Drain every batch currently in this shard's mailbox into the local
    /// queue, keeping the emptied buffers for later flushes.
    pub fn drain_batches(&mut self, rx: &crossbeam::channel::Receiver<Vec<Event>>) {
        // Bound the recycle pool so a bursty window can't pin its peak
        // buffer count forever.
        const SPARE_CAP: usize = 32;
        while let Ok(mut batch) = rx.try_recv() {
            for event in batch.drain(..) {
                self.enqueue(event);
            }
            if self.spare.len() < SPARE_CAP {
                self.spare.push(batch);
            }
        }
    }
}
