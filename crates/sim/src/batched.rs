//! The simulator's event engine.
//!
//! Tuples travel the dataflow in pooled batches: source arrivals are
//! coalesced into per-(stream, time-bucket) batches, each carried by a
//! single [`EventKind::SourceBatch`] / [`EventKind::ServiceComplete`]
//! event pair, and a whole batch's service is one queue transaction.
//! Batch storage is pooled: a free list recycles `Vec<Tuple>` capacity
//! instead of allocating per tuple.
//!
//! ## Exact mode and batching
//!
//! [`crate::engine::SimulationConfig::batch`] `= None` runs the engine in
//! **exact mode**, one tuple per batch — the discrete-event model with
//! no approximation. `tests/golden_corpus.rs` pins its reports and JSONL
//! traces byte for byte, and pins that `Some(BatchConfig { max_batch: 1,
//! .. })` is the same run (the bucket cannot matter when every batch
//! holds one tuple). In exact mode emissions are delivered per tuple,
//! per consumer, so events fire at the same times in the same relative
//! order as a per-tuple simulation, and all selectivity / reservoir
//! draws happen in arrival order.
//!
//! With **batch size > 1** a tuple's processing may be deferred by at
//! most [`BatchConfig::bucket`] seconds (batches fire at their last
//! tuple's arrival time) and in-batch arrivals cannot interleave with
//! other nodes' completions, so counts driven purely by arrivals
//! (`tuples_in`, failovers, recoveries, migrations under a static
//! control plane) stay identical to exact mode while selectivity-
//! dependent counts and latency quantiles agree within the bucket
//! tolerance (`tests/batched_equiv.rs`).
//!
//! ## Lazy source batches
//!
//! All arrival times are drawn before the event loop starts (so source
//! draws never interleave with selectivity draws), but a source event
//! only names its run of the per-input arrival-time vector. The pooled
//! batch is filled when the event fires, so the pool holds live batches
//! only — in exact mode that is the backlog, not one slot per source
//! tuple of the whole run.
//!
//! ## Pooling invariants
//!
//! A [`BatchId`] is live from `BatchPool::alloc` until exactly one
//! `BatchPool::release`; every event and queued work batch owns its
//! handle exclusively, and a released slot keeps its capacity for the
//! next allocation. Fan-out to multiple consumers clones the tuples
//! into fresh slots (the last consumer reuses the original), so no two
//! owners ever share a slot.

use std::collections::VecDeque;

use rand::Rng as _;

use rod_core::graph::QueryGraph;
use rod_core::ids::{NodeId, OperatorId, StreamId};
use rod_core::operator::OperatorKind;
use rod_geom::rng::{seeded_rng, Rng};
use rod_geom::Percentiles;

use crate::engine::{
    BatchConfig, FailoverConfig, MigrationChaos, MigrationConfig, NetworkConfig, SchedulingPolicy,
    Simulation,
};
use crate::events::{BatchId, EventKind, EventQueue, Tuple};
use crate::report::{RecoveryRecord, SimReport, TimelineSample};
use crate::trace::{TraceRecord, TraceSink};

/// Pooled tuple-batch storage. Slots are `Vec<Tuple>`s recycled through
/// a free list: [`BatchPool::release`] clears a slot but keeps its
/// buffer, so steady-state operation performs no tuple allocations at
/// all once the pool has warmed up.
#[derive(Debug, Default)]
pub(crate) struct BatchPool {
    slots: Vec<Vec<Tuple>>,
    free: Vec<u32>,
}

impl BatchPool {
    fn new() -> Self {
        BatchPool::default()
    }

    /// Hands out an empty slot, reusing a released one when available.
    fn alloc(&mut self) -> BatchId {
        if let Some(idx) = self.free.pop() {
            BatchId(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("batch pool exceeds u32 slots");
            self.slots.push(Vec::new());
            BatchId(idx)
        }
    }

    fn slot(&self, id: BatchId) -> &Vec<Tuple> {
        &self.slots[id.index()]
    }

    fn slot_mut(&mut self, id: BatchId) -> &mut Vec<Tuple> {
        &mut self.slots[id.index()]
    }

    /// Simultaneous access to two distinct slots (read `a`, write `b`).
    fn two(&mut self, a: BatchId, b: BatchId) -> (&[Tuple], &mut Vec<Tuple>) {
        let (ai, bi) = (a.index(), b.index());
        assert_ne!(ai, bi, "aliasing batch slots");
        if ai < bi {
            let (lo, hi) = self.slots.split_at_mut(bi);
            (&lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(ai);
            (&hi[0], &mut lo[bi])
        }
    }

    /// Returns a slot to the free list, retaining its capacity.
    fn release(&mut self, id: BatchId) {
        self.slots[id.index()].clear();
        self.free.push(id.0);
    }

    /// Slots ever allocated (diagnostic; steady state ≪ tuples).
    #[cfg(test)]
    fn slots_allocated(&self) -> usize {
        self.slots.len()
    }
}

/// A queued unit of work: one pooled batch at one operator input port.
#[derive(Clone, Copy, Debug)]
struct WorkBatch {
    op: OperatorId,
    port: usize,
    batch: BatchId,
    /// Network receive overhead charged *per tuple* in the batch.
    recv_overhead: f64,
    /// Cached tuple count (the slot's length at enqueue time).
    len: usize,
}

/// Join window entry: the time a tuple was inserted.
#[derive(Clone, Copy, Debug)]
struct WindowEntry {
    time: f64,
}

#[derive(Debug, Default)]
struct JoinState {
    windows: [VecDeque<WindowEntry>; 2],
}

/// Input buffered for an operator mid-migration.
#[derive(Debug)]
struct MigrationBuffer {
    batches: Vec<WorkBatch>,
    /// Total tuples across `batches`.
    tuples: usize,
}

/// Per-node runtime state.
#[derive(Debug)]
struct NodeState {
    queue: VecDeque<WorkBatch>,
    /// Tuples across `queue` (the shed threshold operates on tuples).
    tuples: usize,
    busy: bool,
    measured_busy: f64,
    window_busy: f64,
    sample_busy: f64,
    /// Output batch to deliver when the current service completes.
    pending: Option<(StreamId, BatchId)>,
    /// Tuples served by the current service (for `tuples_processed`).
    serving_len: usize,
}

/// Bookkeeping for one node-failure recovery in progress.
#[derive(Debug)]
struct RecoveryState {
    outage_start: f64,
    detected_at: f64,
    pending: usize,
    moved: usize,
}

/// Mutable engine state, shared by the event handlers.
struct EngineState<'a, S: TraceSink> {
    graph: &'a QueryGraph,
    network: NetworkConfig,
    horizon: f64,
    warmup: f64,
    consumers: Vec<Vec<(OperatorId, usize)>>,
    capacity: Vec<f64>,
    host: Vec<NodeId>,
    nodes: Vec<NodeState>,
    joins: Vec<JoinState>,
    migrating: Vec<Option<MigrationBuffer>>,
    op_window_busy: Vec<f64>,
    scheduling: SchedulingPolicy,
    shed_above: usize,
    tuples_shed: u64,
    tuples_shed_recovery: u64,
    op_queued: Vec<usize>,
    op_queue_bound: usize,
    down: Vec<bool>,
    down_count: usize,
    failover_in_flight: usize,
    failovers: u64,
    recovering: Vec<Option<RecoveryState>>,
    orphan_src: Vec<Option<usize>>,
    recoveries: Vec<RecoveryRecord>,
    pf_start: Option<f64>,
    post_failure_busy: Vec<f64>,
    rr_cursor: Vec<usize>,
    op_total_busy: Vec<f64>,
    op_served: Vec<u64>,
    queue: EventQueue,
    rng: Rng,
    pool: BatchPool,
    /// Exact mode (batch size 1): deliver per tuple, per consumer, so
    /// multi-consumer fan-out of multi-tuple emissions keeps per-tuple
    /// event order.
    strict: bool,
    queued_total: usize,
    peak_queue: usize,
    tuples_processed: u64,
    migrations: u64,
    migration_downtime: f64,
    timeline: Vec<TimelineSample>,
    /// Arrival times per system input, drawn before the loop starts;
    /// source events name runs of these.
    arrivals: Vec<Vec<f64>>,
    /// Source arrivals per input since the last sample tick.
    window_arrivals: Vec<u64>,
    tuples_out: u64,
    /// Latency reservoir of post-warm-up sink departures.
    latencies: Vec<f64>,
    latency_rng: Rng,
    latency_seen: u64,
    max_latency_samples: usize,
    chaos: Option<MigrationChaos>,
    chaos_rng: Rng,
    mig_attempts: Vec<u32>,
    migration_retries: u64,
    migrations_aborted: u64,
    sink: &'a mut S,
}

impl<S: TraceSink> EngineState<'_, S> {
    /// Counts `count` shed tuples at one operator, with recovery-window
    /// attribution and one trace record per tuple.
    fn shed_many(&mut self, op: OperatorId, now: f64, count: usize) {
        if count == 0 {
            return;
        }
        self.tuples_shed += count as u64;
        let in_recovery = self.down_count > 0 || self.failover_in_flight > 0;
        if in_recovery {
            self.tuples_shed_recovery += count as u64;
        }
        if self.sink.enabled() {
            for _ in 0..count {
                self.sink.record(&TraceRecord::Shed {
                    time: now,
                    op: op.index(),
                    in_recovery,
                });
            }
        }
    }

    /// Routes a work batch to its operator's node queue or migration
    /// buffer, shedding the suffix that exceeds the per-operator bound
    /// or the node shedding threshold (per-tuple accept-until-full,
    /// applied to a batch).
    fn enqueue_batch(&mut self, mut wb: WorkBatch, now: f64) {
        let op = wb.op.index();
        // Per-operator bound: accept the prefix that fits.
        let room = self.op_queue_bound.saturating_sub(self.op_queued[op]);
        if room < wb.len {
            self.shed_many(wb.op, now, wb.len - room);
            if room == 0 {
                self.pool.release(wb.batch);
                return;
            }
            self.pool.slot_mut(wb.batch).truncate(room);
            wb.len = room;
        }
        if let Some(buffer) = &mut self.migrating[op] {
            let room = self.shed_above.saturating_sub(buffer.tuples);
            if room < wb.len {
                let drop = wb.len - room;
                if room == 0 {
                    self.shed_many(wb.op, now, drop);
                    self.pool.release(wb.batch);
                    return;
                }
                self.pool.slot_mut(wb.batch).truncate(room);
                wb.len = room;
                self.shed_many(wb.op, now, drop);
            }
            self.queued_total += wb.len;
            self.op_queued[op] += wb.len;
            self.peak_queue = self.peak_queue.max(self.queued_total);
            let buffer = self.migrating[op].as_mut().expect("checked above");
            buffer.tuples += wb.len;
            buffer.batches.push(wb);
            return;
        }
        let node = self.host[op].index();
        let room = self.shed_above.saturating_sub(self.nodes[node].tuples);
        if room < wb.len {
            let drop = wb.len - room;
            self.shed_many(wb.op, now, drop);
            if room == 0 {
                self.pool.release(wb.batch);
                return;
            }
            self.pool.slot_mut(wb.batch).truncate(room);
            wb.len = room;
        }
        self.queued_total += wb.len;
        self.op_queued[op] += wb.len;
        self.peak_queue = self.peak_queue.max(self.queued_total);
        self.nodes[node].tuples += wb.len;
        self.nodes[node].queue.push_back(wb);
        if !self.nodes[node].busy && !self.down[node] {
            self.dispatch(node, now);
        }
    }

    /// Picks the queue index of the next batch to serve, per the
    /// configured discipline (operator backlogs measured in tuples).
    fn pick_next(&mut self, node: usize) -> usize {
        let queue = &self.nodes[node].queue;
        debug_assert!(!queue.is_empty());
        match self.scheduling {
            SchedulingPolicy::Fifo => 0,
            SchedulingPolicy::LongestQueueFirst => {
                let mut counts: std::collections::HashMap<usize, usize> =
                    std::collections::HashMap::new();
                for wb in queue {
                    *counts.entry(wb.op.index()).or_default() += wb.len;
                }
                let (&busiest, _) = counts
                    .iter()
                    .max_by_key(|(op, count)| (**count, usize::MAX - **op))
                    .expect("non-empty queue");
                queue
                    .iter()
                    .position(|wb| wb.op.index() == busiest)
                    .expect("busiest operator has a batch")
            }
            SchedulingPolicy::RoundRobin => {
                let cursor = self.rr_cursor[node];
                let key = |op: usize| {
                    if op > cursor {
                        op - cursor
                    } else {
                        op + self.graph.num_operators() - cursor
                    }
                };
                let (pos, _) = queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, wb)| key(wb.op.index()))
                    .expect("non-empty queue");
                pos
            }
        }
    }

    /// Starts service of the next queued batch on `node`: one queue
    /// transaction covers every tuple in the batch — costs accumulate,
    /// emissions are drawn per tuple in order, and a single
    /// `ServiceComplete` fires for the whole batch.
    fn dispatch(&mut self, node: usize, now: f64) {
        let pick = self.pick_next(node);
        let wb = self.nodes[node]
            .queue
            .remove(pick)
            .expect("dispatch on empty queue");
        if self.scheduling == SchedulingPolicy::RoundRobin {
            self.rr_cursor[node] = wb.op.index();
        }
        self.queued_total -= wb.len;
        self.op_queued[wb.op.index()] -= wb.len;
        self.nodes[node].tuples -= wb.len;
        let op = self.graph.operator(wb.op);

        let out = self.pool.alloc();
        let raw_cost = match &op.kind {
            OperatorKind::Linear {
                costs,
                selectivities,
            } => self.emit_linear(wb, costs[wb.port], selectivities[wb.port], out),
            OperatorKind::VariableSelectivity {
                costs,
                nominal_selectivities,
            } => self.emit_linear(wb, costs[wb.port], nominal_selectivities[wb.port], out),
            OperatorKind::WindowJoin {
                window,
                cost_per_pair,
                selectivity_per_pair,
            } => self.emit_join(wb, *window, *cost_per_pair, *selectivity_per_pair, out, now),
        };
        self.pool.release(wb.batch);

        // Network CPU overheads: receive side carried per tuple on the
        // batch, send side charged per emission crossing the network.
        let out_len = self.pool.slot(out).len();
        let remote_consumers = self.consumers[op.output.index()]
            .iter()
            .filter(|(c, _)| self.host[c.index()] != NodeId(node))
            .count();
        let overhead = wb.recv_overhead * wb.len as f64
            + (out_len * remote_consumers) as f64 * self.network.send_cpu_cost;

        let service = (raw_cost + overhead) / self.capacity[node];
        let end = now + service;
        let busy_start = now.max(self.warmup);
        let busy_end = end.max(self.warmup).min(self.horizon);
        if busy_end > busy_start {
            self.nodes[node].measured_busy += busy_end - busy_start;
        }
        if let Some(pf) = self.pf_start {
            let pf_end = end.min(self.horizon);
            if pf_end > now.max(pf) {
                self.post_failure_busy[node] += pf_end - now.max(pf);
            }
        }
        self.nodes[node].window_busy += service;
        self.nodes[node].sample_busy += service;
        self.op_window_busy[wb.op.index()] += service;
        self.op_total_busy[wb.op.index()] += service;
        self.op_served[wb.op.index()] += wb.len as u64;
        self.nodes[node].busy = true;
        self.nodes[node].serving_len = wb.len;
        self.nodes[node].pending = if out_len > 0 {
            Some((op.output, out))
        } else {
            self.pool.release(out);
            None
        };
        self.queue
            .push(end, EventKind::ServiceComplete { node: NodeId(node) });
    }

    /// Linear / variable-selectivity service: constant per-tuple cost,
    /// one Bernoulli emission draw per tuple, in batch order.
    fn emit_linear(&mut self, wb: WorkBatch, cost: f64, selectivity: f64, out: BatchId) -> f64 {
        let (input, out_vec) = self.pool.two(wb.batch, out);
        for tuple in input {
            let emit = bernoulli_emissions(selectivity, &mut self.rng);
            for _ in 0..emit {
                out_vec.push(Tuple { birth: tuple.birth });
            }
        }
        cost * wb.len as f64
    }

    /// Windowed-join service: the partner window is pruned once at the
    /// batch's service time (every tuple in the batch shares `now`),
    /// then each tuple pays per pair examined and inserts itself.
    fn emit_join(
        &mut self,
        wb: WorkBatch,
        window: f64,
        cost_per_pair: f64,
        selectivity_per_pair: f64,
        out: BatchId,
        now: f64,
    ) -> f64 {
        let state = &mut self.joins[wb.op.index()];
        let other = 1 - wb.port;
        while let Some(front) = state.windows[other].front() {
            if front.time < now - window {
                state.windows[other].pop_front();
            } else {
                break;
            }
        }
        let pairs = state.windows[other].len();
        let (input, out_vec) = self.pool.two(wb.batch, out);
        for tuple in input {
            state.windows[wb.port].push_back(WindowEntry { time: now });
            for _ in 0..pairs {
                let emit = bernoulli_emissions(selectivity_per_pair, &mut self.rng);
                for _ in 0..emit {
                    out_vec.push(Tuple { birth: tuple.birth });
                }
            }
        }
        (wb.len * pairs) as f64 * cost_per_pair
    }

    /// Fires a source batch: fills a pooled slot with tuples
    /// `first..first + len` of the input's arrival times and fans it out
    /// to every consumer of the input stream (clones for all but the
    /// last, which takes the original slot). Sources are external, so
    /// delivery is local: the paper's communication model concerns
    /// inter-operator arcs. An input nothing consumes is itself a sink.
    fn source_batch(&mut self, input: usize, first: usize, len: usize, now: f64) {
        let stream = self.graph.inputs()[input];
        let births = &self.arrivals[input][first..first + len];
        let batch = self.pool.alloc();
        self.pool
            .slot_mut(batch)
            .extend(births.iter().map(|&birth| Tuple { birth }));
        let ncons = self.consumers[stream.index()].len();
        if ncons == 0 {
            self.depart(stream, batch, now);
            return;
        }
        self.window_arrivals[input] += len as u64;
        if self.sink.enabled() {
            for &birth in births {
                self.sink.record(&TraceRecord::SourceArrival {
                    time: birth,
                    stream: stream.index(),
                });
            }
        }
        for ci in 0..ncons {
            let (op, port) = self.consumers[stream.index()][ci];
            let delivered = if ci + 1 == ncons {
                batch
            } else {
                let copy = self.pool.alloc();
                let (src, dst) = self.pool.two(batch, copy);
                dst.extend_from_slice(src);
                copy
            };
            self.enqueue_batch(
                WorkBatch {
                    op,
                    port,
                    batch: delivered,
                    recv_overhead: 0.0,
                    len,
                },
                now,
            );
        }
    }

    /// Records each tuple of a batch leaving the query network at a sink
    /// stream (end-to-end latency into the reservoir after warm-up), then
    /// releases the batch.
    fn depart(&mut self, stream: StreamId, batch: BatchId, now: f64) {
        for &tuple in self.pool.slot(batch) {
            self.tuples_out += 1;
            let latency = now - tuple.birth;
            if self.sink.enabled() {
                self.sink.record(&TraceRecord::SinkDeparture {
                    time: now,
                    stream: stream.index(),
                    latency,
                });
            }
            if now >= self.warmup {
                self.latency_seen += 1;
                record_latency(
                    &mut self.latencies,
                    &mut self.latency_rng,
                    self.latency_seen,
                    self.max_latency_samples,
                    latency,
                );
            }
        }
        self.pool.release(batch);
    }

    /// Handles a service completion: deliver the pending output batch,
    /// continue with the next queued batch.
    fn complete(&mut self, node: NodeId, now: f64) {
        let node_idx = node.index();
        self.tuples_processed += self.nodes[node_idx].serving_len as u64;
        self.nodes[node_idx].serving_len = 0;
        if let Some((stream, out)) = self.nodes[node_idx].pending.take() {
            if self.consumers[stream.index()].is_empty() {
                self.queue
                    .push(now, EventKind::SinkBatch { stream, batch: out });
            } else if self.strict {
                self.deliver_per_tuple(stream, out, node, now);
            } else {
                self.deliver_per_consumer(stream, out, node, now);
            }
        }
        self.nodes[node_idx].busy = false;
        if !self.nodes[node_idx].queue.is_empty() && !self.down[node_idx] {
            self.dispatch(node_idx, now);
        }
    }

    /// Batch-granular delivery: one event per consumer, the last
    /// consumer reusing the output slot, earlier ones cloning into
    /// pooled slots.
    fn deliver_per_consumer(&mut self, stream: StreamId, out: BatchId, node: NodeId, now: f64) {
        let ncons = self.consumers[stream.index()].len();
        for ci in 0..ncons {
            let (op, port) = self.consumers[stream.index()][ci];
            let remote = self.host[op.index()] != node;
            let delay = if remote { self.network.latency } else { 0.0 };
            let recv_overhead = if remote {
                self.network.recv_cpu_cost
            } else {
                0.0
            };
            let batch = if ci + 1 == ncons {
                out
            } else {
                let copy = self.pool.alloc();
                let (src, dst) = self.pool.two(out, copy);
                dst.extend_from_slice(src);
                copy
            };
            self.queue.push(
                now + delay,
                EventKind::BatchConsumerArrival {
                    op,
                    port,
                    batch,
                    recv_overhead,
                },
            );
        }
    }

    /// Exact-mode (batch size 1) delivery: per emitted tuple, per
    /// consumer — consumers interleave within each emission, as in a
    /// per-tuple simulation.
    fn deliver_per_tuple(&mut self, stream: StreamId, out: BatchId, node: NodeId, now: f64) {
        let out_len = self.pool.slot(out).len();
        let ncons = self.consumers[stream.index()].len();
        for ti in 0..out_len {
            let tuple = self.pool.slot(out)[ti];
            for ci in 0..ncons {
                let (op, port) = self.consumers[stream.index()][ci];
                let remote = self.host[op.index()] != node;
                let delay = if remote { self.network.latency } else { 0.0 };
                let recv_overhead = if remote {
                    self.network.recv_cpu_cost
                } else {
                    0.0
                };
                // The last delivery reuses the output slot, cut down to
                // its last tuple; earlier ones take fresh pooled slots.
                let single = if ti + 1 == out_len && ci + 1 == ncons {
                    self.pool.slot_mut(out).drain(..ti);
                    out
                } else {
                    let single = self.pool.alloc();
                    self.pool.slot_mut(single).push(tuple);
                    single
                };
                self.queue.push(
                    now + delay,
                    EventKind::BatchConsumerArrival {
                        op,
                        port,
                        batch: single,
                        recv_overhead,
                    },
                );
            }
        }
    }

    /// The dynamic load manager's control tick: sample window
    /// utilisations, possibly start one migration, reset the window.
    /// Decisions depend only on busy-time windows.
    fn control_tick(&mut self, now: f64, config: &MigrationConfig) {
        let n = self.nodes.len();
        let utils: Vec<f64> = (0..n)
            .map(|i| (self.nodes[i].window_busy / config.check_interval).min(1.0))
            .collect();
        let hot = (0..n)
            .max_by(|&a, &b| utils[a].total_cmp(&utils[b]))
            .expect("nodes");
        let cold = (0..n)
            .min_by(|&a, &b| utils[a].total_cmp(&utils[b]))
            .expect("nodes");

        if utils[hot] >= config.utilisation_trigger
            && utils[hot] - utils[cold] >= config.imbalance_trigger
            && hot != cold
            && !self.down[hot]
            && !self.down[cold]
        {
            let target = (utils[hot] - utils[cold]) / 2.0 * config.check_interval;
            let candidate = (0..self.graph.num_operators())
                .filter(|&j| {
                    self.host[j] == NodeId(hot)
                        && self.migrating[j].is_none()
                        && self.op_window_busy[j] > 0.0
                        && !config.pinned.contains(&OperatorId(j))
                })
                .min_by(|&a, &b| {
                    let da = (self.op_window_busy[a] - target).abs();
                    let db = (self.op_window_busy[b] - target).abs();
                    da.total_cmp(&db)
                });
            if let Some(op) = candidate {
                self.start_migration(OperatorId(op), NodeId(cold), now, config, false);
            }
        }

        for node in &mut self.nodes {
            node.window_busy = 0.0;
        }
        self.op_window_busy.fill(0.0);
    }

    /// Freezes an operator, buffers its queued batches, and schedules
    /// resumption after the transfer downtime. The per-item downtime
    /// term counts buffered *tuples*. `failover = true` marks a
    /// table-driven recovery move (counted separately from the load
    /// manager's migrations).
    fn start_migration(
        &mut self,
        op: OperatorId,
        dest: NodeId,
        now: f64,
        config: &MigrationConfig,
        failover: bool,
    ) {
        let src = self.host[op.index()].index();
        let mut batches = Vec::new();
        let mut tuples = 0usize;
        self.nodes[src].queue.retain(|wb| {
            if wb.op == op {
                tuples += wb.len;
                batches.push(*wb);
                false
            } else {
                true
            }
        });
        self.nodes[src].tuples -= tuples;
        let downtime = config.base_downtime + tuples as f64 * config.per_item_downtime;
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::MigrationStart {
                time: now,
                op: op.index(),
                from: src,
                to: dest.index(),
                downtime,
                failover,
            });
        }
        self.migrating[op.index()] = Some(MigrationBuffer { batches, tuples });
        if failover {
            self.failovers += 1;
            self.failover_in_flight += 1;
            self.orphan_src[op.index()] = Some(src);
        } else {
            self.migrations += 1;
            self.migration_downtime += downtime;
        }
        self.queue
            .push(now + downtime, EventKind::MigrationComplete { op, dest });
    }

    /// Finishes a migration: rebind the host, replay the buffer, and
    /// advance recovery bookkeeping for failover moves.
    fn finish_migration(&mut self, op: OperatorId, dest: NodeId, now: f64) {
        let buffer = self.migrating[op.index()]
            .take()
            .expect("migration completion without start");
        self.host[op.index()] = dest;
        let node = dest.index();
        self.nodes[node].tuples += buffer.tuples;
        for wb in buffer.batches {
            self.nodes[node].queue.push_back(wb);
        }
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::MigrationEnd {
                time: now,
                op: op.index(),
                dest: node,
            });
        }
        if let Some(src) = self.orphan_src[op.index()].take() {
            self.failover_in_flight -= 1;
            if let Some(state) = self.recovering[src].as_mut() {
                state.pending -= 1;
                if state.pending == 0 {
                    let state = self.recovering[src].take().expect("state present");
                    if self.sink.enabled() {
                        self.sink.record(&TraceRecord::RecoveryComplete {
                            time: now,
                            node: src,
                            moved: state.moved,
                            latency: now - state.outage_start,
                        });
                    }
                    self.recoveries.push(RecoveryRecord {
                        node: src,
                        outage_start: state.outage_start,
                        detected_at: state.detected_at,
                        recovered_at: now,
                        operators_moved: state.moved,
                    });
                }
            }
        }
        if !self.nodes[node].busy && !self.nodes[node].queue.is_empty() && !self.down[node] {
            self.dispatch(node, now);
        }
    }

    /// Rolls back a chaos-failed migration to its origin node.
    fn abort_migration(&mut self, op: OperatorId, dest: NodeId, now: f64, attempts: u32) {
        let buffer = self.migrating[op.index()]
            .take()
            .expect("migration abort without start");
        let node = self.host[op.index()].index();
        self.nodes[node].tuples += buffer.tuples;
        for wb in buffer.batches {
            self.nodes[node].queue.push_back(wb);
        }
        self.migrations_aborted += 1;
        self.mig_attempts[op.index()] = 0;
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::MigrationAborted {
                time: now,
                op: op.index(),
                from: node,
                to: dest.index(),
                attempts,
            });
        }
        if !self.nodes[node].busy && !self.nodes[node].queue.is_empty() && !self.down[node] {
            self.dispatch(node, now);
        }
    }

    /// Handles a detected node failure: move every operator still hosted
    /// on the dead node to its table-designated backup (falling back to
    /// the lowest-indexed live node when the table has no entry or the
    /// backup is itself down). A no-op if the outage already ended.
    fn detect_failure(&mut self, node: NodeId, now: f64, fo: &FailoverConfig) {
        let idx = node.index();
        if !self.down[idx] {
            self.recovering[idx] = None;
            return;
        }
        let orphans: Vec<usize> = (0..self.graph.num_operators())
            .filter(|&j| self.host[j] == node && self.migrating[j].is_none())
            .collect();
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::FailureDetected {
                time: now,
                node: idx,
                orphans: orphans.len(),
            });
        }
        let mut moved = 0;
        for j in orphans {
            let op = OperatorId(j);
            let planned = fo
                .table
                .backup_of(node, op)
                .filter(|b| !self.down[b.index()]);
            let dest =
                planned.or_else(|| (0..self.down.len()).find(|&i| !self.down[i]).map(NodeId));
            if let Some(dest) = dest {
                self.start_migration(op, dest, now, &fo.migration, true);
                moved += 1;
            }
        }
        if let Some(state) = self.recovering[idx].as_mut() {
            state.detected_at = now;
            state.pending = moved;
            state.moved = moved;
            if moved == 0 {
                let state = self.recovering[idx].take().expect("state present");
                if self.sink.enabled() {
                    self.sink.record(&TraceRecord::RecoveryComplete {
                        time: now,
                        node: idx,
                        moved: 0,
                        latency: now - state.outage_start,
                    });
                }
                self.recoveries.push(RecoveryRecord {
                    node: idx,
                    outage_start: state.outage_start,
                    detected_at: now,
                    recovered_at: now,
                    operators_moved: 0,
                });
            }
        }
    }
}

/// Runs `sim` with batches framed by `bc` (`max_batch = 1` is exact
/// mode). Called from [`Simulation::run_with_sink`].
pub(crate) fn run<S: TraceSink>(sim: &Simulation<'_>, bc: BatchConfig, sink: &mut S) -> SimReport {
    let mut rng = seeded_rng(sim.config.seed);
    let graph = sim.graph;
    let horizon = sim.config.horizon;
    let warmup = sim.config.warmup;
    let m = graph.num_operators();
    let n = sim.cluster.num_nodes();

    let mut queue = EventQueue::new();
    // Batch source arrivals: consecutive tuples of one stream share a
    // batch while they fit the size cap and the same time bucket. The
    // batch fires at its *last* tuple's arrival time, so every tuple has
    // nominally arrived when the event pops (deferral ≤ bucket).
    let arrivals: Vec<Vec<f64>> = sim
        .sources
        .iter()
        .map(|spec| spec.arrivals(horizon, &mut rng))
        .collect();
    let tuples_in = arrivals.iter().map(|times| times.len() as u64).sum();
    for (input, times) in arrivals.iter().enumerate() {
        let mut first = 0;
        while first < times.len() {
            let bucket = (times[first] / bc.bucket).floor();
            let mut end = first + 1;
            while end < times.len()
                && end - first < bc.max_batch
                && (times[end] / bc.bucket).floor() == bucket
            {
                end += 1;
            }
            queue.push(
                times[end - 1],
                EventKind::SourceBatch {
                    input,
                    first,
                    len: end - first,
                },
            );
            first = end;
        }
    }
    if let Some(mig) = &sim.config.migration {
        queue.push(mig.check_interval, EventKind::ControlTick);
    }
    if let Some(interval) = sim.config.sample_interval {
        queue.push(interval, EventKind::SampleTick);
    }
    let mut outage_events: Vec<(f64, bool, NodeId)> = Vec::new();
    for outage in &sim.config.outages {
        outage_events.push((outage.start, true, outage.node));
        outage_events.push((outage.end, false, outage.node));
    }
    outage_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (time, is_start, node) in outage_events {
        let kind = if is_start {
            EventKind::OutageStart { node }
        } else {
            EventKind::OutageEnd { node }
        };
        queue.push(time, kind);
    }

    let mut rt = EngineState {
        graph,
        network: sim.config.network,
        horizon,
        warmup,
        consumers: (0..graph.num_streams())
            .map(|s| graph.consumers_of(StreamId(s)))
            .collect(),
        capacity: sim
            .cluster
            .nodes()
            .map(|nd| sim.cluster.capacity(nd))
            .collect(),
        host: (0..m)
            .map(|j| sim.allocation.node_of(OperatorId(j)).expect("complete"))
            .collect(),
        nodes: (0..n)
            .map(|_| NodeState {
                queue: VecDeque::new(),
                tuples: 0,
                busy: false,
                measured_busy: 0.0,
                window_busy: 0.0,
                sample_busy: 0.0,
                pending: None,
                serving_len: 0,
            })
            .collect(),
        joins: (0..m).map(|_| JoinState::default()).collect(),
        migrating: (0..m).map(|_| None).collect(),
        op_window_busy: vec![0.0; m],
        scheduling: sim.config.scheduling,
        shed_above: sim.config.shed_above.unwrap_or(usize::MAX),
        tuples_shed: 0,
        tuples_shed_recovery: 0,
        op_queued: vec![0; m],
        op_queue_bound: sim.config.op_queue_bound.unwrap_or(usize::MAX),
        down: vec![false; n],
        down_count: 0,
        failover_in_flight: 0,
        failovers: 0,
        recovering: (0..n).map(|_| None).collect(),
        orphan_src: vec![None; m],
        recoveries: Vec::new(),
        pf_start: None,
        post_failure_busy: vec![0.0; n],
        rr_cursor: vec![0; n],
        op_total_busy: vec![0.0; m],
        op_served: vec![0; m],
        queue,
        rng,
        pool: BatchPool::new(),
        strict: bc.max_batch == 1,
        queued_total: 0,
        peak_queue: 0,
        tuples_processed: 0,
        migrations: 0,
        migration_downtime: 0.0,
        timeline: Vec::new(),
        arrivals,
        window_arrivals: vec![0; graph.num_inputs()],
        tuples_out: 0,
        latencies: Vec::new(),
        latency_rng: seeded_rng(sim.config.seed ^ LATENCY_STREAM_TAG),
        latency_seen: 0,
        max_latency_samples: sim.config.max_latency_samples,
        chaos: sim.config.migration_chaos.clone(),
        chaos_rng: seeded_rng(
            sim.config
                .migration_chaos
                .as_ref()
                .map_or(0, |c| c.seed ^ 0x0063_6861_6f73), // same "chaos" stream
        ),
        mig_attempts: vec![0; m],
        migration_retries: 0,
        migrations_aborted: 0,
        sink,
    };

    if rt.sink.enabled() {
        rt.sink.record(&TraceRecord::RunStart {
            horizon,
            warmup,
            seed: sim.config.seed,
            nodes: n,
            operators: m,
        });
    }

    let mut saturated = false;
    let mut end_time = horizon;

    while let Some(event) = rt.queue.pop() {
        if event.time > horizon {
            break;
        }
        match event.kind {
            EventKind::SourceBatch { input, first, len } => {
                rt.source_batch(input, first, len, event.time);
            }
            EventKind::SinkBatch { stream, batch } => {
                rt.depart(stream, batch, event.time);
            }
            EventKind::BatchConsumerArrival {
                op,
                port,
                batch,
                recv_overhead,
            } => {
                let len = rt.pool.slot(batch).len();
                rt.enqueue_batch(
                    WorkBatch {
                        op,
                        port,
                        batch,
                        recv_overhead,
                        len,
                    },
                    event.time,
                );
            }
            EventKind::ServiceComplete { node } => {
                rt.complete(node, event.time);
            }
            EventKind::ControlTick => {
                let mig = sim
                    .config
                    .migration
                    .clone()
                    .expect("ControlTick only scheduled with migration enabled");
                rt.control_tick(event.time, &mig);
                if event.time + mig.check_interval < horizon {
                    rt.queue
                        .push(event.time + mig.check_interval, EventKind::ControlTick);
                }
            }
            EventKind::SampleTick => {
                let interval = sim
                    .config
                    .sample_interval
                    .expect("SampleTick only scheduled with sampling enabled");
                let utilisations: Vec<f64> = rt
                    .nodes
                    .iter_mut()
                    .map(|s| {
                        let u = (s.sample_busy / interval).min(1.0);
                        s.sample_busy = 0.0;
                        u
                    })
                    .collect();
                let rates: Vec<f64> = rt
                    .window_arrivals
                    .iter_mut()
                    .map(|count| {
                        let rate = *count as f64 / interval;
                        *count = 0;
                        rate
                    })
                    .collect();
                if rt.sink.enabled() {
                    let record = TraceRecord::util_sample(
                        event.time,
                        utilisations.clone(),
                        rt.nodes.iter().map(|s| s.tuples).collect(),
                        rt.queued_total,
                        rates,
                    )
                    .expect("engine sample values are finite and non-negative");
                    rt.sink.record(&record);
                }
                rt.timeline.push(TimelineSample {
                    time: event.time,
                    utilisations,
                    queued: rt.queued_total,
                    migrations: rt.migrations,
                });
                if event.time + interval < horizon {
                    rt.queue.push(event.time + interval, EventKind::SampleTick);
                }
            }
            EventKind::MigrationComplete { op, dest } => {
                let inject = rt.chaos.clone().filter(|_| {
                    rt.migrating[op.index()].is_some() && rt.orphan_src[op.index()].is_none()
                });
                match inject {
                    Some(chaos) if rt.chaos_rng.gen::<f64>() < chaos.failure_prob => {
                        let attempt = rt.mig_attempts[op.index()] + 1;
                        if attempt <= chaos.max_retries {
                            rt.mig_attempts[op.index()] = attempt;
                            rt.migration_retries += 1;
                            let backoff = chaos.backoff(attempt);
                            if rt.sink.enabled() {
                                rt.sink.record(&TraceRecord::MigrationRetry {
                                    time: event.time,
                                    op: op.index(),
                                    dest: dest.index(),
                                    attempt,
                                    backoff,
                                });
                            }
                            rt.queue.push(
                                event.time + backoff,
                                EventKind::MigrationComplete { op, dest },
                            );
                        } else {
                            rt.abort_migration(op, dest, event.time, attempt);
                        }
                    }
                    _ => {
                        rt.mig_attempts[op.index()] = 0;
                        rt.finish_migration(op, dest, event.time);
                    }
                }
            }
            EventKind::OutageStart { node } => {
                rt.down[node.index()] = true;
                rt.down_count += 1;
                if rt.sink.enabled() {
                    rt.sink.record(&TraceRecord::OutageStart {
                        time: event.time,
                        node: node.index(),
                    });
                }
                if rt.pf_start.is_none() {
                    rt.pf_start = Some(event.time);
                }
                if let Some(fo) = &sim.config.failover {
                    if rt.recovering[node.index()].is_none() {
                        rt.recovering[node.index()] = Some(RecoveryState {
                            outage_start: event.time,
                            detected_at: 0.0,
                            pending: 0,
                            moved: 0,
                        });
                        rt.queue.push(
                            event.time + fo.detection_delay,
                            EventKind::FailureDetected { node },
                        );
                    }
                }
            }
            EventKind::FailureDetected { node } => {
                let fo = sim
                    .config
                    .failover
                    .as_ref()
                    .expect("FailureDetected only scheduled with failover enabled");
                rt.detect_failure(node, event.time, fo);
            }
            EventKind::OutageEnd { node } => {
                let idx = node.index();
                rt.down[idx] = false;
                rt.down_count -= 1;
                if rt.sink.enabled() {
                    rt.sink.record(&TraceRecord::OutageEnd {
                        time: event.time,
                        node: idx,
                    });
                }
                if !rt.nodes[idx].busy && !rt.nodes[idx].queue.is_empty() {
                    rt.dispatch(idx, event.time);
                }
            }
        }
        if rt.queued_total > sim.config.max_queue {
            saturated = true;
            end_time = event.time;
            break;
        }
    }

    if rt.sink.enabled() {
        rt.sink.record(&TraceRecord::RunEnd {
            time: end_time,
            tuples_in,
            tuples_out: rt.tuples_out,
            tuples_processed: rt.tuples_processed,
            tuples_shed: rt.tuples_shed,
            saturated,
        });
    }

    let measured_duration = horizon - warmup;
    let utilisations = rt
        .nodes
        .iter()
        .map(|s| (s.measured_busy / measured_duration).min(1.0))
        .collect();
    let final_queue = rt.nodes.iter().map(|s| s.tuples).sum::<usize>()
        + rt.migrating
            .iter()
            .flatten()
            .map(|b| b.tuples)
            .sum::<usize>();

    let post_failure_max_utilisation = rt.pf_start.map(|pf| {
        let window = (horizon - pf).max(1e-9);
        rt.post_failure_busy
            .iter()
            .map(|b| (b / window).min(1.0))
            .fold(0.0, f64::max)
    });

    SimReport {
        measured_duration,
        utilisations,
        tuples_in,
        tuples_out: rt.tuples_out,
        tuples_processed: rt.tuples_processed,
        latencies: Percentiles::from_samples(rt.latencies),
        peak_queue: rt.peak_queue,
        final_queue,
        saturated,
        migrations: rt.migrations,
        migration_downtime: rt.migration_downtime,
        migration_retries: rt.migration_retries,
        migrations_aborted: rt.migrations_aborted,
        timeline: rt.timeline,
        operator_busy: rt.op_total_busy,
        operator_served: rt.op_served,
        tuples_shed: rt.tuples_shed,
        tuples_shed_in_recovery: rt.tuples_shed_recovery,
        failovers: rt.failovers,
        recoveries: rt.recoveries,
        post_failure_max_utilisation,
        final_hosts: rt.host.iter().map(|h| h.index()).collect(),
    }
}

/// XOR tag deriving the dedicated latency-reservoir RNG stream from the
/// run seed ("latency"), mirroring the chaos stream: thinning draws must
/// never perturb source arrivals or selectivity draws, so changing the
/// sample cap cannot change the simulated trajectory.
const LATENCY_STREAM_TAG: u64 = 0x006c_6174_656e_6379;

/// Number of output tuples for one input tuple with (possibly > 1)
/// selectivity `s`: `floor(s)` sure emissions plus a Bernoulli on the
/// fractional part.
fn bernoulli_emissions(selectivity: f64, rng: &mut Rng) -> u64 {
    let whole = selectivity.floor();
    let frac = selectivity - whole;
    whole as u64 + u64::from(rng.gen::<f64>() < frac)
}

/// Seeded reservoir sampling (Algorithm R): each of the `seen` post-
/// warmup sink tuples ends up in the bounded sample with equal
/// probability `cap / seen`, so quantiles of the reservoir are unbiased
/// estimates of the full-sample quantiles. Draws come from a dedicated
/// RNG stream ([`LATENCY_STREAM_TAG`]) so thinning is invisible to the
/// simulation itself.
fn record_latency(samples: &mut Vec<f64>, rng: &mut Rng, seen: u64, cap: usize, value: f64) {
    if samples.len() < cap {
        samples.push(value);
    } else {
        let idx = rng.gen_range(0..seen);
        if (idx as usize) < cap {
            samples[idx as usize] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use crate::source::SourceSpec;
    use rod_core::allocation::Allocation;
    use rod_core::cluster::Cluster;
    use rod_core::graph::GraphBuilder;

    #[test]
    fn pool_reuses_released_slots() {
        let mut pool = BatchPool::new();
        let a = pool.alloc();
        pool.slot_mut(a).push(Tuple { birth: 1.0 });
        pool.release(a);
        let b = pool.alloc();
        assert_eq!(a, b, "released slot must be reused");
        assert!(pool.slot(b).is_empty(), "released slot must be cleared");
        assert_eq!(pool.slots_allocated(), 1);
    }

    #[test]
    fn pool_two_gives_disjoint_slots() {
        let mut pool = BatchPool::new();
        let a = pool.alloc();
        let b = pool.alloc();
        pool.slot_mut(a).push(Tuple { birth: 2.0 });
        let (src, dst) = pool.two(a, b);
        dst.extend_from_slice(src);
        assert_eq!(pool.slot(b).len(), 1);
        // Order-reversed access works too.
        let (src, dst) = pool.two(b, a);
        dst.extend_from_slice(src);
        assert_eq!(pool.slot(a).len(), 2);
    }

    #[test]
    fn large_batches_conserve_tuples_on_deterministic_ops() {
        // Selectivity-1 chain: every source tuple must reach the sink
        // regardless of batch size (only timing is approximated).
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        let (_, s) = b
            .add_operator("m1", rod_core::operator::OperatorKind::map(0.0005), &[i])
            .unwrap();
        b.add_operator("m2", rod_core::operator::OperatorKind::map(0.0005), &[s])
            .unwrap();
        let graph = b.build().unwrap();
        let cluster = Cluster::homogeneous(1, 1.0);
        let mut alloc = Allocation::new(2, 1);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(300.0)],
            SimulationConfig {
                horizon: 20.0,
                warmup: 2.0,
                seed: 9,
                batch: Some(BatchConfig {
                    max_batch: 64,
                    bucket: 0.05,
                }),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert!(!report.saturated);
        assert_eq!(report.tuples_shed, 0);
        // Conservation: in = out + still-in-flight (the horizon cuts a
        // few batches mid-pipeline).
        assert!(report.tuples_out <= report.tuples_in);
        assert!(
            report.tuples_in - report.tuples_out <= 3 * 64,
            "lost tuples: in {} out {}",
            report.tuples_in,
            report.tuples_out
        );
    }
}
