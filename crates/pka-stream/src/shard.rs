//! Sharded multi-stream ingestion with a deterministic merge.
//!
//! [`ShardedStreamPks`] partitions the tail of a kernel stream across N
//! independent shard pipelines via the consistent-hash [`HashRing`]
//! (placement is a pure function of stream position and shard count), runs
//! every shard's online state concurrently on the shared
//! [`Executor`](pka_stats::Executor), and reconciles the shard
//! centroids/reservoirs into one global selection with the deterministic
//! weighted merge in [`crate::merge`].
//!
//! # Parity with the single-shard pipeline
//!
//! Both engines bootstrap through the same [`PrefixModel`]: identical
//! detailed prefix, identical batch PKS (same K, same representatives),
//! identical classifier ensemble. Tail classification is a pure function
//! of a record's raw features — group membership never depends on shard
//! state — so the per-group tail counts summed across shards equal the
//! single pipeline's counts exactly, and the merged selection (and its
//! projected cycles) is *identical by construction*, not approximately.
//!
//! # Determinism
//!
//! Routing is worker-independent; each shard folds its records strictly in
//! stream order; cross-shard reductions (counts, the final merge) iterate
//! in shard-id order. Final output is bitwise identical for any worker
//! count, any shard enumeration order, and across a live reshard — moving
//! a shard's state to a new owner lane changes *which thread* runs it,
//! never what it computes, and checkpoints deliberately omit owner lanes.
//!
//! # Throughput
//!
//! The tail avoids the single-shard pipeline's per-record costs: features
//! come from the source's launch-view fast path
//! ([`KernelSource::next_features_into`]), each shard labels its rows
//! through its own [`LabelMemo`] (the exact memoised batch classifier the
//! batch two-level pipeline and [`StreamPks`](crate::StreamPks) share), and
//! records fold shard-local with no cross-shard synchronisation inside a
//! round.

use pka_core::{selection_attribution, ErrorAttribution, Selection, ShardAttribution};
use pka_ml::classify::{Ensemble, LabelMemo};
use pka_stats::hash::{mix64, UnitStream};
use pka_stats::Executor;
use serde_json::json;
use std::sync::{Mutex, RwLock};

use crate::cancel::CancelToken;
use crate::checkpoint::{MergedSection, ReservoirItem, ReservoirState, ShardSection, ShardedCheckpoint};
use crate::drift::{Drift, DriftTracker};
use crate::merge::{lloyd_iterations, merge_sections};
use crate::normalize::StreamingNormalizer;
use crate::pipeline::{PrefixModel, StreamConfig, StreamReport};
use crate::ring::HashRing;
use crate::source::KernelSource;
use crate::StreamError;

/// One shard's complete online state (plus unpersisted scratch).
struct ShardState {
    normalizer: StreamingNormalizer,
    centroids: Vec<Vec<f64>>,
    centroid_counts: Vec<u64>,
    drift: Vec<DriftTracker>,
    tail_counts: Vec<u64>,
    reservoir_items: Vec<ReservoirItem>,
    reservoir_seen: u64,
    records: u64,
    drifts: u64,
    reclusters: u64,
    // Scratch below: pure caches/buffers, never checkpointed. A shard
    // rebuilt from its serialised section starts these fresh, which cannot
    // change any output (the memo is an exact cache of a pure function).
    memo: LabelMemo,
    row_idx: Vec<usize>,
    rows: Vec<f64>,
    labels: Vec<usize>,
    norm: Vec<f64>,
}

impl ShardState {
    /// Seeds a shard from the shared prefix model: same normalizer stats,
    /// same prefix centroids and populations, fresh drift envelopes and an
    /// empty reservoir (the prefix is global state, not any shard's tail).
    fn seeded(model: &PrefixModel, config: &StreamConfig) -> Self {
        let k = model.selection.k();
        Self::assemble(
            StreamingNormalizer::from_stats(model.normalizer.stats()),
            model.centroids.clone(),
            model.centroid_counts.clone(),
            vec![
                DriftTracker::new(
                    config.drift_calibration,
                    config.drift_sigma,
                    config.drift_alpha,
                );
                k
            ],
            vec![0; k],
            Vec::new(),
            0,
            0,
            0,
            0,
            model.normalizer.dims(),
        )
    }

    fn from_section(section: ShardSection, dims: usize) -> Self {
        Self::assemble(
            StreamingNormalizer::from_stats(section.normalizer),
            section.centroids,
            section.centroid_counts,
            section.drift,
            section.tail_counts,
            section.reservoir.items,
            section.reservoir.seen,
            section.records,
            section.drifts,
            section.reclusters,
            dims,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        normalizer: StreamingNormalizer,
        centroids: Vec<Vec<f64>>,
        centroid_counts: Vec<u64>,
        drift: Vec<DriftTracker>,
        tail_counts: Vec<u64>,
        reservoir_items: Vec<ReservoirItem>,
        reservoir_seen: u64,
        records: u64,
        drifts: u64,
        reclusters: u64,
        dims: usize,
    ) -> Self {
        Self {
            normalizer,
            centroids,
            centroid_counts,
            drift,
            tail_counts,
            reservoir_items,
            reservoir_seen,
            records,
            drifts,
            reclusters,
            memo: LabelMemo::new(dims),
            row_idx: Vec::new(),
            rows: Vec::new(),
            labels: Vec::new(),
            norm: Vec::with_capacity(dims),
        }
    }

    fn section(&self, shard_cap: usize) -> ShardSection {
        ShardSection {
            records: self.records,
            tail_counts: self.tail_counts.clone(),
            normalizer: self.normalizer.stats(),
            centroids: self.centroids.clone(),
            centroid_counts: self.centroid_counts.clone(),
            drift: self.drift.clone(),
            reservoir: ReservoirState {
                cap: shard_cap,
                seen: self.reservoir_seen,
                items: self.reservoir_items.clone(),
            },
            drifts: self.drifts,
            reclusters: self.reclusters,
        }
    }
}

/// One round's shared inputs: the flat feature batch plus routing.
struct RoundInput {
    /// Row-major features, `rows × dims`.
    flat: Vec<f64>,
    /// Records in this round.
    rows: usize,
    /// Absolute stream position of row 0.
    base_pos: u64,
    /// Owning shard per row (precomputed from the ring, in row order).
    owners: Vec<usize>,
    /// Which executor lane currently runs each shard. Starts as the
    /// identity; a live reshard rewrites one entry. Placement (`owners`)
    /// never consults this — lanes are pure scheduling.
    lane_of: Vec<usize>,
}

/// Summary of a sharded run: the familiar [`StreamReport`] plus the shard
/// topology's own outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Run summary (counts aggregated across shards).
    pub report: StreamReport,
    /// Tail records folded by each shard, in shard-id order.
    pub shard_records: Vec<u64>,
    /// [`HashRing::map_hash`] of the placement used for the run.
    pub map_hash: u64,
    /// The merged selection over the entire stream — identical to the
    /// single-shard pipeline's on the same records.
    pub selection: Selection,
    /// Final resumable snapshot, including the [`MergedSection`].
    pub final_checkpoint: ShardedCheckpoint,
    /// Per-group error attribution (`pka.attribution/v1`) over the merged
    /// selection, with one shard section per shard pipeline. Identical to
    /// the single-shard pipeline's artifact apart from those sections.
    pub attribution: ErrorAttribution,
}

/// The sharded online PKS engine. See the module docs for the contract.
///
/// # Examples
///
/// ```
/// use pka_gpu::GpuConfig;
/// use pka_profile::Profiler;
/// use pka_stream::{ShardedStreamPks, StreamConfig, WorkloadSource, synthetic_workload};
///
/// let workload = synthetic_workload(5_000);
/// let mut source = WorkloadSource::new(workload, Profiler::new(GpuConfig::v100()));
/// let engine = ShardedStreamPks::new(StreamConfig::default().with_prefix(500), 4);
/// let outcome = engine.run(&mut source, |_checkpoint| Ok(()))?;
/// assert_eq!(outcome.report.records, 5_000);
/// assert_eq!(outcome.shard_records.iter().sum::<u64>(), 4_500);
/// # Ok::<(), pka_stream::StreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStreamPks {
    config: StreamConfig,
    shards: usize,
    exec: Executor,
    reshard: Option<(u64, usize, usize)>,
}

impl ShardedStreamPks {
    /// Creates the engine with `shards` shard pipelines (min 1) on the
    /// sequential executor.
    pub fn new(config: StreamConfig, shards: usize) -> Self {
        Self {
            config,
            shards: shards.max(1),
            exec: Executor::sequential(),
            reshard: None,
        }
    }

    /// Runs the shard pipelines (and the prefix bootstrap) over `exec`.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Schedules a live reshard: once `at_records` total records have been
    /// consumed, `shard`'s reservoir + centroid state is serialised,
    /// re-parsed and handed to executor lane `new_lane` (qdrant-style
    /// state move with the ring untouched). The final output is
    /// byte-identical with or without the move.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `new_lane` is out of range.
    pub fn with_reshard(mut self, at_records: u64, shard: usize, new_lane: usize) -> Self {
        assert!(shard < self.shards, "reshard source {shard} out of range");
        assert!(new_lane < self.shards, "reshard lane {new_lane} out of range");
        self.reshard = Some((at_records, shard, new_lane));
        self
    }

    /// The configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs the engine over `source` from its current position to end of
    /// stream. `on_checkpoint` observes every periodic sharded checkpoint;
    /// erroring from it aborts the run.
    ///
    /// Checkpoints are emitted at mini-batch grain: the first batch
    /// boundary at or past each `checkpoint_every` multiple. The cadence
    /// depends only on the batch size and the stream, never on workers.
    ///
    /// # Errors
    ///
    /// Propagates source, clustering, classification and callback
    /// failures. An empty source is a [`StreamError::Pipeline`] error.
    pub fn run<S, F>(
        &self,
        source: &mut S,
        on_checkpoint: F,
    ) -> Result<ShardedOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&ShardedCheckpoint) -> Result<(), StreamError>,
    {
        self.run_with_cancel(source, on_checkpoint, &CancelToken::new())
    }

    /// [`run`](Self::run) with cooperative cancellation: `cancel` is polled
    /// at every tail batch boundary. When it fires, one teardown checkpoint
    /// covering every folded record is delivered through `on_checkpoint`
    /// and the run returns [`StreamError::Cancelled`];
    /// [`resume`](Self::resume) continues from that checkpoint.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) can fail with, plus
    /// [`StreamError::Cancelled`] when the token fires.
    pub fn run_with_cancel<S, F>(
        &self,
        source: &mut S,
        on_checkpoint: F,
        cancel: &CancelToken,
    ) -> Result<ShardedOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&ShardedCheckpoint) -> Result<(), StreamError>,
    {
        let model = PrefixModel::bootstrap(&self.config, &self.exec, source)?;
        let states: Vec<ShardState> = (0..self.shards)
            .map(|_| ShardState::seeded(&model, &self.config))
            .collect();
        self.drain(source, model, states, 0, 0, 0, on_checkpoint, cancel)
    }

    /// Resumes from `checkpoint` against a restartable `source`,
    /// continuing to a final checkpoint byte-identical to an uninterrupted
    /// run's.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint disagrees with this configuration,
    /// topology or source, and for anything [`run`](Self::run) can fail
    /// with.
    pub fn resume<S, F>(
        &self,
        source: &mut S,
        checkpoint: &ShardedCheckpoint,
        on_checkpoint: F,
    ) -> Result<ShardedOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&ShardedCheckpoint) -> Result<(), StreamError>,
    {
        self.resume_with_cancel(source, checkpoint, on_checkpoint, &CancelToken::new())
    }

    /// [`resume`](Self::resume) with cooperative cancellation, with the
    /// same batch-boundary semantics as
    /// [`run_with_cancel`](Self::run_with_cancel).
    ///
    /// # Errors
    ///
    /// Everything [`resume`](Self::resume) can fail with, plus
    /// [`StreamError::Cancelled`] when the token fires.
    pub fn resume_with_cancel<S, F>(
        &self,
        source: &mut S,
        checkpoint: &ShardedCheckpoint,
        on_checkpoint: F,
        cancel: &CancelToken,
    ) -> Result<ShardedOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&ShardedCheckpoint) -> Result<(), StreamError>,
    {
        let corrupt = |message: String| StreamError::Checkpoint { message };
        if checkpoint.config != self.config.to_value() {
            return Err(corrupt(
                "checkpoint was taken under a different configuration".into(),
            ));
        }
        if checkpoint.shards != self.shards {
            return Err(corrupt(format!(
                "checkpoint has {} shards, engine has {}",
                checkpoint.shards, self.shards
            )));
        }
        let ring_hash = HashRing::new(self.shards).map_hash();
        if checkpoint.map_hash != ring_hash {
            return Err(corrupt(format!(
                "checkpoint shard map {:#x} does not match the ring for {} shards ({ring_hash:#x})",
                checkpoint.map_hash, self.shards
            )));
        }
        source.restart()?;
        if checkpoint.source != source.name() {
            return Err(corrupt(format!(
                "checkpoint is for source `{}`, not `{}`",
                checkpoint.source,
                source.name()
            )));
        }
        let model = PrefixModel::bootstrap(&self.config, &self.exec, source)?;
        if model.records != checkpoint.prefix {
            return Err(corrupt(format!(
                "source prefix is {} records, checkpoint recorded {}",
                model.records, checkpoint.prefix
            )));
        }
        if model.selection.k() != checkpoint.selected_k {
            return Err(corrupt(format!(
                "re-derived prefix selects K={}, checkpoint recorded K={}",
                model.selection.k(),
                checkpoint.selected_k
            )));
        }
        let snapshot: Selection = serde_json::from_value(checkpoint.selection.clone())
            .map_err(|e| corrupt(format!("checkpoint selection does not parse: {e}")))?;
        if snapshot.representative_ids() != model.selection.representative_ids() {
            return Err(corrupt(
                "checkpoint selection has different representatives than the \
                 re-derived prefix — wrong stream or corrupted checkpoint"
                    .into(),
            ));
        }
        let dims = model.normalizer.dims();
        let states: Vec<ShardState> = checkpoint
            .shard_sections
            .iter()
            .map(|s| ShardState::from_section(s.clone(), dims))
            .collect();

        let to_skip = checkpoint.records - checkpoint.prefix;
        let skipped = source.skip(to_skip)?;
        if skipped != to_skip {
            return Err(corrupt(format!(
                "stream ended while skipping to record {} (skipped {skipped} of {to_skip})",
                checkpoint.records
            )));
        }
        if pka_obs::enabled() {
            pka_obs::counter("stream.resumes").incr();
            pka_obs::trace_event(
                "stream.resume",
                json!({
                    "seq": checkpoint.seq,
                    "records": checkpoint.records,
                    "source": checkpoint.source,
                    "shards": checkpoint.shards as u64,
                }),
            );
        }
        self.drain(
            source,
            model,
            states,
            checkpoint.records - checkpoint.prefix,
            checkpoint.seq,
            checkpoint.max_buffered,
            on_checkpoint,
            cancel,
        )
    }

    /// Per-shard reservoir capacity: the global budget split evenly,
    /// rounded up so the union always covers the global cap.
    fn shard_cap(&self) -> usize {
        (self.config.reservoir + self.shards - 1) / self.shards
    }

    /// Streams the tail through the shard pipelines until end of stream.
    #[allow(clippy::too_many_arguments)]
    fn drain<S, F>(
        &self,
        source: &mut S,
        model: PrefixModel,
        states: Vec<ShardState>,
        tail_done: u64,
        seq: u64,
        max_buffered: u64,
        mut on_checkpoint: F,
        cancel: &CancelToken,
    ) -> Result<ShardedOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&ShardedCheckpoint) -> Result<(), StreamError>,
    {
        let _span = pka_obs::span("stream.shard_tail");
        let obs = pka_obs::enabled();
        let snap_every = if obs { pka_obs::snapshot_every() } else { 0 };
        let ring = HashRing::new(self.shards);
        let map_hash = ring.map_hash();
        let dims = model.normalizer.dims();
        let shard_cap = self.shard_cap();
        let every = self.config.checkpoint_every;
        let prefix_records = model.records;
        let source_name = model.source_name.clone();
        let pristine = model.selection.clone();

        let mut seq = seq;
        let mut checkpoints_emitted = 0u64;
        let mut max_buffered = max_buffered;
        let mut records = prefix_records + tail_done;

        let cells: Vec<Mutex<ShardState>> = states.into_iter().map(Mutex::new).collect();
        // Per-shard metric names are interned once (`&'static`, bounded by
        // the shard count) so the hot loop takes handles, not allocations.
        let counter_names: Vec<&'static str> = (0..self.shards)
            .map(|s| pka_obs::intern(&format!("stream.shard{s}.records")))
            .collect();

        match model.ensemble.as_ref() {
            None => {
                if source.next_record(false)?.is_some() {
                    return Err(StreamError::Pipeline {
                        message: "source yielded tail records after reporting end of stream"
                            .into(),
                    });
                }
            }
            Some(ensemble) => {
                let input_cell = RwLock::new(RoundInput {
                    flat: Vec::with_capacity(self.config.batch * dims),
                    rows: 0,
                    base_pos: 0,
                    owners: Vec::with_capacity(self.config.batch),
                    lane_of: (0..self.shards).collect(),
                });
                let mut resharded = false;
                self.exec.rounds(
                    self.shards,
                    1,
                    |_, range| -> Result<(), StreamError> {
                        let input = input_cell.read().expect("shard round input lock");
                        for lane in range {
                            for shard in 0..self.shards {
                                if input.lane_of[shard] != lane {
                                    continue;
                                }
                                let mut state = cells[shard].lock().expect("shard state lock");
                                classify_and_fold(
                                    &mut state,
                                    &input,
                                    shard,
                                    &self.config,
                                    ensemble,
                                    dims,
                                    shard_cap,
                                )?;
                            }
                        }
                        Ok(())
                    },
                    |run| -> Result<(), StreamError> {
                        loop {
                            // Cancellation point: between batches, so every
                            // folded record is in the teardown checkpoint
                            // and no half-classified batch is observable.
                            if cancel.is_cancelled() {
                                seq += 1;
                                checkpoints_emitted += 1;
                                let checkpoint = build_checkpoint(
                                    &self.config,
                                    &cells,
                                    &pristine,
                                    seq,
                                    records,
                                    prefix_records,
                                    &source_name,
                                    self.shards,
                                    map_hash,
                                    shard_cap,
                                    max_buffered,
                                    None,
                                );
                                on_checkpoint(&checkpoint)?;
                                if obs {
                                    pka_obs::counter("stream.cancels").incr();
                                    pka_obs::trace_event(
                                        "stream.cancel",
                                        json!({
                                            "seq": checkpoint.seq,
                                            "records": checkpoint.records,
                                        }),
                                    );
                                }
                                return Err(StreamError::Cancelled);
                            }
                            // Live reshard: serialise the shard's section,
                            // re-parse it, hand the rebuilt state to its new
                            // lane. Placement is untouched, so every byte of
                            // downstream output is unchanged by the move.
                            if let Some((at, shard, lane)) = self.reshard {
                                if !resharded && records >= at {
                                    resharded = true;
                                    let section = {
                                        let state =
                                            cells[shard].lock().expect("shard state lock");
                                        state.section(shard_cap)
                                    };
                                    let parsed = ShardSection::from_value(
                                        &section.to_value(),
                                        "reshard",
                                        pristine.k(),
                                        dims,
                                    )?;
                                    *cells[shard].lock().expect("shard state lock") =
                                        ShardState::from_section(parsed, dims);
                                    input_cell.write().expect("shard round input lock").lane_of
                                        [shard] = lane;
                                    if obs {
                                        pka_obs::counter("stream.reshards").incr();
                                        pka_obs::trace_event(
                                            "stream.reshard",
                                            json!({
                                                "shard": shard as u64,
                                                "lane": lane as u64,
                                                "records": records,
                                            }),
                                        );
                                    }
                                }
                            }

                            // Refill the flat batch via the launch-view fast
                            // path and route every row.
                            let filled = {
                                let mut input =
                                    input_cell.write().expect("shard round input lock");
                                let input = &mut *input;
                                input.flat.clear();
                                input.owners.clear();
                                input.base_pos = records;
                                let mut rows = 0usize;
                                while rows < self.config.batch {
                                    if !source.next_features_into(&mut input.flat)? {
                                        break;
                                    }
                                    rows += 1;
                                }
                                for i in 0..rows {
                                    input
                                        .owners
                                        .push(ring.route(input.base_pos + i as u64));
                                }
                                input.rows = rows;
                                rows
                            };
                            if filled == 0 {
                                return Ok(());
                            }

                            let reservoir_total: u64 = cells
                                .iter()
                                .map(|c| {
                                    c.lock().expect("shard state lock").reservoir_items.len()
                                        as u64
                                })
                                .sum();
                            max_buffered = max_buffered.max(filled as u64 + reservoir_total);

                            for result in run() {
                                result?;
                            }
                            let before = records;
                            records += filled as u64;

                            if obs {
                                let input = input_cell.read().expect("shard round input lock");
                                let mut per_shard = vec![0u64; self.shards];
                                for &owner in &input.owners {
                                    per_shard[owner] += 1;
                                }
                                drop(input);
                                pka_obs::counter("stream.records").add(filled as u64);
                                for (&name, &n) in counter_names.iter().zip(&per_shard) {
                                    if n > 0 {
                                        pka_obs::counter(name).add(n);
                                    }
                                }
                                pka_obs::gauge("stream.max_buffered").set(max_buffered as i64);
                            }

                            if before / every < records / every {
                                seq += 1;
                                checkpoints_emitted += 1;
                                let checkpoint = build_checkpoint(
                                    &self.config,
                                    &cells,
                                    &pristine,
                                    seq,
                                    records,
                                    prefix_records,
                                    &source_name,
                                    self.shards,
                                    map_hash,
                                    shard_cap,
                                    max_buffered,
                                    None,
                                );
                                on_checkpoint(&checkpoint)?;
                                if obs {
                                    pka_obs::trace_event(
                                        "stream.checkpoint",
                                        json!({
                                            "seq": checkpoint.seq,
                                            "records": checkpoint.records,
                                        }),
                                    );
                                }
                            }
                            if snap_every != 0 && before / snap_every < records / snap_every {
                                emit_shard_snapshot(
                                    &self.config,
                                    &cells,
                                    &pristine,
                                    records,
                                    checkpoints_emitted,
                                    max_buffered,
                                );
                            }
                        }
                    },
                )?;
            }
        }

        let states: Vec<ShardState> = cells
            .into_iter()
            .map(|cell| cell.into_inner().expect("shard state lock"))
            .collect();
        let sections: Vec<ShardSection> =
            states.iter().map(|s| s.section(shard_cap)).collect();
        let merged = merge_sections(&sections, self.config.reservoir, self.config.recluster_iters);
        let selection = merged_selection(&pristine, &sections);
        let shard_records: Vec<u64> = states.iter().map(|s| s.records).collect();
        let drifts: u64 = states.iter().map(|s| s.drifts).sum();
        let reclusters: u64 = states.iter().map(|s| s.reclusters).sum();

        if obs {
            pka_obs::counter("stream.checkpoints").add(checkpoints_emitted);
            pka_obs::counter("stream.drifts").add(drifts);
            pka_obs::counter("stream.reclusters").add(reclusters);
            for (shard, state) in states.iter().enumerate() {
                pka_obs::gauge(pka_obs::intern(&format!("stream.shard{shard}.reservoir")))
                    .set(state.reservoir_items.len() as i64);
            }
            pka_obs::gauge("stream.selected_k").set(selection.k() as i64);
        }

        seq += 1;
        let final_checkpoint = ShardedCheckpoint {
            seq,
            records,
            prefix: prefix_records,
            source: source_name.clone(),
            selected_k: selection.k(),
            selection: serde_json::to_value(&selection).expect("selection serialises to json"),
            projected_cycles: selection.projected_cycles(),
            shards: self.shards,
            map_hash,
            shard_sections: sections,
            merged: Some(merged),
            max_buffered,
            config: self.config.to_value(),
        };
        let report = StreamReport {
            records,
            prefix: prefix_records,
            selected_k: selection.k(),
            projected_cycles: selection.projected_cycles(),
            group_counts: selection.groups().iter().map(|g| g.count()).collect(),
            drifts,
            reclusters,
            checkpoints: checkpoints_emitted,
            max_buffered,
        };
        // Attribution over the merged selection. The merged selection and
        // the provenance both come from the shared prefix bootstrap, so the
        // group sections are byte-identical to the single-shard pipeline's;
        // only the shard sections below are new.
        let mut attribution =
            selection_attribution(&source_name, &selection, &model.provenance);
        attribution.shards = states
            .iter()
            .enumerate()
            .map(|(shard, state)| ShardAttribution {
                shard,
                records: state.records,
                tail_counts: state.tail_counts.clone(),
            })
            .collect();
        Ok(ShardedOutcome {
            report,
            shard_records,
            map_hash,
            selection,
            final_checkpoint,
            attribution,
        })
    }
}

/// The global selection: the pristine prefix selection plus every shard's
/// classified tail counts, summed in shard-id order.
fn merged_selection(pristine: &Selection, sections: &[ShardSection]) -> Selection {
    let mut selection = pristine.clone();
    let k = selection.k();
    let mut totals = vec![0u64; k];
    for section in sections {
        for (total, &count) in totals.iter_mut().zip(&section.tail_counts) {
            *total += count;
        }
    }
    for (group, &n) in totals.iter().enumerate() {
        if n > 0 {
            selection.add_classified_members(group, n);
        }
    }
    selection
}

/// Builds a periodic sharded checkpoint from the live shard states.
#[allow(clippy::too_many_arguments)]
fn build_checkpoint(
    config: &StreamConfig,
    cells: &[Mutex<ShardState>],
    pristine: &Selection,
    seq: u64,
    records: u64,
    prefix: u64,
    source_name: &str,
    shards: usize,
    map_hash: u64,
    shard_cap: usize,
    max_buffered: u64,
    merged: Option<MergedSection>,
) -> ShardedCheckpoint {
    let sections: Vec<ShardSection> = cells
        .iter()
        .map(|cell| cell.lock().expect("shard state lock").section(shard_cap))
        .collect();
    let selection = merged_selection(pristine, &sections);
    ShardedCheckpoint {
        seq,
        records,
        prefix,
        source: source_name.to_string(),
        selected_k: selection.k(),
        selection: serde_json::to_value(&selection).expect("selection serialises to json"),
        projected_cycles: selection.projected_cycles(),
        shards,
        map_hash,
        shard_sections: sections,
        merged,
        max_buffered,
        config: config.to_value(),
    }
}

/// Emits one aggregated `pka.snapshot/v1` record with per-shard lanes.
fn emit_shard_snapshot(
    config: &StreamConfig,
    cells: &[Mutex<ShardState>],
    pristine: &Selection,
    records: u64,
    checkpoints: u64,
    max_buffered: u64,
) {
    let mut reservoir_len = 0u64;
    let mut drifts = 0u64;
    let mut reclusters = 0u64;
    let mut totals = vec![0u64; pristine.k()];
    let mut shard_records = Vec::with_capacity(cells.len());
    for cell in cells {
        let state = cell.lock().expect("shard state lock");
        reservoir_len += state.reservoir_items.len() as u64;
        drifts += state.drifts;
        reclusters += state.reclusters;
        shard_records.push(state.records);
        for (total, &count) in totals.iter_mut().zip(&state.tail_counts) {
            *total += count;
        }
    }
    let group_counts: Vec<u64> = pristine
        .groups()
        .iter()
        .zip(&totals)
        .map(|(g, &t)| g.count() + t)
        .collect();
    let record = pka_obs::SnapshotRecord {
        phase: "tail".to_string(),
        records,
        selected_k: pristine.k() as i64,
        group_counts,
        reservoir_len,
        reservoir_cap: config.reservoir as u64,
        drifts,
        reclusters,
        checkpoints,
        max_buffered,
        shards: shard_records,
    };
    pka_obs::emit_snapshot(&record, json!({}));
}

/// Classifies and folds every row routed to `shard`, in stream order.
///
/// The shard's rows are gathered into one flat batch and labelled through
/// its [`LabelMemo`], which matches per-record `ensemble.predict` on every
/// row.
fn classify_and_fold(
    state: &mut ShardState,
    input: &RoundInput,
    shard: usize,
    config: &StreamConfig,
    ensemble: &Ensemble,
    dims: usize,
    shard_cap: usize,
) -> Result<(), StreamError> {
    let mut row_idx = std::mem::take(&mut state.row_idx);
    let mut rows = std::mem::take(&mut state.rows);
    let mut labels = std::mem::take(&mut state.labels);
    row_idx.clear();
    rows.clear();
    for (row, &owner) in input.owners.iter().enumerate() {
        if owner == shard {
            row_idx.push(row);
            rows.extend_from_slice(&input.flat[row * dims..(row + 1) * dims]);
        }
    }
    if !row_idx.is_empty() {
        state.memo.label_into(ensemble, &rows, &mut labels)?;
        let classified = row_idx.iter().zip(&labels).zip(rows.chunks_exact(dims));
        for ((&row, &label), features) in classified {
            fold_row(state, config, shard_cap, label, features, input.base_pos + row as u64);
        }
    }
    state.row_idx = row_idx;
    state.rows = rows;
    state.labels = labels;
    Ok(())
}

/// Folds one classified record into its shard's online state — the same
/// update sequence as the single-shard pipeline's fold, restricted to the
/// shard: counts, normalizer, centroid, reservoir (Algorithm R keyed on
/// the absolute position, counted per shard), drift and bounded
/// re-cluster.
fn fold_row(
    state: &mut ShardState,
    config: &StreamConfig,
    shard_cap: usize,
    label: usize,
    features: &[f64],
    pos: u64,
) {
    state.tail_counts[label] += 1;
    state.norm.clear();
    state.norm.extend_from_slice(features);
    state.normalizer.observe(&state.norm);
    state.normalizer.normalize(&mut state.norm);

    let distance = state.centroids[label]
        .iter()
        .zip(&state.norm)
        .map(|(c, x)| (x - c) * (x - c))
        .sum::<f64>()
        .sqrt();

    state.centroid_counts[label] += 1;
    let n = state.centroid_counts[label] as f64;
    for (c, x) in state.centroids[label].iter_mut().zip(&state.norm) {
        *c += (x - *c) / n;
    }

    state.reservoir_seen += 1;
    if state.reservoir_items.len() < shard_cap {
        state.reservoir_items.push(ReservoirItem {
            pos,
            label,
            features: state.norm.clone(),
        });
    } else {
        let slot = UnitStream::new(mix64(config.seed ^ pos))
            .next_index(state.reservoir_seen as usize);
        if slot < shard_cap {
            state.reservoir_items[slot] = ReservoirItem {
                pos,
                label,
                features: state.norm.clone(),
            };
        }
    }

    if state.drift[label].observe(distance) == Drift::Fired {
        state.drifts += 1;
        if !state.reservoir_items.is_empty() && !state.centroids.is_empty() {
            lloyd_iterations(
                &mut state.centroids,
                &state.reservoir_items,
                config.recluster_iters,
            );
            for tracker in &mut state.drift {
                tracker.reset();
            }
            let k = state.centroids.len();
            let mut counts = vec![0u64; k];
            for item in &state.reservoir_items {
                if item.label < k {
                    counts[item.label] += 1;
                }
            }
            for (cc, c) in state.centroid_counts.iter_mut().zip(counts) {
                *cc = c.max(1);
            }
            state.reclusters += 1;
        }
    }
    state.records += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{synthetic_workload, WorkloadSource};
    use pka_gpu::GpuConfig;
    use pka_profile::Profiler;

    fn source(n: u64) -> WorkloadSource {
        WorkloadSource::new(synthetic_workload(n), Profiler::new(GpuConfig::v100()))
    }

    fn small_config() -> StreamConfig {
        StreamConfig::default()
            .with_prefix(200)
            .with_batch(64)
            .with_reservoir(128)
            .with_checkpoint_every(500)
    }

    #[test]
    fn every_record_lands_in_exactly_one_shard() {
        let mut src = source(2_000);
        let outcome = ShardedStreamPks::new(small_config(), 4)
            .run(&mut src, |_| Ok(()))
            .unwrap();
        assert_eq!(outcome.report.records, 2_000);
        assert_eq!(
            outcome.shard_records.iter().sum::<u64>(),
            1_800,
            "all tail records distributed across shards"
        );
        assert!(outcome.shard_records.iter().all(|&r| r > 0));
        assert_eq!(
            outcome.report.group_counts.iter().sum::<u64>(),
            2_000,
            "every kernel lands in a group"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_final_checkpoint() {
        let run = |workers: usize| {
            let mut src = source(1_500);
            ShardedStreamPks::new(small_config(), 4)
                .with_executor(Executor::new(workers))
                .run(&mut src, |_| Ok(()))
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.report, b.report);
        assert_eq!(
            a.final_checkpoint.to_json(),
            b.final_checkpoint.to_json(),
            "final checkpoints must be byte-identical across worker counts"
        );
        assert_eq!(
            serde_json::to_string(&a.attribution).unwrap(),
            serde_json::to_string(&b.attribution).unwrap(),
            "attribution artifacts must be byte-identical across worker counts"
        );
    }

    #[test]
    fn attribution_matches_single_pipeline_apart_from_shard_sections() {
        let mut src = source(2_000);
        let sharded = ShardedStreamPks::new(small_config(), 4)
            .run(&mut src, |_| Ok(()))
            .unwrap();
        let mut src = source(2_000);
        let single = crate::StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();

        sharded.attribution.verify_sums().expect("sharded terms sum");
        assert_eq!(sharded.attribution.shards.len(), 4);
        assert_eq!(
            sharded
                .attribution
                .shards
                .iter()
                .map(|s| s.records)
                .collect::<Vec<_>>(),
            sharded.shard_records
        );

        // Strip the shard sections: what remains must be byte-identical to
        // the single-shard pipeline's artifact.
        let strip = |a: &pka_core::ErrorAttribution| {
            let mut v = serde_json::to_value(a).unwrap();
            if let serde_json::Value::Object(m) = &mut v {
                m.remove("shards");
            }
            serde_json::to_string(&v).unwrap()
        };
        assert_eq!(
            strip(&sharded.attribution),
            strip(&single.attribution),
            "sharded attribution differs from single only by its shard sections"
        );
    }

    #[test]
    fn reshard_move_is_byte_invisible() {
        let run = |engine: ShardedStreamPks| {
            let mut src = source(1_500);
            engine.run(&mut src, |_| Ok(())).unwrap()
        };
        let plain = run(ShardedStreamPks::new(small_config(), 4));
        let moved = run(ShardedStreamPks::new(small_config(), 4).with_reshard(700, 0, 3));
        assert_eq!(
            plain.final_checkpoint.to_json(),
            moved.final_checkpoint.to_json(),
            "a live reshard must not change any output byte"
        );
        assert_eq!(plain.report, moved.report);
    }

    #[test]
    fn single_shard_engine_matches_reference_selection() {
        let mut src = source(2_000);
        let sharded = ShardedStreamPks::new(small_config(), 1)
            .run(&mut src, |_| Ok(()))
            .unwrap();
        let mut src = source(2_000);
        let reference = crate::StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();
        assert_eq!(sharded.selection.k(), reference.selection.k());
        assert_eq!(
            sharded.selection.representative_ids(),
            reference.selection.representative_ids()
        );
        assert_eq!(
            sharded.report.group_counts, reference.report.group_counts,
            "single-shard engine must agree with the reference pipeline"
        );
        assert_eq!(
            sharded.report.projected_cycles,
            reference.report.projected_cycles
        );
    }

    #[test]
    fn checkpoint_callback_error_aborts() {
        let mut src = source(2_000);
        let result = ShardedStreamPks::new(small_config(), 2).run(&mut src, |_| {
            Err(StreamError::Checkpoint {
                message: "sink full".into(),
            })
        });
        assert!(matches!(result, Err(StreamError::Checkpoint { .. })));
    }

    #[test]
    fn stream_ending_inside_prefix_still_selects() {
        let mut src = source(150);
        let outcome = ShardedStreamPks::new(small_config(), 4)
            .run(&mut src, |_| Ok(()))
            .unwrap();
        assert_eq!(outcome.report.records, 150);
        assert_eq!(outcome.shard_records, vec![0, 0, 0, 0]);
        assert_eq!(outcome.report.checkpoints, 0);
    }

    #[test]
    fn resume_rejects_wrong_topology() {
        let mut src = source(1_200);
        let outcome = ShardedStreamPks::new(small_config(), 2)
            .run(&mut src, |_| Ok(()))
            .unwrap();
        let err = ShardedStreamPks::new(small_config(), 4)
            .resume(&mut src, &outcome.final_checkpoint, |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let engine = ShardedStreamPks::new(small_config(), 4);
        let mut src = source(2_000);
        let uninterrupted = engine.run(&mut src, |_| Ok(())).unwrap();

        // Capture the first periodic checkpoint, then resume from it.
        let mut first: Option<ShardedCheckpoint> = None;
        let mut src = source(2_000);
        engine
            .run(&mut src, |cp| {
                if first.is_none() {
                    first = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();
        let first = first.expect("at least one periodic checkpoint");
        let mut src = source(2_000);
        let resumed = engine.resume(&mut src, &first, |_| Ok(())).unwrap();
        assert_eq!(
            resumed.final_checkpoint.to_json(),
            uninterrupted.final_checkpoint.to_json(),
            "resume must reproduce the uninterrupted run byte-for-byte"
        );
    }

    /// Sharded cancellation mirrors the single-pipeline contract: stop at a
    /// batch boundary, deliver a teardown checkpoint, resume to the same
    /// selection as an uninterrupted run.
    #[test]
    fn sharded_cancel_leaves_resumable_checkpoint() {
        let engine = ShardedStreamPks::new(small_config(), 3);
        let mut src = source(2_400);
        let full = engine.run(&mut src, |_| Ok(())).unwrap();

        let cancel = CancelToken::new();
        let mut teardown: Option<ShardedCheckpoint> = None;
        let mut src = source(2_400);
        let result = engine.run_with_cancel(
            &mut src,
            |cp| {
                cancel.cancel();
                teardown = Some(cp.clone());
                Ok(())
            },
            &cancel,
        );
        assert_eq!(result.unwrap_err(), StreamError::Cancelled);
        let teardown = teardown.expect("teardown checkpoint was delivered");
        assert!(teardown.records < 2_400);

        let mut src = source(2_400);
        let resumed = engine.resume(&mut src, &teardown, |_| Ok(())).unwrap();
        assert_eq!(resumed.report.records, 2_400);
        assert_eq!(resumed.report.selected_k, full.report.selected_k);
        assert_eq!(
            resumed.report.projected_cycles,
            full.report.projected_cycles
        );
    }
}
