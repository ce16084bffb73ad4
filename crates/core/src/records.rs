//! Collision-record bookkeeping and cascading resolution (§IV-B and the
//! reader pseudocode of §IV-D).
//!
//! Every collision slot deposits a *collision record* — the slot index and
//! (conceptually) the recorded mixed signal. Whenever the reader learns a
//! new ID — from a singleton slot or from resolving another record — it
//! checks every outstanding record that ID participated in; a record whose
//! unknown-participant count drops to one yields the last ID by signal
//! subtraction, and that ID is fed back into the cascade (the `while S ≠ ∅`
//! worklist of the pseudocode).
//!
//! Every attempt — at deposit and inside the cascade, for the ideal,
//! recorded and synthesized backends alike — goes through one function,
//! `try_resolve`. The chain is sequential by nature: the records a newly
//! learned ID unlocks all contain that ID, so each outcome can change what
//! the next record sees.

use crate::inline_vec::InlineVec;
use crate::resolution::{RecoveryPolicy, SignalResolutionConfig};
use rfid_signal::anc::{ReferenceCache, ResolveScratch};
use rfid_signal::channel::ChannelModel;
use rfid_signal::complex::Complex;
use rfid_signal::msk::MskConfig;
use rfid_signal::{anc, cascade};
use rfid_sim::{noise_stream_seed, CounterRng};
use rfid_types::{TagId, TAG_ID_BITS};
use std::collections::HashMap;

/// A newly resolved ID together with the slot index of the record it came
/// from (FCAT acknowledges resolved tags by this index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The recovered tag ID.
    pub tag: TagId,
    /// Slot index of the collision record that yielded it.
    pub slot: u64,
}

/// How many participants a record stores inline. Usable records have
/// `k ≤ λ ≤ 4`; at the protocols' operating point `k ~ Poisson(√2)`, so
/// eight inline slots leave only the ~1e-5 tail of (never-resolvable)
/// over-λ records to spill.
const INLINE_PARTICIPANTS: usize = 8;

/// How many record indices a tag's reverse index stores inline. Unusable
/// records are indexed too (their exhaustion must be observed), so a tag
/// that stays unknown through the early high-collision phase can sit in
/// well over λ records; eight inline slots keep the spill rate measured
/// over a whole inventory under ~1 % of tags.
const INLINE_RECORDS_PER_TAG: usize = 8;

#[derive(Debug)]
struct Record {
    slot: u64,
    /// Distinct participants as dense tag indices, in first-seen order.
    participants: InlineVec<INLINE_PARTICIPANTS>,
    /// Slot-level: `k ≤ λ` and not spoiled. Signal-level: not corrupted.
    usable: bool,
    /// The waveform recorded off the simulated air (signal-level
    /// fidelity). Signal-backed stores keep `None` and synthesize the
    /// mixture when the record is attempted.
    signal: Option<Vec<Complex>>,
    consumed: bool,
}

/// Aggregate statistics over a store's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecordStats {
    /// Records created.
    pub created: u64,
    /// Records resolved into an ID.
    pub resolved: u64,
    /// Records that became fully known without yielding a new ID
    /// (every participant was learned elsewhere first).
    pub exhausted: u64,
    /// Signal-level resolution attempts that failed CRC (noise defeats).
    pub failed_attempts: u64,
    /// Cascade failures rescued by [`RecoveryPolicy::SalvagePartial`]'s
    /// direct depth-1 re-subtraction.
    pub salvaged: u64,
}

/// One signal-backed resolution attempt, logged for the observability
/// layer (the engine drains this into [`rfid_obs`] record events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResolutionAttemptLog {
    /// Slot index of the record attempted.
    pub record_slot: u64,
    /// Cascade depth of the attempt (1 = resolved from fresh knowledge).
    pub hop: u32,
    /// Residual SNR the subtraction left behind, in dB.
    pub residual_snr_db: f64,
    /// Whether the attempt recovered the record's remaining ID.
    pub success: bool,
}

/// A resolution failure the [`RecoveryPolicy::Requery`] policy turns into
/// a dedicated re-query slot (drained by the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FailedResolution {
    /// Slot index of the spent record.
    pub record_slot: u64,
    /// Dense index of the record's one unknown participant.
    pub unknown: u32,
}

/// How resolutions are decided: the store-internal realization of
/// [`crate::ResolutionModel`] and [`crate::Fidelity`].
#[derive(Debug)]
enum Backend {
    /// Slot-level λ gate with ideal recovery (the paper's §VI model).
    Ideal,
    /// Signal-level fidelity: records carry waveforms recorded off the
    /// simulated air; resolution runs the real ANC chain on them.
    Recorded(MskConfig),
    /// Slot-level protocol with signal-backed resolution: records store
    /// only their participants, a usable record's mixture is synthesized
    /// when it is attempted, every channel and noise term comes from the
    /// record's own counter-based streams, and every resolution runs the
    /// real ANC chain with per-hop residual accumulation.
    Synthesized(Box<SignalBackend>),
}

/// Reserved `hop` tags for [`noise_stream_seed`] derivation. Cascade
/// attempts use their natural hop index (1.., drawing degradation noise
/// only at hop ≥ 2); the reserved values below keep the remaining draw
/// sites on disjoint streams of the same `(seed, record, hop)` family.
/// Receiver AWGN of the stored "recording", generated at attempt time.
const STREAM_RECORDING_NOISE: u32 = 0;
/// Per-tag channel gains/phases of the record's synthesized mixture.
const STREAM_CHANNEL_PARAMS: u32 = u32::MAX - 1;
/// Re-query singleton retransmissions (`record` = re-query counter).
const STREAM_REQUERY: u32 = u32::MAX;

/// State of the [`Backend::Synthesized`] resolution path.
#[derive(Debug)]
struct SignalBackend {
    cfg: SignalResolutionConfig,
    policy: RecoveryPolicy,
    /// Master seed of the per-record noise-stream family: channel draws,
    /// recording AWGN, cascade degradations and re-queries each derive a
    /// counter stream from `(noise_seed, record, hop)`. Kept separate from
    /// the protocol RNG so the contention trajectory is identical to the
    /// ideal model's, and keyed on record coordinates rather than draw
    /// order so every realization is a pure function of the record.
    noise_seed: u64,
    /// Re-query slots executed so far — keys their dedicated streams.
    requeries: u64,
    /// `cfg.channel` with noise zeroed: an attempt synthesizes the clean
    /// mixture (gains applied, no AWGN) on [`STREAM_CHANNEL_PARAMS`], then
    /// adds the recording noise from [`STREAM_RECORDING_NOISE`].
    clean_channel: ChannelModel,
    scratch: anc::MixScratch,
    /// Scratch: participant IDs for synthesis / known IDs for subtraction.
    ids: Vec<TagId>,
    /// Scratch: the waveform under attempt — a record's mixture with its
    /// recording noise realized, or a re-query singleton.
    wave: Vec<Complex>,
    /// Reference waveforms shared by synthesis and every subtraction —
    /// one modulation per distinct ID per cache generation.
    ref_cache: ReferenceCache,
    /// Working memory for every resolution attempt.
    rscratch: ResolveScratch,
}

/// Upper bound on pooled waveform buffers; beyond this, freed buffers are
/// dropped (bounds memory if records are consumed much faster than
/// deposited).
const WAVE_POOL_MAX: usize = 64;

/// The reader's set of outstanding collision records plus its set of known
/// IDs, with cascade resolution.
///
/// # Example
///
/// ```
/// use rfid_anc::CollisionRecordStore;
/// use rfid_types::TagId;
///
/// let mut store = CollisionRecordStore::slot_level(2);
/// let (a, b) = (TagId::from_payload(1), TagId::from_payload(2));
/// store.add_record(5, vec![a, b], true, None);
/// // Learning `a` (say, from a later singleton) resolves the record to `b`.
/// let resolved = store.learn(a);
/// assert_eq!(resolved.len(), 1);
/// assert_eq!(resolved[0].tag, b);
/// assert_eq!(resolved[0].slot, 5);
/// ```
/// Tags are *interned* into dense `u32` indices (by the engine at
/// construction, or lazily by the `TagId` entry points): every per-tag
/// lookup on the hot path — known?, reverse index, hash state — is then an
/// array access instead of a SipHash probe. The `TagId`-keyed map survives
/// only for interning and the public `TagId` API.
#[derive(Debug)]
pub struct CollisionRecordStore {
    records: Vec<Record>,
    /// Dense index → tag ID.
    tags: Vec<TagId>,
    /// Tag ID → dense index; touched only when interning new tags.
    index_of: HashMap<TagId, u32>,
    /// Dense index → outstanding records the tag participates in. Lists of
    /// known tags are dropped: they can never be consulted again.
    by_tag: Vec<InlineVec<INLINE_RECORDS_PER_TAG>>,
    /// Dense index → has the reader learned this tag?
    known: Vec<bool>,
    known_count: usize,
    lambda: u32,
    /// How resolutions are decided (ideal λ gate, recorded waveforms, or
    /// attempt-time synthesis).
    backend: Backend,
    /// Records not yet consumed, maintained incrementally so
    /// [`Self::outstanding`] is O(1) (the observability layer reads it
    /// every slot).
    outstanding: usize,
    stats: RecordStats,
    /// Reusable cascade worklist of `(tag index, resolution depth)` pairs
    /// (kept empty between calls). Depth rides along so signal-backed
    /// attempts know how much residual error has accumulated.
    worklist: Vec<(u32, u32)>,
    /// Signal-backed attempts since the engine last drained them; filled
    /// only when [`Self::set_attempt_logging`] enabled it.
    attempt_log: Vec<ResolutionAttemptLog>,
    log_attempts: bool,
    /// Failures awaiting a re-query slot; filled only under
    /// [`RecoveryPolicy::Requery`].
    failed_log: Vec<FailedResolution>,
    /// Owned waveform buffers reclaimed from consumed records, reused by
    /// the engine's signal-level recording path ([`Self::pooled_wave_buffer`]).
    pool: Vec<Vec<Complex>>,
    /// Whole-ID waveform span: the length of a synthesized mixture, and
    /// pooled buffers are shrunk to at most twice this on return so the
    /// pool bounds bytes, not just buffer count. Zero disables pooling
    /// (ideal backend).
    span: usize,
}

impl CollisionRecordStore {
    /// Creates a slot-level store: a `k`-collision record is resolvable
    /// iff `k ≤ lambda` (the paper's simulation model).
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 2`.
    #[must_use]
    pub fn slot_level(lambda: u32) -> Self {
        assert!(lambda >= 2, "lambda must be >= 2, got {lambda}");
        CollisionRecordStore::with_backend(lambda, Backend::Ideal)
    }

    /// Creates a signal-level store: resolution runs the real ANC
    /// subtract-and-decode chain on recorded waveforms, so physics decides
    /// resolvability.
    #[must_use]
    pub fn signal_level(msk: MskConfig) -> Self {
        CollisionRecordStore::with_backend(u32::MAX, Backend::Recorded(msk))
    }

    /// Creates a slot-level store whose resolutions are *signal-backed*
    /// ([`crate::ResolutionModel::SignalBacked`]): a record's mixture is
    /// synthesized when it is attempted, every channel and noise term is
    /// drawn from a counter stream keyed on `(seed, record, hop)`, and each
    /// resolution runs the real ANC subtract-and-decode chain with per-hop
    /// residual accumulation. Failures are handled per `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 2`.
    #[must_use]
    pub fn signal_backed(
        lambda: u32,
        cfg: SignalResolutionConfig,
        policy: RecoveryPolicy,
        seed: u64,
    ) -> Self {
        assert!(lambda >= 2, "lambda must be >= 2, got {lambda}");
        CollisionRecordStore::with_backend(
            lambda,
            Backend::Synthesized(Box::new(SignalBackend {
                ref_cache: ReferenceCache::new(&cfg.msk),
                clean_channel: cfg.channel.clone().noiseless(),
                cfg,
                policy,
                noise_seed: seed,
                requeries: 0,
                scratch: anc::MixScratch::default(),
                ids: Vec::new(),
                wave: Vec::new(),
                rscratch: ResolveScratch::default(),
            })),
        )
    }

    fn with_backend(lambda: u32, backend: Backend) -> Self {
        let span = match &backend {
            Backend::Ideal => 0,
            Backend::Recorded(msk) => msk.samples_for_bits(TAG_ID_BITS as usize),
            Backend::Synthesized(b) => b.cfg.msk.samples_for_bits(TAG_ID_BITS as usize),
        };
        CollisionRecordStore {
            records: Vec::new(),
            tags: Vec::new(),
            index_of: HashMap::new(),
            by_tag: Vec::new(),
            known: Vec::new(),
            known_count: 0,
            lambda,
            backend,
            outstanding: 0,
            stats: RecordStats::default(),
            worklist: Vec::new(),
            attempt_log: Vec::new(),
            log_attempts: false,
            failed_log: Vec::new(),
            pool: Vec::new(),
            span,
        }
    }

    /// Pops a reclaimed waveform buffer (or a fresh one) for the engine's
    /// signal-level recording path: the buffer a consumed record frees
    /// comes back here, so the steady state records without allocating.
    pub(crate) fn pooled_wave_buffer(&mut self) -> Vec<Complex> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a freed owned waveform to the pool, shrinking buffers whose
    /// capacity ballooned past twice the expected span so the pool bounds
    /// bytes as well as count (mixed-length callers can otherwise park
    /// `WAVE_POOL_MAX` arbitrarily large vectors here forever).
    fn return_to_pool(pool: &mut Vec<Vec<Complex>>, span: usize, mut wave: Vec<Complex>) {
        if span == 0 || pool.len() >= WAVE_POOL_MAX {
            return;
        }
        let bound = span * 2;
        if wave.capacity() > bound {
            wave.truncate(bound);
            wave.shrink_to(bound);
        }
        pool.push(wave);
    }

    /// Enables (or disables) per-attempt logging for the observability
    /// layer; the engine drains the log with [`Self::swap_attempt_log`].
    pub(crate) fn set_attempt_logging(&mut self, enabled: bool) {
        self.log_attempts = enabled;
    }

    /// Swaps the accumulated attempt log with `buf` (typically an empty
    /// scratch vector), handing the entries to the caller allocation-free.
    pub(crate) fn swap_attempt_log(&mut self, buf: &mut Vec<ResolutionAttemptLog>) {
        std::mem::swap(&mut self.attempt_log, buf);
    }

    /// Swaps the pending resolution-failure log with `buf`; entries exist
    /// only under [`RecoveryPolicy::Requery`].
    pub(crate) fn swap_failed_log(&mut self, buf: &mut Vec<FailedResolution>) {
        std::mem::swap(&mut self.failed_log, buf);
    }

    /// Whether the tag behind a dense index has been learned.
    pub(crate) fn is_known_dense(&self, idx: u32) -> bool {
        self.known[idx as usize]
    }

    /// Executes a dedicated re-query slot addressed at the tag behind
    /// `idx`: the tag retransmits alone through the channel and the reader
    /// attempts a singleton decode. Ideal and recorded backends always
    /// succeed (re-query slots only arise signal-backed).
    pub(crate) fn requery_singleton(&mut self, idx: u32) -> bool {
        match &mut self.backend {
            Backend::Synthesized(b) => {
                let tag = self.tags[idx as usize];
                b.ids.clear();
                b.ids.push(tag);
                // Each re-query slot gets its own stream, keyed by an
                // incrementing counter on the reserved re-query domain.
                let mut rng =
                    CounterRng::new(noise_stream_seed(b.noise_seed, b.requeries, STREAM_REQUERY));
                b.requeries += 1;
                anc::transmit_mixed_into(
                    &b.ids,
                    &b.cfg.msk,
                    &b.cfg.channel,
                    &mut rng,
                    &mut b.scratch,
                    &mut b.wave,
                );
                anc::decode_singleton(&b.wave, &b.cfg.msk) == Some(tag)
            }
            _ => true,
        }
    }

    /// Pre-sizes the per-tag tables for `n` tags so interning the
    /// population at engine construction does not reallocate.
    pub(crate) fn reserve_tags(&mut self, n: usize) {
        self.tags.reserve(n);
        self.index_of.reserve(n);
        self.by_tag.reserve(n);
        self.known.reserve(n);
    }

    /// Interns `tag`, returning its dense index.
    pub(crate) fn intern(&mut self, tag: TagId) -> u32 {
        if let Some(&idx) = self.index_of.get(&tag) {
            return idx;
        }
        let idx = u32::try_from(self.tags.len()).expect("more than u32::MAX distinct tags");
        self.index_of.insert(tag, idx);
        self.tags.push(tag);
        self.by_tag.push(InlineVec::new());
        self.known.push(false);
        idx
    }

    /// The tag ID behind a dense index.
    pub(crate) fn tag_of(&self, idx: u32) -> TagId {
        self.tags[idx as usize]
    }

    fn mark_known(&mut self, idx: u32) -> bool {
        let slot = &mut self.known[idx as usize];
        if *slot {
            return false;
        }
        *slot = true;
        self.known_count += 1;
        true
    }

    /// Whether the reader already knows `tag`.
    #[must_use]
    pub fn is_known(&self, tag: TagId) -> bool {
        self.index_of
            .get(&tag)
            .is_some_and(|&idx| self.known[idx as usize])
    }

    /// Number of IDs the reader has learned.
    #[must_use]
    pub fn known_count(&self) -> usize {
        self.known_count
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> RecordStats {
        self.stats
    }

    /// Number of records still outstanding (not consumed). O(1).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The resolvability gate [`Self::add_record`] will apply to a record
    /// with `participants` *distinct* participants and the given caller
    /// `usable` flag: signal-level stores accept any multiplicity, slot-
    /// level stores require `k ≤ λ`. Exposed so observers can report the
    /// effective flag without duplicating the rule.
    #[must_use]
    pub fn usable_at_insert(&self, participants: usize, usable: bool) -> bool {
        usable
            && (matches!(self.backend, Backend::Recorded(_)) || participants as u32 <= self.lambda)
    }

    /// The current λ gate (maximum resolvable collision size).
    #[must_use]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Changes the λ gate applied to *future* deposits (the adaptive-λ
    /// control loop re-selects λ per frame/round). Records already stored
    /// keep their insert-time usability: the reader committed to keeping
    /// (or discarding) their waveforms when they were deposited.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 2`.
    pub fn set_lambda(&mut self, lambda: u32) {
        assert!(lambda >= 2, "lambda must be >= 2, got {lambda}");
        self.lambda = lambda;
    }

    /// Deposits a new collision record and returns any IDs resolved as an
    /// immediate consequence (participants the reader already knew count
    /// as known right away — pseudocode line 12's membership check runs
    /// against every known ID).
    ///
    /// * `usable` — slot-level: pass `!spoiled` (the λ check happens here);
    ///   signal-level: pass `false` only for receptions ruined beyond use.
    /// * `signal` — the recorded waveform (signal-level only).
    ///
    /// Duplicate participants are collapsed before any bookkeeping: the
    /// unknown-count rule, the λ gate and the per-tag index all operate on
    /// *distinct* IDs, so a caller passing `[a, a]` gets the semantics of
    /// `[a]` instead of a record that can never resolve (each tag
    /// contributes one signal component regardless of how the caller
    /// enumerated it).
    pub fn add_record(
        &mut self,
        slot: u64,
        participants: Vec<TagId>,
        usable: bool,
        signal: Option<Vec<Complex>>,
    ) -> Vec<Resolved> {
        let dense: Vec<u32> = participants.iter().map(|&t| self.intern(t)).collect();
        let mut resolved = Vec::new();
        self.add_record_dense(slot, &dense, usable, signal, &mut resolved);
        resolved.into_iter().map(|(_, r)| r).collect()
    }

    /// Dense-index core of [`Self::add_record`]: participants are dense
    /// indices (duplicates allowed; collapsed here) and resolutions are
    /// *appended* to `resolved` as `(dense_index, Resolved)` pairs, reusing
    /// the caller's buffer. The hot slot loop calls this directly with its
    /// transmitter scratch so a collision slot allocates nothing beyond the
    /// record itself.
    pub(crate) fn add_record_dense(
        &mut self,
        slot: u64,
        participants: &[u32],
        usable: bool,
        signal: Option<Vec<Complex>>,
        resolved: &mut Vec<(u32, Resolved)>,
    ) {
        debug_assert!(!participants.is_empty(), "a record needs participants");
        // Collapse duplicates, keeping first-seen order (k is tiny; the
        // quadratic scan beats hashing and allocates nothing).
        let mut distinct: InlineVec<INLINE_PARTICIPANTS> = InlineVec::new();
        for &t in participants {
            if !distinct.contains(t) {
                distinct.push(t);
            }
        }
        self.stats.created += 1;
        let usable = self.usable_at_insert(distinct.len(), usable);
        let idx = self.records.len();
        let rec = u32::try_from(idx).expect("more than u32::MAX records");
        for &t in distinct.as_slice() {
            // Known tags' lists are never consulted again (a tag is learned
            // at most once, and it is already learned) — skip indexing them.
            if !self.known[t as usize] {
                self.by_tag[t as usize].push(rec);
            }
        }
        self.outstanding += 1;
        self.records.push(Record {
            slot,
            participants: distinct,
            usable,
            signal,
            consumed: false,
        });

        // Participants the reader already knows count as known right away;
        // the record may be immediately resolvable (or already exhausted).
        // The attempt runs at depth 1 (fresh knowledge, no chain).
        if let Some((first_idx, first)) = self.try_resolve(idx, 1) {
            self.mark_known(first_idx);
            resolved.push((first_idx, first));
            self.cascade_from(first_idx, 1, resolved);
        }
    }

    /// Registers that the reader learned `tag` and runs the resolution
    /// cascade. Returns the IDs newly learned *through records* (not
    /// including `tag` itself), in resolution order.
    ///
    /// Calling this for an already-known tag is a no-op.
    pub fn learn(&mut self, tag: TagId) -> Vec<Resolved> {
        let idx = self.intern(tag);
        let mut resolved = Vec::new();
        self.learn_dense(idx, &mut resolved);
        resolved.into_iter().map(|(_, r)| r).collect()
    }

    /// Dense-index core of [`Self::learn`]: resolutions are appended to
    /// `resolved`, reusing the caller's buffer.
    pub(crate) fn learn_dense(&mut self, idx: u32, resolved: &mut Vec<(u32, Resolved)>) {
        if !self.mark_known(idx) {
            return;
        }
        self.cascade_from(idx, 0, resolved);
    }

    /// Revisits the records of every tag on the worklist, resolving any
    /// that now have exactly one unknown participant. Newly resolved tags
    /// enter [`Self::known`] immediately — exactly the `while S ≠ ∅` loop
    /// of the reader pseudocode, where an ID extracted from one record is
    /// fed back to mark and resolve the others.
    ///
    /// `depth` is how many resolution hops produced the knowledge of
    /// `idx`: 0 for a directly decoded singleton, `d` for a tag pulled out
    /// of a record at hop `d`. Records unlocked by a depth-`d` tag are
    /// attempted at hop `d + 1`, which is what lets the signal-backed
    /// backend accumulate per-hop residual error.
    fn cascade_from(&mut self, idx: u32, depth: u32, resolved: &mut Vec<(u32, Resolved)>) {
        debug_assert!(self.known[idx as usize]);
        let mut worklist = std::mem::take(&mut self.worklist);
        debug_assert!(worklist.is_empty());
        worklist.push((idx, depth));
        while let Some((current, d)) = worklist.pop() {
            // `current` was just learned, so this is the one and only time
            // its record list is consulted (nothing is appended to a known
            // tag's list) — take it instead of cloning it.
            let records = std::mem::take(&mut self.by_tag[current as usize]);
            for &rec in records.as_slice() {
                if let Some((tag_idx, r)) = self.try_resolve(rec as usize, d + 1) {
                    self.mark_known(tag_idx);
                    resolved.push((tag_idx, r));
                    worklist.push((tag_idx, d + 1));
                }
            }
        }
        self.worklist = worklist;
    }

    /// Marks record `idx` consumed and returns its recorded waveform, if
    /// any, to the pool (bounded in count by [`WAVE_POOL_MAX`] and in bytes
    /// by the shrink in [`Self::return_to_pool`]).
    fn consume_record(&mut self, idx: usize) {
        let record = &mut self.records[idx];
        record.consumed = true;
        record.participants.clear();
        self.outstanding -= 1;
        if let Some(wave) = record.signal.take() {
            Self::return_to_pool(&mut self.pool, self.span, wave);
        }
    }

    /// Attempts to resolve record `idx` at cascade depth `hop`; returns
    /// the recovered tag (as dense index + [`Resolved`]), if any.
    ///
    /// The reader's `known` set is authoritative: the record resolves when
    /// exactly one participant is unknown. A record whose participants are
    /// all known is consumed as exhausted.
    fn try_resolve(&mut self, idx: usize, hop: u32) -> Option<(u32, Resolved)> {
        let record = &self.records[idx];
        if record.consumed {
            return None;
        }
        let mut last = None;
        for &t in record.participants.as_slice() {
            if !self.known[t as usize] {
                if last.is_some() {
                    // Two or more unknowns: not resolvable yet.
                    return None;
                }
                last = Some(t);
            }
        }
        let Some(last) = last else {
            // Every participant learned elsewhere; nothing left to extract.
            self.consume_record(idx);
            self.stats.exhausted += 1;
            return None;
        };
        if !record.usable {
            return None;
        }
        let slot = record.slot;
        let last_tag = self.tags[last as usize];
        let recovered: Option<TagId> = match &mut self.backend {
            // Slot-level ideal: the λ gate already passed; the last
            // unknown participant is recovered.
            Backend::Ideal => Some(last_tag),
            Backend::Recorded(msk) => {
                let record = &self.records[idx];
                match &record.signal {
                    // Signal-level: subtract the known components, decode,
                    // CRC — and require the decoded word to be the record's
                    // actual remaining participant. A noise-corrupted residual
                    // can demodulate into a different CRC-valid ghost word
                    // (2^-16 per attempt); acknowledging a tag nobody owns
                    // would corrupt the inventory, so ghosts count as failed
                    // attempts (mirrors the engine's singleton-path guard).
                    Some(signal) => {
                        let knowns: Vec<TagId> = record
                            .participants
                            .as_slice()
                            .iter()
                            .filter(|&&t| self.known[t as usize])
                            .map(|&t| self.tags[t as usize])
                            .collect();
                        anc::resolve(signal, &knowns, msk)
                            .ok()
                            .filter(|id| *id == last_tag)
                    }
                    None => Some(last_tag),
                }
            }
            Backend::Synthesized(b) => {
                let record = &self.records[idx];
                let SignalBackend {
                    cfg,
                    policy,
                    noise_seed,
                    clean_channel,
                    scratch,
                    ids,
                    wave,
                    ref_cache,
                    rscratch,
                    ..
                } = &mut **b;
                let base = cfg.channel.noise_std();
                let stream = |hop| CounterRng::new(noise_stream_seed(*noise_seed, idx as u64, hop));
                let signal: &[Complex] = match &record.signal {
                    Some(recorded) => recorded,
                    None => {
                        // Synthesize the mixture the reader recorded in
                        // this slot: the participants' references scaled by
                        // gains from the record's channel stream, then the
                        // receiver AWGN from its recording-noise stream.
                        // Both are pure functions of the record, so the
                        // samples do not depend on when it is attempted.
                        ids.clear();
                        for &t in record.participants.as_slice() {
                            ids.push(self.tags[t as usize]);
                        }
                        wave.resize(self.span, Complex::ZERO);
                        anc::transmit_mixed_cached(
                            ids,
                            &cfg.msk,
                            clean_channel,
                            &mut stream(STREAM_CHANNEL_PARAMS),
                            ref_cache,
                            scratch,
                            wave,
                        );
                        cfg.channel
                            .add_noise(wave, &mut stream(STREAM_RECORDING_NOISE));
                        wave
                    }
                };
                ids.clear();
                for &t in record.participants.as_slice() {
                    if self.known[t as usize] {
                        ids.push(self.tags[t as usize]);
                    }
                }
                let extra = cascade::cascade_noise_std(base, cfg.residual_per_hop, hop);
                let mut rng = stream(hop);
                let attempt = cascade::resolve_cascaded_cached(
                    signal, ids, &cfg.msk, base, extra, &mut rng, ref_cache, rscratch,
                );
                // Same ghost-ID guard as the recorded backend.
                let mut ok = attempt.recovered.ok().filter(|id| *id == last_tag);
                if self.log_attempts {
                    self.attempt_log.push(ResolutionAttemptLog {
                        record_slot: slot,
                        hop,
                        residual_snr_db: attempt.residual_snr_db,
                        success: ok.is_some(),
                    });
                }
                if ok.is_none() && hop > 1 && matches!(policy, RecoveryPolicy::SalvagePartial) {
                    // Salvage the partial cascade: redo the
                    // subtraction directly against the stored
                    // record, without the chain's accumulated
                    // residual (a depth-1 retry; draws nothing).
                    let retry = cascade::resolve_cascaded_cached(
                        signal, ids, &cfg.msk, base, 0.0, &mut rng, ref_cache, rscratch,
                    );
                    ok = retry.recovered.ok().filter(|id| *id == last_tag);
                    if self.log_attempts {
                        self.attempt_log.push(ResolutionAttemptLog {
                            record_slot: slot,
                            hop: 1,
                            residual_snr_db: retry.residual_snr_db,
                            success: ok.is_some(),
                        });
                    }
                    if ok.is_some() {
                        self.stats.salvaged += 1;
                    }
                }
                if ok.is_none() && matches!(policy, RecoveryPolicy::Requery { .. }) {
                    self.failed_log.push(FailedResolution {
                        record_slot: slot,
                        unknown: last,
                    });
                }
                ok
            }
        };
        // A consumed record can never resolve again; free its payload now
        // (signal-level records hold a full waveform each).
        self.consume_record(idx);
        match recovered {
            Some(tag) => {
                self.stats.resolved += 1;
                Some((last, Resolved { tag, slot }))
            }
            None => {
                // Noise defeated the subtraction; the record is spent
                // (no further knowledge can arrive for it).
                self.stats.failed_attempts += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_signal::{transmit_mixed, ChannelModel};
    use rfid_sim::seeded_rng;

    fn tag(n: u128) -> TagId {
        TagId::from_payload(n)
    }

    #[test]
    fn two_collision_resolves_after_singleton() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], true, None);
        assert_eq!(store.outstanding(), 1);
        let resolved = store.learn(tag(1));
        assert_eq!(
            resolved,
            vec![Resolved {
                tag: tag(2),
                slot: 1
            }]
        );
        assert_eq!(store.outstanding(), 0);
        assert!(store.is_known(tag(2)));
        assert_eq!(store.stats().resolved, 1);
    }

    #[test]
    fn over_lambda_record_never_resolves() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2), tag(3)], true, None);
        assert!(store.learn(tag(1)).is_empty());
        assert!(store.learn(tag(2)).is_empty());
        // Even knowing 2 of 3, a 3-collision is beyond λ = 2.
        assert_eq!(store.stats().resolved, 0);
    }

    #[test]
    fn lambda_three_resolves_triple() {
        let mut store = CollisionRecordStore::slot_level(3);
        store.add_record(1, vec![tag(1), tag(2), tag(3)], true, None);
        assert!(store.learn(tag(1)).is_empty());
        let resolved = store.learn(tag(2));
        assert_eq!(
            resolved,
            vec![Resolved {
                tag: tag(3),
                slot: 1
            }]
        );
    }

    #[test]
    fn unusable_record_never_resolves() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], false, None);
        assert!(store.learn(tag(1)).is_empty());
        assert_eq!(store.stats().resolved, 0);
    }

    #[test]
    fn cascade_through_chain() {
        // Fig. 1(b)'s mechanism, chained: learning t1 resolves (t1,t2);
        // knowing t2 resolves (t2,t3); knowing t3 resolves (t3,t4).
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], true, None);
        store.add_record(2, vec![tag(2), tag(3)], true, None);
        store.add_record(3, vec![tag(3), tag(4)], true, None);
        let resolved = store.learn(tag(1));
        let tags: Vec<TagId> = resolved.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![tag(2), tag(3), tag(4)]);
    }

    #[test]
    fn add_record_with_known_participant_resolves_immediately() {
        let mut store = CollisionRecordStore::slot_level(2);
        assert!(store.learn(tag(1)).is_empty());
        let resolved = store.add_record(9, vec![tag(1), tag(2)], true, None);
        assert_eq!(
            resolved,
            vec![Resolved {
                tag: tag(2),
                slot: 9
            }]
        );
    }

    #[test]
    fn fully_known_record_is_exhausted() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.learn(tag(1));
        store.learn(tag(2));
        let resolved = store.add_record(9, vec![tag(1), tag(2)], true, None);
        assert!(resolved.is_empty());
        assert_eq!(store.stats().exhausted, 1);
        assert_eq!(store.outstanding(), 0);
    }

    #[test]
    fn learning_known_tag_is_noop() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], true, None);
        store.learn(tag(1));
        assert!(store.learn(tag(1)).is_empty());
        assert_eq!(store.known_count(), 2);
    }

    #[test]
    fn tag_in_multiple_records() {
        // One singleton unlocks two records at once.
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], true, None);
        store.add_record(2, vec![tag(1), tag(3)], true, None);
        let resolved = store.learn(tag(1));
        let mut tags: Vec<TagId> = resolved.iter().map(|r| r.tag).collect();
        tags.sort();
        assert_eq!(tags, vec![tag(2), tag(3)]);
    }

    #[test]
    fn signal_level_resolution_works() {
        let msk = MskConfig::default();
        let model = ChannelModel::default().with_noise_std(0.005);
        let mut rng = seeded_rng(3);
        let (a, b) = (tag(77), tag(88));
        let mixed = transmit_mixed(&[a, b], &msk, &model, &mut rng);
        let mut store = CollisionRecordStore::signal_level(msk);
        store.add_record(4, vec![a, b], true, Some(mixed));
        let resolved = store.learn(a);
        assert_eq!(resolved, vec![Resolved { tag: b, slot: 4 }]);
    }

    #[test]
    fn signal_level_noise_failure_counts_attempt() {
        let msk = MskConfig::default();
        let model = ChannelModel::default().with_noise_std(0.8); // ~0 dB
        let mut rng = seeded_rng(5);
        let (a, b) = (tag(7), tag(8));
        let mixed = transmit_mixed(&[a, b], &msk, &model, &mut rng);
        let mut store = CollisionRecordStore::signal_level(msk);
        store.add_record(4, vec![a, b], true, Some(mixed));
        let resolved = store.learn(a);
        assert!(resolved.is_empty());
        assert_eq!(store.stats().failed_attempts, 1);
    }

    #[test]
    #[should_panic(expected = "lambda must be >= 2")]
    fn lambda_one_panics() {
        let _ = CollisionRecordStore::slot_level(1);
    }

    #[test]
    fn duplicate_participants_collapse_to_distinct() {
        // `[a, a, b]` is two distinct signal components: it must pass the
        // λ = 2 gate and resolve once `a` is known (before the dedup fix
        // the repeated unknown made the record permanently unresolvable).
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(1), tag(2)], true, None);
        assert_eq!(store.outstanding(), 1);
        let resolved = store.learn(tag(1));
        assert_eq!(
            resolved,
            vec![Resolved {
                tag: tag(2),
                slot: 1
            }]
        );
    }

    #[test]
    fn fully_duplicated_participant_acts_as_singleton_record() {
        let mut store = CollisionRecordStore::slot_level(2);
        let resolved = store.add_record(3, vec![tag(5), tag(5)], true, None);
        assert_eq!(
            resolved,
            vec![Resolved {
                tag: tag(5),
                slot: 3
            }]
        );
        assert_eq!(store.outstanding(), 0);
        assert!(store.is_known(tag(5)));
    }

    #[test]
    fn outstanding_counter_tracks_consumption() {
        let mut store = CollisionRecordStore::slot_level(2);
        store.add_record(1, vec![tag(1), tag(2)], true, None);
        store.add_record(2, vec![tag(3), tag(4)], true, None);
        store.add_record(3, vec![tag(5), tag(6), tag(7)], true, None); // over λ
        assert_eq!(store.outstanding(), 3);
        store.learn(tag(1)); // resolves the (1,2) record
        assert_eq!(store.outstanding(), 2);
        store.learn(tag(3)); // resolves the (3,4) record
        assert_eq!(store.outstanding(), 1);
        // The over-λ record stays outstanding even when fully known except one.
        store.learn(tag(5));
        assert_eq!(store.outstanding(), 1);
        // Fully known → exhausted on the next touch.
        store.learn(tag(6));
        store.learn(tag(7));
        assert_eq!(store.outstanding(), 0);
        assert_eq!(store.stats().exhausted, 1);
    }

    #[test]
    fn pool_is_bounded_in_count_and_bytes_across_mixed_length_records() {
        // Regression: returned buffers used to keep whatever capacity they
        // arrived with — WAVE_POOL_MAX bounded the pool's *count* while a
        // caller recording oversized mixtures could park unbounded *bytes*
        // in it. Returns now shrink to at most twice the whole-ID span.
        let msk = MskConfig::default();
        let span = msk.samples_for_bits(TAG_ID_BITS as usize);
        let mut store = CollisionRecordStore::signal_level(msk);
        for i in 0..200u64 {
            let a = tag(1_000 + u128::from(i) * 2);
            let b = tag(1_001 + u128::from(i) * 2);
            // Mixed-length recordings, some far larger than a whole-ID
            // span; none demodulates, so every record is consumed as a
            // failed attempt and its buffer offered back to the pool.
            let len = if i % 2 == 0 { 16 } else { span * 8 };
            store.add_record(i, vec![a, b], true, Some(vec![Complex::ZERO; len]));
            store.learn(a);
            store.learn(b);
        }
        assert!(store.pool.len() <= WAVE_POOL_MAX, "pool count unbounded");
        let bound = span * 2;
        for buf in &store.pool {
            assert!(
                buf.capacity() <= bound,
                "pooled buffer holds {} samples of capacity, bound is {bound}",
                buf.capacity()
            );
        }
    }

    #[test]
    fn usable_at_insert_matches_gate() {
        let slot = CollisionRecordStore::slot_level(2);
        assert!(slot.usable_at_insert(2, true));
        assert!(!slot.usable_at_insert(3, true));
        assert!(!slot.usable_at_insert(2, false));
        let sig = CollisionRecordStore::signal_level(MskConfig::default());
        assert!(sig.usable_at_insert(7, true));
        assert!(!sig.usable_at_insert(7, false));
    }

    /// A two-tag record `(a, b)` deposited as record 0 of a signal-backed
    /// store, with attempt logging on.
    fn signal_store_with_record(noise_std: f64, a: TagId, b: TagId) -> CollisionRecordStore {
        let cfg = SignalResolutionConfig::default().with_noise_std(noise_std);
        let mut store = CollisionRecordStore::signal_backed(2, cfg, RecoveryPolicy::DropRecord, 17);
        store.set_attempt_logging(true);
        store.add_record(0, vec![a, b], true, None);
        store
    }

    fn drain_attempts(store: &mut CollisionRecordStore) -> Vec<ResolutionAttemptLog> {
        let mut log = Vec::new();
        store.swap_attempt_log(&mut log);
        log
    }

    #[test]
    fn usable_signal_backed_deposit_holds_no_waveform() {
        let store = signal_store_with_record(0.1, tag(1), tag(2));
        assert!(store.records[0].usable);
        assert!(store.records[0].signal.is_none());
    }

    #[test]
    fn attempt_time_synthesis_does_not_depend_on_when() {
        // The same record (same index, hop and seed) attempted right at
        // deposit and after unrelated deposits, attempts and reference-
        // cache resets sees the same samples, so the attempt is bit-equal.
        for noise_std in [0.05, 0.3, 0.6] {
            let (a, b) = (tag(0x9E37_79B9_7F4A_7C15), tag(0xF39C_C060_5CED_C835));
            let mut early = signal_store_with_record(noise_std, a, b);
            early.learn(a);
            let mut late = signal_store_with_record(noise_std, a, b);
            // 240 fresh IDs reset the 32-entry reference cache many times.
            for i in 0..120u128 {
                let (x, y) = (tag(20_000 + i * 2), tag(20_001 + i * 2));
                late.add_record(1 + i as u64, vec![x, y], true, None);
                late.learn(x);
            }
            drain_attempts(&mut late);
            late.learn(a);
            let (early_log, late_log) = (drain_attempts(&mut early), drain_attempts(&mut late));
            assert_eq!(early_log.len(), 1, "noise {noise_std}");
            assert_eq!(late_log.len(), 1, "noise {noise_std}");
            let (e, l) = (early_log[0], late_log[0]);
            assert_eq!((e.record_slot, e.hop), (0, 1));
            assert_eq!((l.record_slot, l.hop), (0, 1));
            assert_eq!(
                e.residual_snr_db.to_bits(),
                l.residual_snr_db.to_bits(),
                "noise {noise_std}"
            );
            assert_eq!(e.success, l.success, "noise {noise_std}");
            // Both outcomes are covered: only the quietest channel resolves.
            assert_eq!(e.success, noise_std < 0.1, "noise {noise_std}");
            assert_eq!(early.is_known(b), late.is_known(b), "noise {noise_std}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The recording pool honors both its bounds under arbitrary
            /// deposit/consume sequences of mixed-length recordings: at
            /// most `WAVE_POOL_MAX` buffers, each capped at twice the
            /// whole-ID span.
            #[test]
            fn prop_recording_pool_stays_byte_bounded(
                lens in proptest::collection::vec(0usize..4, 1..60),
            ) {
                let msk = MskConfig::default();
                let span = msk.samples_for_bits(TAG_ID_BITS as usize);
                let mut store = CollisionRecordStore::signal_level(msk);
                for (i, &choice) in lens.iter().enumerate() {
                    let i = i as u64;
                    let a = tag(50_000 + u128::from(i) * 2);
                    let b = tag(50_001 + u128::from(i) * 2);
                    // Length classes: tiny, whole-ID, double, and 8x span.
                    let len = [16, span, span * 2, span * 8][choice];
                    store.add_record(i, vec![a, b], true, Some(vec![Complex::ZERO; len]));
                    // Consuming the record (zero waveforms never decode, so
                    // the attempt fails) offers its buffer back to the pool.
                    store.learn(a);
                    store.learn(b);
                    prop_assert!(store.pool.len() <= WAVE_POOL_MAX, "pool count unbounded");
                    let bound = span * 2;
                    for buf in &store.pool {
                        prop_assert!(
                            buf.capacity() <= bound,
                            "pooled capacity {} exceeds byte bound {bound}",
                            buf.capacity()
                        );
                    }
                }
            }
        }
    }
}
