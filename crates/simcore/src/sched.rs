//! The discrete-event scheduler: typed events, recycled arenas, and a
//! deterministic total order.
//!
//! The engine is generic over the *world* type `W`: every layer of the stack
//! (host OS, NIC hardware, GM/MX drivers, file system, socket layer) stores
//! its state inside one world struct composed by the top-level crate. Events
//! are values of the world's associated [`SimEvent`] type — a concrete enum
//! in the composed world, so the steady-state path never boxes — held in a
//! recycled slab arena and ordered by the key `(time, origin, origin_seq)`:
//!
//! * `time` — the virtual instant the event fires at;
//! * `origin` — the *stream* that scheduled it: the node whose event was
//!   executing at schedule time, or the control stream (harness/test code
//!   running between events);
//! * `origin_seq` — a per-origin monotone counter.
//!
//! The key is the determinism contract. It decides every same-instant tie:
//! node streams run before the control stream, lower node ids first, and
//! within one stream in scheduling order. Two events are never keyed
//! equally (same-origin events differ in `origin_seq`, different origins
//! differ in `origin`), so the order is total and a run is a pure function
//! of its seed. Every committed virtual-time ledger and every determinism
//! fingerprint depends on this exact tie-break; replacing it with, say, one
//! global insertion counter would reorder same-instant events and move
//! those numbers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

// ---------------------------------------------------------------- events

/// A schedulable event for world `W`.
///
/// Composed worlds implement this with a concrete enum (one variant per
/// event family) so the steady-state path allocates nothing per event; the
/// `from_call` escape hatch wraps an arbitrary boxed closure for cold paths
/// and generic layer-crate test worlds (see [`BoxEvent`]).
pub trait SimEvent<W>: Sized + Send + 'static {
    /// Wrap a boxed closure as an event (the cold/cheap path).
    fn from_call(f: Box<dyn FnOnce(&mut W) + Send>) -> Self;
    /// Execute the event against the world.
    fn run(self, w: &mut W);
}

/// The trivial event type: a boxed closure. Layer crates' generic test
/// worlds use this; the composed cluster world uses a typed enum instead so
/// its hot path never boxes.
pub struct BoxEvent<W>(Box<dyn FnOnce(&mut W) + Send>);

impl<W: 'static> SimEvent<W> for BoxEvent<W> {
    fn from_call(f: Box<dyn FnOnce(&mut W) + Send>) -> Self {
        BoxEvent(f)
    }
    fn run(self, w: &mut W) {
        (self.0)(w)
    }
}

/// A world that embeds a [`Scheduler`] for itself.
///
/// Layer crates bound their generic functions by capability traits whose
/// root is `SimWorld`; the concrete world type is composed once, at the top
/// of the dependency graph.
pub trait SimWorld: Sized + 'static {
    /// The event representation. Composed worlds use a typed enum;
    /// [`BoxEvent`] is the one-line default for generic test worlds.
    type Ev: SimEvent<Self>;
    fn sched(&self) -> &Scheduler<Self>;
    fn sched_mut(&mut self) -> &mut Scheduler<Self>;
}

// ------------------------------------------------------------ event arena

/// Recycled slab of pending events. Heap entries hold a slot index into
/// this arena, so the binary heap stores only `Copy` keys; slots are
/// returned to the free list as events execute, and in steady state neither
/// the slab nor the free list grows.
struct EventArena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    uses: u64,
    grows: u64,
}

impl<E> EventArena<E> {
    fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            uses: 0,
            grows: 0,
        }
    }

    fn alloc(&mut self, ev: E) -> u32 {
        self.uses += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(ev);
            slot
        } else {
            self.grows += 1;
            self.slots.push(Some(ev));
            (self.slots.len() - 1) as u32
        }
    }

    fn take(&mut self, slot: u32) -> E {
        let ev = self.slots[slot as usize]
            .take()
            .expect("arena slot double-take");
        self.free.push(slot);
        ev
    }
}

// ------------------------------------------------------------- heap entry

/// Origin id of the control stream: harness/test/setup code running
/// *between* events (as opposed to a node's own event cascade).
pub const CONTROL_ORIGIN: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    origin: u32,
    seq: u64,
    node: u32,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.origin, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest key pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

// -------------------------------------------------------- errors / stats

/// A typed engine invariant violation, recorded instead of only
/// `debug_assert!`ed so a release-mode scheduler bug fails loudly (surfaced
/// through `stats_snapshot()` and [`Scheduler::engine_error`]) instead of
/// silently reordering events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// An event popped with a timestamp before the clock — the heap order
    /// was violated (memory corruption or a scheduler bug).
    TimeRegression { at: SimTime, now: SimTime },
}

/// Engine counters, mirrored into the registry snapshot
/// (`stats_snapshot()`) alongside `RelStats` and the collective counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events executed.
    pub executed: u64,
    /// Events currently pending in the heap.
    pub pending: u64,
    /// Events placed in the arena (allocation-free when `arena_grows`
    /// stays flat while this climbs).
    pub arena_uses: u64,
    /// Arena slab expansions — flat in steady state.
    pub arena_grows: u64,
    /// Engine invariant violations recorded (see [`EngineError`]).
    pub errors: u64,
}

// -------------------------------------------------------------- scheduler

/// Priority queue of pending events plus the virtual clock.
pub struct Scheduler<W: SimWorld> {
    now: SimTime,
    executed: u64,
    heap: BinaryHeap<Entry>,
    arena: EventArena<W::Ev>,
    /// Per-node origin counters (grown on demand) + the control stream's.
    origin_seq: Vec<u64>,
    control_seq: u64,
    /// The stream currently scheduling: the executing event's target node,
    /// or [`CONTROL_ORIGIN`] between events.
    cur_origin: u32,
    error: Option<EngineError>,
    errors: u64,
}

impl<W: SimWorld> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: SimWorld> Scheduler<W> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            executed: 0,
            heap: BinaryHeap::with_capacity(1024),
            arena: EventArena::new(),
            origin_seq: Vec::new(),
            control_seq: 0,
            cur_origin: CONTROL_ORIGIN,
            error: None,
            errors: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (a cheap determinism fingerprint).
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// First engine invariant violation recorded, if any.
    #[inline]
    pub fn engine_error(&self) -> Option<EngineError> {
        self.error
    }

    /// The engine counters.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            executed: self.executed,
            pending: self.heap.len() as u64,
            arena_uses: self.arena.uses,
            arena_grows: self.arena.grows,
            errors: self.errors,
        }
    }

    fn record_error(&mut self, e: EngineError) {
        self.errors += 1;
        if self.error.is_none() {
            self.error = Some(e);
        }
        debug_assert!(false, "engine invariant violated: {e:?}");
    }

    // ---------------------------------------------------------- scheduling

    /// Schedule `ev` at absolute time `t`, targeting `node`. Times in the
    /// past are clamped to "now": the event still runs, after
    /// already-queued events for `now`.
    pub(crate) fn schedule(&mut self, node: u32, t: SimTime, ev: W::Ev) {
        let at = t.max(self.now);
        let origin = self.cur_origin;
        let seq = if origin == CONTROL_ORIGIN {
            let s = self.control_seq;
            self.control_seq += 1;
            s
        } else {
            let idx = origin as usize;
            if idx >= self.origin_seq.len() {
                self.origin_seq.resize(idx + 1, 0);
            }
            let s = self.origin_seq[idx];
            self.origin_seq[idx] += 1;
            s
        };
        let slot = self.arena.alloc(ev);
        self.heap.push(Entry {
            at,
            origin,
            seq,
            node,
            slot,
        });
    }

    /// Pop the next event, advancing the clock and switching the origin
    /// stream to the event's target node for the duration of its
    /// execution (callers pair this with [`Scheduler::end_event`]).
    pub(crate) fn pop_next(&mut self) -> Option<W::Ev> {
        let entry = self.heap.pop()?;
        if entry.at < self.now {
            self.record_error(EngineError::TimeRegression {
                at: entry.at,
                now: self.now,
            });
        } else {
            self.now = entry.at;
        }
        self.executed += 1;
        self.cur_origin = entry.node;
        Some(self.arena.take(entry.slot))
    }

    /// Return the origin stream to control (the executing event is done).
    #[inline]
    pub(crate) fn end_event(&mut self) {
        self.cur_origin = CONTROL_ORIGIN;
    }
}

// --------------------------------------------------------- free functions

/// Current virtual time of a world.
#[inline]
pub fn now<W: SimWorld>(w: &W) -> SimTime {
    w.sched().now()
}

/// Schedule the typed event `ev` at absolute time `t`, targeting `node`
/// (the node whose state the event mutates; while it runs, `node` is the
/// origin stream of everything it schedules).
#[inline]
pub fn emit_at<W: SimWorld>(w: &mut W, node: u32, t: SimTime, ev: W::Ev) {
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the typed event `ev` after a delay of `d`, targeting `node`.
#[inline]
pub fn emit_after<W: SimWorld>(w: &mut W, node: u32, d: SimTime, ev: W::Ev) {
    let t = w.sched().now() + d;
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the closure `f` at absolute time `t`, targeting `node`. This is
/// the boxed cold path — steady-state events should be typed enum variants
/// via [`emit_at`] instead.
#[inline]
pub fn call_at<W: SimWorld>(
    w: &mut W,
    node: u32,
    t: SimTime,
    f: impl FnOnce(&mut W) + Send + 'static,
) {
    let ev = W::Ev::from_call(Box::new(f));
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the closure `f` after a delay of `d`, targeting `node`.
#[inline]
pub fn call_after<W: SimWorld>(
    w: &mut W,
    node: u32,
    d: SimTime,
    f: impl FnOnce(&mut W) + Send + 'static,
) {
    let t = w.sched().now() + d;
    call_at(w, node, t, f);
}

/// Schedule `f` to run at the current instant (after events already queued
/// for this instant), targeting `node`.
#[inline]
pub fn call_now<W: SimWorld>(w: &mut W, node: u32, f: impl FnOnce(&mut W) + Send + 'static) {
    let t = w.sched().now();
    call_at(w, node, t, f);
}

/// Execute the next pending event. Returns `false` when the queue is empty.
pub fn step<W: SimWorld>(w: &mut W) -> bool {
    // Pop first so the event gets exclusive access to the world.
    let Some(ev) = w.sched_mut().pop_next() else {
        return false;
    };
    ev.run(w);
    w.sched_mut().end_event();
    true
}

/// Outcome of a bounded run; see [`run_until`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate became true.
    Satisfied,
    /// The event queue drained without the predicate becoming true.
    Quiescent,
    /// The event budget was exhausted (likely a livelocked model).
    BudgetExhausted,
}

/// Default event budget for [`run_until`] — far above anything a benchmark
/// sweep needs, but finite so that a buggy model fails loudly instead of
/// spinning forever.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// Run until `pred` holds (checked before each event), the queue drains, or
/// `budget` events have executed.
pub fn run_until_budgeted<W: SimWorld>(
    w: &mut W,
    budget: u64,
    mut pred: impl FnMut(&W) -> bool,
) -> RunOutcome {
    for _ in 0..budget {
        if pred(w) {
            return RunOutcome::Satisfied;
        }
        if !step(w) {
            return RunOutcome::Quiescent;
        }
    }
    if pred(w) {
        RunOutcome::Satisfied
    } else {
        RunOutcome::BudgetExhausted
    }
}

/// [`run_until_budgeted`] with the default budget.
#[inline]
pub fn run_until<W: SimWorld>(w: &mut W, pred: impl FnMut(&W) -> bool) -> RunOutcome {
    run_until_budgeted(w, DEFAULT_EVENT_BUDGET, pred)
}

/// Drain the event queue completely; returns the number of events executed.
pub fn run_to_quiescence<W: SimWorld>(w: &mut W) -> u64 {
    let before = w.sched().executed();
    while step(w) {}
    w.sched().executed() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        log: Vec<u32>,
    }

    impl SimWorld for TestWorld {
        type Ev = BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }

    fn world() -> TestWorld {
        TestWorld {
            sched: Scheduler::new(),
            log: Vec::new(),
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut w = world();
        call_at(&mut w, 0, SimTime::from_micros(3), |w: &mut TestWorld| {
            w.log.push(3)
        });
        call_at(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1)
        });
        call_at(&mut w, 0, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(2)
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 3]);
        assert_eq!(now(&w), SimTime::from_micros(3));
    }

    #[test]
    fn same_time_events_run_in_scheduling_order() {
        let mut w = world();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            call_at(&mut w, 0, t, move |w: &mut TestWorld| w.log.push(i));
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_streams_order_by_origin() {
        // Two nodes schedule follow-ups for the same instant; the key
        // orders node streams before the control stream and lower node ids
        // first — deterministically, independent of scheduling order.
        let mut w = world();
        let t = SimTime::from_micros(1);
        for node in [2u32, 1] {
            call_at(&mut w, node, t, move |w: &mut TestWorld| {
                let t2 = SimTime::from_micros(2);
                call_at(w, node, t2, move |w: &mut TestWorld| w.log.push(node));
            });
        }
        // A control-stream event for the same later instant, scheduled
        // *first*, still runs after both node streams.
        call_at(&mut w, 1, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(99)
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 99]);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut w = world();
        call_at(&mut w, 0, SimTime::from_micros(10), |w: &mut TestWorld| {
            // Scheduling in the past must not rewind the clock.
            call_at(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                w.log.push(2);
            });
            w.log.push(1);
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2]);
        assert_eq!(now(&w), SimTime::from_micros(10));
    }

    #[test]
    fn events_can_cascade() {
        let mut w = world();
        call_after(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1);
            call_after(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                w.log.push(2);
                call_after(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                    w.log.push(3)
                });
            });
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 3]);
        assert_eq!(now(&w), SimTime::from_micros(3));
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut w = world();
        for i in 0..10 {
            call_at(
                &mut w,
                0,
                SimTime::from_micros(i),
                move |w: &mut TestWorld| w.log.push(i as u32),
            );
        }
        let outcome = run_until(&mut w, |w| w.log.len() == 5);
        assert_eq!(outcome, RunOutcome::Satisfied);
        assert_eq!(w.log.len(), 5);
        assert_eq!(w.sched.pending(), 5);
    }

    #[test]
    fn run_until_reports_quiescence() {
        let mut w = world();
        call_after(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1)
        });
        let outcome = run_until(&mut w, |_| false);
        assert_eq!(outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut w = world();
        // A self-perpetuating event stream.
        fn tick(w: &mut TestWorld) {
            w.log.push(0);
            call_after(w, 0, SimTime::from_nanos(1), tick);
        }
        call_now(&mut w, 0, tick);
        let outcome = run_until_budgeted(&mut w, 1000, |_| false);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(w.log.len(), 1000);
    }

    #[test]
    fn executed_counts_events() {
        let mut w = world();
        for i in 0..7 {
            call_at(&mut w, 0, SimTime::from_micros(i), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.sched.executed(), 7);
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        let mut w = world();
        // Warm: one batch fills the arena to its high-water mark.
        for _ in 0..100 {
            call_after(&mut w, 0, SimTime::from_nanos(1), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        let warm = w.sched.engine_stats();
        for _ in 0..100 {
            call_after(&mut w, 0, SimTime::from_nanos(1), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        let steady = w.sched.engine_stats();
        assert_eq!(steady.arena_grows, warm.arena_grows, "arena stays flat");
        assert!(steady.arena_uses >= warm.arena_uses + 100);
    }
}
