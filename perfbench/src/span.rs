//! The traced run's span recorder.
//!
//! A span is one call into a layer, recorded by the benchmark's own
//! wrappers around the public function it calls: name, start, end, the
//! span open on the same thread when it began (its parent), and the
//! thread. Spans are kept in memory per thread, gathered with
//! [`flush_thread`] when a job ends, and written out once at exit.
//! Recording is off unless [`set_enabled`] turned it on, so the untraced
//! passes that give the end-to-end numbers pay one relaxed load per call.
//!
//! [`Traced`] wraps an instruction stream to put its `next_block` calls
//! under spans and to count `next_inst` calls — the cursor replay a
//! checkpoint restore performs.

use cobra_uarch::{DynInst, InstructionStream, StaticInst};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `uarch.run`.
    pub name: &'static str,
    /// Unique id.
    pub id: u64,
    /// Id of the span that was open on this thread when this one began.
    pub parent: Option<u64>,
    /// Recorder-assigned thread number.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch — the clock spans use.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Recorder {
    thread: u32,
    open: Vec<(u64, &'static str, u64)>,
    done: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        done: Vec::new(),
    });
    static NEXT_INST_CALLS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether this thread records spans now.
fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed) && !PAUSED.with(Cell::get)
}

/// Runs `f` with recording off on this thread only, while other threads
/// go on recording: the untraced twin of a cell timed against its traced
/// twin.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.with(|p| p.set(true));
    let r = f();
    PAUSED.with(|p| p.set(false));
    r
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    live: bool,
}

/// Opens a span named `name` on this thread, as a child of the span
/// currently open here. A no-op while recording is off.
pub fn enter(name: &'static str) -> Guard {
    if !recording() {
        return Guard { live: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = now_ns();
    REC.with(|r| r.borrow_mut().open.push((id, name, start)));
    Guard { live: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            if let Some((id, name, start_ns)) = r.open.pop() {
                let parent = r.open.last().map(|o| o.0);
                let thread = r.thread;
                r.done.push(Span {
                    name,
                    id,
                    parent,
                    thread,
                    start_ns,
                    end_ns: end,
                });
            }
        });
    }
}

/// Records a span timed by the caller (an interval between protocol
/// events rather than a call), returning its id; 0 while recording is
/// off.
pub fn record(name: &'static str, parent: Option<u64>, start_ns: u64, end_ns: u64) -> u64 {
    if !recording() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let thread = r.thread;
        r.done.push(Span {
            name,
            id,
            parent,
            thread,
            start_ns,
            end_ns,
        });
    });
    id
}

/// Runs `f` under a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

/// Moves this thread's closed spans to the shared sink.
pub fn flush_thread() {
    let done = REC.with(|r| std::mem::take(&mut r.borrow_mut().done));
    if !done.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(done);
    }
}

/// Takes every span flushed so far, leaving the sink empty.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// `next_inst` calls this thread has made through [`Traced`] streams.
pub fn next_inst_calls() -> u64 {
    NEXT_INST_CALLS.with(Cell::get)
}

/// Self time per span: its duration minus the part of it that its child
/// spans cover. Children of one parent run on the parent's thread and
/// nest inside it, so they do not overlap and their durations add up.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Per-name totals of span time and self time, in nanoseconds, plus the
/// call count: `name -> (total, self, calls)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += selfs[&s.id];
        e.2 += 1;
    }
    out
}

/// Renders spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// An instruction stream whose `next_block` calls are recorded as
/// `workloads.next_block` spans and whose `next_inst` calls are counted
/// (see [`next_inst_calls`]). Every call is forwarded unchanged, so the
/// simulation it feeds is bit-identical to the unwrapped stream's.
pub struct Traced<S>(pub S);

impl<S: InstructionStream> InstructionStream for Traced<S> {
    fn entry_pc(&self) -> u64 {
        self.0.entry_pc()
    }

    fn next_inst(&mut self) -> Option<DynInst> {
        NEXT_INST_CALLS.with(|c| c.set(c.get() + 1));
        self.0.next_inst()
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let _g = enter("workloads.next_block");
        self.0.next_block(out, max)
    }

    fn inst_at(&self, pc: u64) -> StaticInst {
        self.0.inst_at(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id,
            parent,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root [0,100) with children [10,30) and [40,90); the second has
        // a grandchild [50,60) that must not be subtracted from the root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 90),
            span(4, Some(3), 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 10);
        // Self times of a tree add back up to its root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_names_parents() {
        set_enabled(true);
        {
            let _a = enter("outer");
            let _b = enter("inner");
        }
        let _paused = paused(|| enter("ignored"));
        drop(_paused);
        set_enabled(false);
        let _off = enter("ignored");
        drop(_off);
        flush_thread();
        let spans: Vec<Span> = take_all()
            .into_iter()
            .filter(|s| s.name == "outer" || s.name == "inner" || s.name == "ignored")
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let totals = by_name(&spans);
        assert_eq!(totals["outer"].0, outer.dur_ns());
        assert_eq!(totals["outer"].1, outer.dur_ns() - inner.dur_ns());
    }
}
