//! Structured event tracing, opt-in via `COBRA_TRACE`.
//!
//! When the `COBRA_TRACE` knob ([`Config::trace`](crate::config::Config::trace))
//! names a path template, every BPU built afterwards appends each
//! BPU-level event (predict / fire / mispredict / repair / update) as
//! one line of JSON to its file. When it is unset, no sink is attached
//! and an event costs one empty-list check.
//!
//! Two formats, inferred from the template's extension:
//!
//! * `*.jsonl` (or anything else): one JSON object per line with
//!   `ev`, `cycle`, `pc`, `comp`, `slot`, `meta` fields (absent fields
//!   omitted) — the machine-readable stream `cobra-trace --selfcheck`
//!   validates.
//! * `*.chrome.json`: a Chrome `trace_event` array that opens directly
//!   in Perfetto or `chrome://tracing`, one instant event per BPU
//!   event, one thread per component.
//!
//! Because a process may simulate many cores (the parallel runner), the
//! template supports a `{}` placeholder replaced by a per-run context
//! string (design, workload, job id); without a placeholder the context
//! is inserted before the file extension. Sinks open their file lazily
//! on the first event, so retargeting a fresh BPU's tracer is free.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes trace files from BPUs that were never given an
/// explicit context (unit tests constructing bare BPUs).
static ANON_SEQ: AtomicU64 = AtomicU64::new(0);

/// Trace output encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line.
    Jsonl,
    /// Chrome `trace_event` JSON array (Perfetto / `chrome://tracing`).
    Chrome,
}

impl TraceFormat {
    /// Infers the format from a path template: `*.chrome.json` means
    /// [`TraceFormat::Chrome`], everything else [`TraceFormat::Jsonl`].
    pub fn infer(template: &str) -> Self {
        if template.ends_with(".chrome.json") {
            TraceFormat::Chrome
        } else {
            TraceFormat::Jsonl
        }
    }
}

/// Replaces `{}` in `template` with the sanitized `context`, or inserts
/// `-<context>` before the final extension when there is no placeholder
/// (before `.chrome.json` as a unit for Chrome templates).
pub fn resolve_path(template: &str, context: &str) -> PathBuf {
    let ctx = sanitize_context(context);
    if template.contains("{}") {
        return PathBuf::from(template.replacen("{}", &ctx, 1));
    }
    if ctx.is_empty() {
        return PathBuf::from(template);
    }
    let suffix_len = if template.ends_with(".chrome.json") {
        ".chrome.json".len()
    } else {
        Path::new(template)
            .extension()
            .map(|e| e.len() + 1)
            .unwrap_or(0)
    };
    let split = template.len() - suffix_len;
    PathBuf::from(format!(
        "{}-{}{}",
        &template[..split],
        ctx,
        &template[split..]
    ))
}

/// Restricts a context string to `[A-Za-z0-9._-]`, mapping everything
/// else to `_`, so it is always safe inside a file name.
pub fn sanitize_context(context: &str) -> String {
    context
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The BPU-level event kinds a sink records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A fetch-packet predict query completed.
    Predict,
    /// The packet was accepted into the backend (`fire`).
    Fire,
    /// A resolved branch mispredicted.
    Mispredict,
    /// Speculative state was repaired after a squash.
    Repair,
    /// A retired packet's commit-time update.
    Update,
}

impl TraceEventKind {
    /// The event's wire name (the `ev` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Predict => "predict",
            TraceEventKind::Fire => "fire",
            TraceEventKind::Mispredict => "mispredict",
            TraceEventKind::Repair => "repair",
            TraceEventKind::Update => "update",
        }
    }
}

/// One traced event. `comp` is a pipeline node index into the sink's
/// component label table ([`None`] for whole-BPU events).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Core cycle at which it happened.
    pub cycle: u64,
    /// Fetch-packet or branch PC, if any.
    pub pc: Option<u64>,
    /// Component (pipeline node) index, if component-scoped.
    pub comp: Option<usize>,
    /// Slot within the fetch packet, if slot-scoped.
    pub slot: Option<usize>,
    /// The component's opaque metadata token, if any.
    pub meta: Option<u64>,
}

/// An append-only trace writer bound to one resolved path.
///
/// The file is created lazily on the first event (creating parent
/// directories as needed), so constructing and dropping an unused sink
/// touches the filesystem not at all. Chrome sinks write the closing
/// `]` on drop.
#[derive(Debug)]
pub struct TraceSink {
    path: PathBuf,
    format: TraceFormat,
    labels: Vec<String>,
    writer: Option<BufWriter<File>>,
    wrote_any: bool,
    /// The path template this sink was resolved from, when it was
    /// auto-attached from `COBRA_TRACE` (the harness may retarget it
    /// before any event is written).
    template: Option<String>,
}

impl TraceSink {
    /// A sink writing to `path` in `format`, with `labels` naming the
    /// pipeline nodes (for Chrome thread names and error messages).
    pub fn new(path: PathBuf, format: TraceFormat, labels: Vec<String>) -> Self {
        Self {
            path,
            format,
            labels,
            writer: None,
            wrote_any: false,
            template: None,
        }
    }

    /// A sink resolved from the `COBRA_TRACE` path `template` with
    /// `context` naming this run.
    pub fn from_template(template: &str, context: &str, labels: Vec<String>) -> Self {
        let mut sink = Self::new(
            resolve_path(template, context),
            TraceFormat::infer(template),
            labels,
        );
        sink.template = Some(template.to_string());
        sink
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-resolves a [`from_template`](Self::from_template) sink's path
    /// for a new context. Only meaningful before the first event; a sink
    /// that has already written, or has no template, keeps its file.
    pub fn retarget(&mut self, context: &str) {
        if let (None, Some(template)) = (&self.writer, &self.template) {
            self.path = resolve_path(template, context);
        }
    }

    /// A process-unique anonymous context for BPUs built without one.
    pub fn anon_context() -> String {
        format!("bpu{}", ANON_SEQ.fetch_add(1, Ordering::Relaxed))
    }

    fn open(&mut self) -> Option<&mut BufWriter<File>> {
        if self.writer.is_none() {
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            let file = match File::create(&self.path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!(
                        "cobra: COBRA_TRACE: cannot open {}: {e}",
                        self.path.display()
                    );
                    // Disable this sink rather than erroring every event.
                    self.wrote_any = true;
                    return None;
                }
            };
            let mut w = BufWriter::new(file);
            if self.format == TraceFormat::Chrome {
                let _ = w.write_all(b"[\n");
                for (i, label) in self.labels.iter().enumerate() {
                    let _ = writeln!(
                        w,
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}},",
                        i + 1,
                        json_str(label)
                    );
                }
            }
            self.writer = Some(w);
        }
        self.writer.as_mut()
    }

    /// Appends one event.
    pub fn record(&mut self, e: &TraceEvent) {
        let format = self.format;
        let first = !self.wrote_any;
        let Some(w) = self.open() else { return };
        match format {
            TraceFormat::Jsonl => {
                let mut line = format!("{{\"ev\":\"{}\",\"cycle\":{}", e.kind.name(), e.cycle);
                if let Some(pc) = e.pc {
                    line.push_str(&format!(",\"pc\":\"{pc:#x}\""));
                }
                if let Some(c) = e.comp {
                    line.push_str(&format!(",\"comp\":{c}"));
                }
                if let Some(s) = e.slot {
                    line.push_str(&format!(",\"slot\":{s}"));
                }
                if let Some(m) = e.meta {
                    line.push_str(&format!(",\"meta\":\"{m:#x}\""));
                }
                line.push('}');
                let _ = writeln!(w, "{line}");
            }
            TraceFormat::Chrome => {
                let _ = first; // metadata lines already end with commas
                let tid = e.comp.map(|c| c + 1).unwrap_or(0);
                let mut args = String::new();
                if let Some(pc) = e.pc {
                    args.push_str(&format!("\"pc\":\"{pc:#x}\""));
                }
                if let Some(s) = e.slot {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&format!("\"slot\":{s}"));
                }
                if let Some(m) = e.meta {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&format!("\"meta\":\"{m:#x}\""));
                }
                let _ = writeln!(
                    w,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\",\"args\":{{{args}}}}},",
                    e.kind.name(),
                    e.cycle
                );
            }
        }
        self.wrote_any = true;
    }

    /// Flushes buffered events (and, for Chrome, leaves the array open —
    /// the trailing `]` is written on drop).
    pub fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            if self.format == TraceFormat::Chrome {
                // Chrome's parser tolerates a trailing comma before `]`.
                let _ = w.write_all(b"]\n");
            }
            let _ = w.flush();
        }
    }
}

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes: the one escaper behind every JSON surface (the event trace,
/// the analyzer's reports, `cobra_bench::jsonv::escape`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_path_substitutes_placeholder() {
        assert_eq!(
            resolve_path("/tmp/t-{}.jsonl", "job00-gcc"),
            PathBuf::from("/tmp/t-job00-gcc.jsonl")
        );
    }

    #[test]
    fn resolve_path_inserts_before_extension() {
        assert_eq!(
            resolve_path("/tmp/trace.jsonl", "job01"),
            PathBuf::from("/tmp/trace-job01.jsonl")
        );
        assert_eq!(
            resolve_path("/tmp/trace.chrome.json", "job01"),
            PathBuf::from("/tmp/trace-job01.chrome.json")
        );
        assert_eq!(
            resolve_path("/tmp/trace", "job01"),
            PathBuf::from("/tmp/trace-job01")
        );
    }

    #[test]
    fn context_is_sanitized() {
        assert_eq!(sanitize_context("TAGE-L/gcc ref"), "TAGE-L_gcc_ref");
    }

    #[test]
    fn format_inference() {
        assert_eq!(TraceFormat::infer("x.jsonl"), TraceFormat::Jsonl);
        assert_eq!(TraceFormat::infer("x.chrome.json"), TraceFormat::Chrome);
        assert_eq!(TraceFormat::infer("x.json"), TraceFormat::Jsonl);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("cobra-obs-trace-test");
        let path = dir.join("unit.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = TraceSink::new(path.clone(), TraceFormat::Jsonl, vec!["A".into()]);
            sink.record(&TraceEvent {
                kind: TraceEventKind::Predict,
                cycle: 7,
                pc: Some(0x40),
                comp: Some(0),
                slot: Some(2),
                meta: Some(0x9),
            });
            sink.record(&TraceEvent {
                kind: TraceEventKind::Fire,
                cycle: 9,
                pc: None,
                comp: None,
                slot: None,
                meta: None,
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ev\":\"predict\",\"cycle\":7,\"pc\":\"0x40\",\"comp\":0,\"slot\":2,\"meta\":\"0x9\"}"
        );
        assert_eq!(lines[1], "{\"ev\":\"fire\",\"cycle\":9}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unused_sink_creates_no_file() {
        let path = std::env::temp_dir().join("cobra-obs-trace-never.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let _sink = TraceSink::new(path.clone(), TraceFormat::Jsonl, vec![]);
        }
        assert!(!path.exists());
    }
}
