//! Flit-level trace events and export sinks.
//!
//! The simulator emits [`TraceEvent`]s at its instrumentation points
//! (injection, grant, preemption, NACK, DRAM service, timeout/retry, fault
//! onset, delivery) into a [`TraceSink`]. Tracing is dispatched through the
//! [`TraceHook`] enum so the disabled path costs one predictable branch and
//! never constructs an event. Two exporters are provided:
//!
//! * [`JsonlSink`] — one JSON object per line, in emission (cycle) order;
//!   greppable and trivially machine-checkable,
//! * [`ChromeTraceSink`] — the Chrome trace-event format understood by
//!   Perfetto (`ui.perfetto.dev`) and `chrome://tracing`: instant events for
//!   point occurrences, async begin/end pairs for packet lifetimes (which
//!   may overlap within a flow), and complete-duration (`"X"`) spans for
//!   DRAM bank services, which are structurally non-overlapping per bank and
//!   therefore always nest correctly.
//!
//! Both exporters write hand-rolled JSON (the workspace's `serde` is an
//! offline no-op stub), matching the convention of every report writer in
//! the repository.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// One flit-level occurrence inside the simulated network. All payloads are
/// plain integers (ids are raw indices) so the event stream is deterministic
/// and engine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet started its first injection at its source.
    Inject {
        /// Cycle of the occurrence.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Packet id.
        packet: u64,
        /// Source node.
        node: u64,
    },
    /// A router output granted a buffered packet its downstream channel.
    Grant {
        /// Cycle of the occurrence.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Packet id.
        packet: u64,
        /// Granting router index.
        router: u64,
        /// Output port index within the router.
        out_port: u64,
    },
    /// A resident packet was preempted (discarded) to resolve priority
    /// inversion.
    Preempt {
        /// Cycle of the occurrence.
        cycle: u64,
        /// Victim flow index.
        flow: u64,
        /// Victim packet id.
        packet: u64,
        /// Router at which the victim was flushed.
        router: u64,
    },
    /// A NACK reached a source (preemption, DRAM rejection/eviction, or
    /// fault bounce): the packet will be retransmitted.
    Nack {
        /// Cycle of the occurrence.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Packet id.
        packet: u64,
    },
    /// A packet was delivered (one-way lifetime closed).
    Deliver {
        /// Cycle of the delivery.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Packet id.
        packet: u64,
        /// Birth cycle of the packet (span start).
        birth: u64,
    },
    /// A DRAM bank started servicing a request.
    DramService {
        /// Cycle service started.
        cycle: u64,
        /// Requesting flow index.
        flow: u64,
        /// Memory-controller node index.
        mc: u64,
        /// Bank index within the controller.
        bank: u64,
        /// Charged service latency in cycles.
        latency: u64,
        /// Whether the access hit the open row.
        row_hit: bool,
    },
    /// A closed-loop request's deadline expired.
    Timeout {
        /// Cycle of the expiry.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Request sequence number.
        seq: u64,
    },
    /// A timed-out request was re-issued after its backoff.
    Retry {
        /// Cycle of the re-issue.
        cycle: u64,
        /// Flow index.
        flow: u64,
        /// Request sequence number.
        seq: u64,
    },
    /// The set of active injected faults changed size (onset or clearance).
    FaultTransition {
        /// Cycle of the transition.
        cycle: u64,
        /// Number of fault events active after the transition.
        active: u64,
    },
}

impl TraceEvent {
    /// Cycle at which the event occurred.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Inject { cycle, .. }
            | TraceEvent::Grant { cycle, .. }
            | TraceEvent::Preempt { cycle, .. }
            | TraceEvent::Nack { cycle, .. }
            | TraceEvent::Deliver { cycle, .. }
            | TraceEvent::DramService { cycle, .. }
            | TraceEvent::Timeout { cycle, .. }
            | TraceEvent::Retry { cycle, .. }
            | TraceEvent::FaultTransition { cycle, .. } => cycle,
        }
    }

    /// Flow the event concerns, if any.
    pub fn flow(&self) -> Option<u64> {
        match *self {
            TraceEvent::Inject { flow, .. }
            | TraceEvent::Grant { flow, .. }
            | TraceEvent::Preempt { flow, .. }
            | TraceEvent::Nack { flow, .. }
            | TraceEvent::Deliver { flow, .. }
            | TraceEvent::DramService { flow, .. }
            | TraceEvent::Timeout { flow, .. }
            | TraceEvent::Retry { flow, .. } => Some(flow),
            TraceEvent::FaultTransition { .. } => None,
        }
    }

    /// Short kind tag used in exported files.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Inject { .. } => "inject",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::Preempt { .. } => "preempt",
            TraceEvent::Nack { .. } => "nack",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::DramService { .. } => "dram_service",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::FaultTransition { .. } => "fault_transition",
        }
    }

    /// Serialises the event as one JSON object (no trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"kind\":\"{}\",\"cycle\":{}",
            self.kind(),
            self.cycle()
        );
        if let Some(flow) = self.flow() {
            let _ = write!(s, ",\"flow\":{flow}");
        }
        match self {
            TraceEvent::Inject { packet, node, .. } => {
                let _ = write!(s, ",\"packet\":{packet},\"node\":{node}");
            }
            TraceEvent::Grant {
                packet,
                router,
                out_port,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"packet\":{packet},\"router\":{router},\"out_port\":{out_port}"
                );
            }
            TraceEvent::Preempt { packet, router, .. } => {
                let _ = write!(s, ",\"packet\":{packet},\"router\":{router}");
            }
            TraceEvent::Nack { packet, .. } => {
                let _ = write!(s, ",\"packet\":{packet}");
            }
            TraceEvent::Deliver { packet, birth, .. } => {
                let _ = write!(s, ",\"packet\":{packet},\"birth\":{birth}");
            }
            TraceEvent::DramService {
                mc,
                bank,
                latency,
                row_hit,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"mc\":{mc},\"bank\":{bank},\"latency\":{latency},\"row_hit\":{row_hit}"
                );
            }
            TraceEvent::Timeout { seq, .. } | TraceEvent::Retry { seq, .. } => {
                let _ = write!(s, ",\"seq\":{seq}");
            }
            TraceEvent::FaultTransition { active, .. } => {
                let _ = write!(s, ",\"active\":{active}");
            }
        }
        s.push('}');
        s
    }
}

/// Receiver of trace events. Sinks must be `Send`: instrumented networks are
/// moved into worker threads by the experiment shard runner.
pub trait TraceSink: Send {
    /// Consumes one event. Events arrive in nondecreasing cycle order.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output and finalises the file format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self) -> io::Result<()>;
}

impl std::fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn TraceSink")
    }
}

/// Enum-dispatched tracing switch: [`TraceHook::Off`] costs one predictable
/// branch per instrumentation point and never constructs an event.
#[derive(Debug, Default)]
pub enum TraceHook {
    /// Tracing disabled (the default).
    #[default]
    Off,
    /// Tracing enabled, events forwarded to the boxed sink.
    On(Box<dyn TraceSink>),
}

impl TraceHook {
    /// Whether tracing is enabled.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, TraceHook::On(_))
    }

    /// Emits an event; `make` is only evaluated when tracing is on.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, make: F) {
        if let TraceHook::On(sink) = self {
            sink.record(&make());
        }
    }

    /// Takes the installed sink, leaving the hook off.
    pub fn take(&mut self) -> Option<Box<dyn TraceSink>> {
        match std::mem::take(self) {
            TraceHook::Off => None,
            TraceHook::On(sink) => Some(sink),
        }
    }
}

/// Writes one JSON object per line, in emission order.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    events: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Creates a sink writing to `writer` (wrap files in a `BufWriter`).
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, events: 0 }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("events", &self.events)
            .finish()
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        // I/O errors surface at finish(); losing trace lines must not abort
        // a simulation that is otherwise sound.
        let _ = writeln!(self.writer, "{}", event.to_json());
        self.events += 1;
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Writes the Chrome trace-event format (a JSON object with a
/// `traceEvents` array), loadable by Perfetto and `chrome://tracing`.
///
/// Mapping:
/// * point occurrences (inject, grant, preemption, NACK, timeout, retry,
///   fault transitions) become instant events (`"ph":"i"`) on the flow's
///   thread track (`pid` 0, `tid` = flow),
/// * packet lifetimes become async begin/end pairs (`"ph":"b"`/`"e"`,
///   `id` = packet) emitted at delivery — async events may overlap freely
///   within a flow track, so outstanding-window parallelism renders
///   correctly,
/// * DRAM bank services become complete-duration spans (`"ph":"X"`) on a
///   per-bank track (`pid` 1, `tid` = controller x 256 + bank); one bank
///   services one request at a time, so these spans never overlap and the
///   trace always nests correctly.
///
/// Timestamps are simulator cycles used directly as the `ts`/`dur` fields.
pub struct ChromeTraceSink<W: Write + Send> {
    writer: W,
    entries: Vec<String>,
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// Creates a sink that buffers events and writes the file on `finish`.
    pub fn new(writer: W) -> Self {
        ChromeTraceSink {
            writer,
            entries: Vec::new(),
        }
    }

    fn instant(&mut self, name: &str, cycle: u64, tid: u64, args: &str) {
        self.entries.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{cycle},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }
}

impl<W: Write + Send> std::fmt::Debug for ChromeTraceSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl<W: Write + Send> TraceSink for ChromeTraceSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Deliver {
                cycle,
                flow,
                packet,
                birth,
            } => {
                // Async span: begin at birth, end at delivery. Emitted as a
                // pair here, where both endpoints are known.
                self.entries.push(format!(
                    "{{\"name\":\"packet\",\"cat\":\"pkt\",\"ph\":\"b\",\"id\":{packet},\"ts\":{birth},\"pid\":0,\"tid\":{flow}}}"
                ));
                self.entries.push(format!(
                    "{{\"name\":\"packet\",\"cat\":\"pkt\",\"ph\":\"e\",\"id\":{packet},\"ts\":{cycle},\"pid\":0,\"tid\":{flow}}}"
                ));
            }
            TraceEvent::DramService {
                cycle,
                flow,
                mc,
                bank,
                latency,
                row_hit,
            } => {
                let tid = mc * 256 + bank;
                self.entries.push(format!(
                    "{{\"name\":\"dram\",\"ph\":\"X\",\"ts\":{cycle},\"dur\":{latency},\"pid\":1,\"tid\":{tid},\"args\":{{\"flow\":{flow},\"row_hit\":{row_hit}}}}}"
                ));
            }
            TraceEvent::Inject {
                cycle,
                flow,
                packet,
                node,
            } => {
                self.instant(
                    "inject",
                    cycle,
                    flow,
                    &format!("\"packet\":{packet},\"node\":{node}"),
                );
            }
            TraceEvent::Grant {
                cycle,
                flow,
                packet,
                router,
                out_port,
            } => {
                self.instant(
                    "grant",
                    cycle,
                    flow,
                    &format!("\"packet\":{packet},\"router\":{router},\"out_port\":{out_port}"),
                );
            }
            TraceEvent::Preempt {
                cycle,
                flow,
                packet,
                router,
            } => {
                self.instant(
                    "preempt",
                    cycle,
                    flow,
                    &format!("\"packet\":{packet},\"router\":{router}"),
                );
            }
            TraceEvent::Nack {
                cycle,
                flow,
                packet,
            } => {
                self.instant("nack", cycle, flow, &format!("\"packet\":{packet}"));
            }
            TraceEvent::Timeout { cycle, flow, seq } => {
                self.instant("timeout", cycle, flow, &format!("\"seq\":{seq}"));
            }
            TraceEvent::Retry { cycle, flow, seq } => {
                self.instant("retry", cycle, flow, &format!("\"seq\":{seq}"));
            }
            TraceEvent::FaultTransition { cycle, active } => {
                // Fault state is global: parked on tid 0 of a dedicated pid.
                self.entries.push(format!(
                    "{{\"name\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{cycle},\"pid\":2,\"tid\":0,\"args\":{{\"active\":{active}}}}}"
                ));
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        write!(self.writer, "{{\"traceEvents\":[")?;
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(self.writer, ",")?;
            }
            write!(self.writer, "{entry}")?;
        }
        write!(self.writer, "]}}")?;
        self.writer.flush()
    }
}

/// Captures events into shared memory; the test (or tool) keeps a clone of
/// the handle and inspects the events after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedMemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedMemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the captured events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("sink lock poisoned").clone()
    }
}

impl TraceSink for SharedMemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().expect("sink lock poisoned").push(*event);
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_wellformed_and_tagged() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::Inject {
            cycle: 10,
            flow: 3,
            packet: 7,
            node: 1,
        });
        sink.record(&TraceEvent::DramService {
            cycle: 20,
            flow: 3,
            mc: 0,
            bank: 2,
            latency: 48,
            row_hit: false,
        });
        sink.finish().expect("flush");
        assert_eq!(sink.events, 2);
        let text = String::from_utf8(sink.writer).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"inject\",\"cycle\":10,\"flow\":3,\"packet\":7,\"node\":1}"
        );
        assert!(lines[1].contains("\"kind\":\"dram_service\""));
        assert!(lines[1].contains("\"row_hit\":false"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_wraps_events_and_pairs_packet_spans() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.record(&TraceEvent::Deliver {
            cycle: 50,
            flow: 1,
            packet: 9,
            birth: 12,
        });
        sink.record(&TraceEvent::FaultTransition {
            cycle: 60,
            active: 1,
        });
        sink.finish().expect("flush");
        let text = String::from_utf8(sink.writer).expect("utf8");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"ph\":\"b\""));
        assert!(text.contains("\"ph\":\"e\""));
        assert!(text.contains("\"ts\":12"));
        assert!(text.contains("\"ts\":50"));
        assert_eq!(text.matches("\"id\":9").count(), 2);
    }

    #[test]
    fn trace_hook_off_never_builds_events() {
        let mut hook = TraceHook::Off;
        assert!(!hook.is_on());
        hook.emit(|| unreachable!("disabled hook must not evaluate the closure"));
        assert!(hook.take().is_none());
    }

    #[test]
    fn shared_memory_sink_captures_in_order() {
        let sink = SharedMemorySink::new();
        let handle = sink.clone();
        let mut hook = TraceHook::On(Box::new(sink));
        assert!(hook.is_on());
        hook.emit(|| TraceEvent::Nack {
            cycle: 1,
            flow: 0,
            packet: 5,
        });
        hook.emit(|| TraceEvent::Retry {
            cycle: 2,
            flow: 0,
            seq: 4,
        });
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle(), 1);
        assert_eq!(events[0].kind(), "nack");
        assert_eq!(events[1].kind(), "retry");
        assert!(hook.take().is_some());
    }
}
