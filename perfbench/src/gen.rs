//! The load generator: a writer that sends on schedule and a reader that
//! takes answers, both over one connection (or, for the in-process twin,
//! one `ReadoutClient`). Two threads, one connection, whatever the mix.
//!
//! The writer keeps time with condition-variable waits (futex timeouts),
//! never with socket read timeouts: `SO_RCVTIMEO` has jiffy granularity
//! and would make sends late by milliseconds.

use crate::fixture::{Fixture, Rng, Spec, BULK_ID_BASE, BULK_SHOTS};
use crate::stats::us;
use klinq_serve::wire::codec::{self, FrameAssembler, WireMessage, CONNECTION_REQ_ID};
use klinq_serve::{Priority, ReadoutClient, RequestOptions, ServeError, ShotStates, TenantId};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A request slower than this counts as a stall.
pub const STALL: Duration = Duration::from_millis(100);
/// How long the reader waits for the last answers once sending stopped.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// How often an idle reader looks at whether the phase is over.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Which stream a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// 1-shot `Priority::Latency` request, open loop.
    Mid,
    /// `BULK_SHOTS`-shot `Priority::Throughput` request, closed loop.
    Bulk,
}

impl Kind {
    pub fn options(self, spec: &Spec) -> RequestOptions {
        match self {
            Kind::Mid => RequestOptions::new().priority(Priority::Latency),
            Kind::Bulk => RequestOptions::new()
                .priority(Priority::Throughput)
                .tenant(TenantId(u32::from(spec.tenants))),
        }
    }
}

/// One request: its pool slice and its timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    /// Position within its stream; the same seed gives the same slice at
    /// the same position, so wire and in-process runs pair up by it.
    pub seq: u64,
    pub start: usize,
    pub count: usize,
    /// When it was due: its scheduled time (open loop) or when its
    /// window slot opened (closed loop).
    pub due: Instant,
    /// When the writer began sending it.
    pub sent: Instant,
    /// Sent inside the window. Requests sent after it keep the load on
    /// until every measured request is answered, so a stream's end never
    /// shows as latency; their answers are checked but not counted.
    pub measured: bool,
}

impl Req {
    /// Latency as the metrics define it: from the schedule for the open
    /// loop, from the send for the closed loop.
    pub fn latency(&self, answered: Instant) -> Duration {
        match self.kind {
            Kind::Mid => answered - self.due,
            Kind::Bulk => answered - self.sent,
        }
    }
}

/// Salts separating a plan's mid and bulk streams.
const MID_SALT: u64 = 0x6d69_6400;
const BULK_SALT: u64 = 0x6275_6c6b;

/// The seeded request sequence of one phase.
pub struct Plan {
    mid: Option<(f64, Rng)>,
    /// Bulk slices in a seeded order, cycled: fewer than 16 in flight
    /// never repeat a slice, so each slice's request id is unique.
    bulk: Vec<usize>,
    next_bulk: usize,
    pool: usize,
}

impl Plan {
    pub fn new(spec: &Spec, seed: u64, pool: usize) -> Self {
        let mut bulk: Vec<usize> = (0..pool / BULK_SHOTS).collect();
        let mut rng = Rng::new(seed ^ BULK_SALT);
        for i in (1..bulk.len()).rev() {
            bulk.swap(i, rng.below(i + 1));
        }
        assert!(
            spec.bulk_window.is_none_or(|w| w < bulk.len()),
            "bulk window must be below the slice count"
        );
        Self {
            mid: spec.mid_rate.map(|r| (r, Rng::new(seed ^ MID_SALT))),
            bulk,
            next_bulk: 0,
            pool,
        }
    }

    fn mid_gap(&mut self) -> Option<Duration> {
        self.mid.as_mut().map(|(rate, rng)| rng.jittered_gap(*rate))
    }

    fn mid_index(&mut self) -> usize {
        let pool = self.pool;
        self.mid.as_mut().map_or(0, |(_, rng)| rng.below(pool))
    }

    fn bulk_start(&mut self) -> usize {
        let slice = self.bulk[self.next_bulk % self.bulk.len()];
        self.next_bulk += 1;
        slice * BULK_SHOTS
    }
}

/// When a phase stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After this many mid and bulk requests (warm-up).
    Count {
        mid: u64,
        bulk: u64,
    },
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Records {
    /// Answer latencies in µs of successful requests, per stream.
    pub mid_us: Vec<f64>,
    pub bulk_us: Vec<f64>,
    /// How late each send went out against its due time, µs.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub errors: Vec<String>,
    /// Requests sent at least [`STALL`] before the window closed, and
    /// how many of them were answered before it closed.
    pub offered: u64,
    pub offered_answered: u64,
    /// Shots answered before the window closed, per stream.
    pub mid_shots_by_end: u64,
    pub bulk_shots_by_end: u64,
    /// Per-qubit count of served states equal to the prepared label.
    pub fid_hits: [u64; 5],
    pub fid_shots: u64,
    pub stalls: u64,
    /// Every answered request with its answer time (and, for the
    /// in-process twin, its callback time), for the trace.
    pub done: Vec<(Req, Option<Instant>, Instant)>,
    /// `(kind, seq, sent, written)` of every send, for the trace.
    pub sends: Vec<(Kind, u64, Instant, Instant)>,
    /// Window length (zero for count-stopped phases).
    pub window: Duration,
}

impl Records {
    /// Keeps the first few failure descriptions.
    pub fn note(&mut self, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

struct State {
    next_id: u64,
    pending: HashMap<u64, Req>,
    /// Measured requests still unanswered.
    measured_pending: usize,
    bulk_in_flight: usize,
    slot_open: VecDeque<Instant>,
    writer_done: Option<Instant>,
    end: Option<Instant>,
    /// Keep per-request timestamps for the trace.
    traced: bool,
    rec: Records,
}

/// State shared by a phase's writer and reader.
pub struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    fn new(end: Option<Instant>, traced: bool) -> Self {
        Self {
            state: Mutex::new(State {
                next_id: 1,
                pending: HashMap::new(),
                measured_pending: 0,
                bulk_in_flight: 0,
                slot_open: VecDeque::new(),
                writer_done: None,
                end,
                traced,
                rec: Records::default(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("generator state lock poisoned by a panicking thread")
    }

    /// The phase is over: everything answered, or the drain limit passed.
    fn finished(&self) -> bool {
        let st = self.lock();
        st.writer_done
            .is_some_and(|t| st.pending.is_empty() || t.elapsed() > DRAIN_LIMIT)
    }

    /// Books one answer (or typed failure) for `req_id`.
    fn complete(
        &self,
        fx: &Fixture,
        req_id: u64,
        callback: Option<Instant>,
        at: Instant,
        result: Result<Vec<ShotStates>, ServeError>,
    ) -> Result<(), String> {
        let mut st = self.lock();
        let req = st
            .pending
            .remove(&req_id)
            .ok_or_else(|| format!("answer for unknown request id {req_id}"))?;
        if req.kind == Kind::Bulk {
            st.bulk_in_flight -= 1;
            st.slot_open.push_back(at);
            self.cv.notify_all();
        }
        if !req.measured {
            if matches!(&result, Ok(states) if !fx.matches(req.start, req.count, states)) {
                st.rec.mismatches += 1;
                st.rec.note(format!(
                    "{:?} cool-down request {} differs from direct classify_shots_on",
                    req.kind, req.seq
                ));
            }
            return Ok(());
        }
        st.measured_pending -= 1;
        let in_window = st.end.is_some_and(|end| at < end);
        let offered = st.end.is_some_and(|end| req.sent + STALL < end);
        let traced = st.traced;
        let rec = &mut st.rec;
        let lat = req.latency(at);
        if lat > STALL {
            rec.stalls += 1;
        }
        match result {
            Ok(states) if fx.matches(req.start, req.count, &states) => {
                match req.kind {
                    Kind::Mid => rec.mid_us.push(us(lat)),
                    Kind::Bulk => rec.bulk_us.push(us(lat)),
                }
                for (shot, row) in fx.pool[req.start..req.start + req.count]
                    .iter()
                    .zip(&states)
                {
                    for ((hits, got), want) in rec.fid_hits.iter_mut().zip(row).zip(&shot.prepared)
                    {
                        *hits += u64::from(got == want);
                    }
                }
                rec.fid_shots += req.count as u64;
                if in_window {
                    rec.offered_answered += u64::from(offered);
                    match req.kind {
                        Kind::Mid => rec.mid_shots_by_end += req.count as u64,
                        Kind::Bulk => rec.bulk_shots_by_end += req.count as u64,
                    }
                }
                if traced {
                    rec.done.push((req, callback, at));
                }
            }
            Ok(_) => {
                rec.failed += 1;
                rec.mismatches += 1;
                rec.note(format!(
                    "{:?} request {} differs from direct classify_shots_on",
                    req.kind, req.seq
                ));
            }
            Err(e) => {
                rec.failed += 1;
                rec.note(format!("{:?} request {}: {e}", req.kind, req.seq));
            }
        }
        Ok(())
    }

    fn into_records(self) -> Records {
        let st = self
            .state
            .into_inner()
            .expect("generator state lock poisoned by a panicking thread");
        let mut rec = st.rec;
        // Measured requests never answered within the drain limit failed.
        rec.failed += st.measured_pending as u64;
        if st.measured_pending > 0 {
            rec.note(format!(
                "{} requests unanswered at drain",
                st.measured_pending
            ));
        }
        rec
    }
}

/// How a send went wrong.
enum SendError {
    /// The server refused the request (it will never be answered).
    Refused(ServeError),
    /// The transport broke: the phase cannot go on.
    Fatal(String),
}

/// The writer: sends the plan's requests on schedule until `stop`.
fn drive(
    shared: &Shared,
    fx: &Fixture,
    spec: &Spec,
    plan: &mut Plan,
    stop: Stop,
    mut send: impl FnMut(u64, &Req) -> Result<(), SendError>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut next_mid = plan.mid_gap().map(|gap| t0 + gap);
    let (mut mid_seq, mut bulk_seq) = (0u64, 0u64);
    let mut drain_deadline = None;
    let mut st = shared.lock();
    let result = loop {
        let now = Instant::now();
        // Whether the next request of each stream is still counted.
        let (mid_counted, bulk_counted) = match stop {
            Stop::At(end) => (now < end, now < end),
            Stop::Count { mid, bulk } => (mid_seq < mid, bulk_seq < bulk),
        };
        // Once counting stops, cool-down traffic keeps the load on until
        // the counted requests are answered (or the drain limit passes).
        let cooling = !(mid_counted || bulk_counted)
            && st.measured_pending > 0
            && now < *drain_deadline.get_or_insert(now + DRAIN_LIMIT);
        let (mid_more, bulk_more) = (mid_counted || cooling, bulk_counted || cooling);
        let mid_due = next_mid.filter(|&d| mid_more && d <= now);
        let bulk_slot = spec
            .bulk_window
            .is_some_and(|w| bulk_more && st.bulk_in_flight < w);
        if mid_due.is_none() && !bulk_slot {
            let mid_waits = mid_more && next_mid.is_some();
            let bulk_waits = bulk_more && spec.bulk_window.is_some();
            if !mid_waits && !bulk_waits {
                break Ok(());
            }
            let mut wake = match stop {
                Stop::At(end) if now < end => end,
                _ => now + IDLE_POLL,
            };
            if let Some(due) = next_mid.filter(|_| mid_more) {
                wake = wake.min(due);
            }
            st = shared
                .cv
                .wait_timeout(st, wake.saturating_duration_since(now))
                .expect("generator state lock poisoned by a panicking thread")
                .0;
            continue;
        }
        let (kind, seq, due, start, count, measured) = match mid_due {
            Some(due) => {
                next_mid = plan.mid_gap().map(|gap| due + gap);
                mid_seq += 1;
                (
                    Kind::Mid,
                    mid_seq - 1,
                    due,
                    plan.mid_index(),
                    1,
                    mid_counted,
                )
            }
            None => {
                st.bulk_in_flight += 1;
                bulk_seq += 1;
                let due = st.slot_open.pop_front().unwrap_or(t0);
                (
                    Kind::Bulk,
                    bulk_seq - 1,
                    due,
                    plan.bulk_start(),
                    BULK_SHOTS,
                    bulk_counted,
                )
            }
        };
        let req_id = match kind {
            Kind::Mid => {
                st.next_id += 1;
                st.next_id - 1
            }
            Kind::Bulk => BULK_ID_BASE + (start / BULK_SHOTS) as u64,
        };
        let sent = Instant::now();
        let req = Req {
            kind,
            seq,
            start,
            count,
            due,
            sent,
            measured,
        };
        st.pending.insert(req_id, req);
        if measured {
            st.measured_pending += 1;
            st.rec.attempted += 1;
            if st.end.is_some_and(|end| sent + STALL < end) {
                st.rec.offered += 1;
            }
        }
        drop(st);
        let outcome = send(req_id, &req);
        let written = Instant::now();
        st = shared.lock();
        if measured {
            st.rec.late_us.push(us(sent - due));
            if st.traced {
                st.rec.sends.push((kind, seq, sent, written));
            }
        }
        match outcome {
            Ok(()) => {}
            Err(SendError::Refused(e)) => {
                drop(st);
                shared.complete(fx, req_id, None, written, Err(e))?;
                st = shared.lock();
            }
            Err(SendError::Fatal(e)) => break Err(e),
        }
    };
    st.writer_done = Some(Instant::now());
    shared.cv.notify_all();
    result
}

/// Runs one phase over a wire connection: this thread writes, a second
/// thread reads and checks every answer.
pub fn wire_phase(
    stream: &TcpStream,
    fx: &Fixture,
    spec: &Spec,
    seed: u64,
    stop: Stop,
    traced: bool,
) -> Result<Records, String> {
    let end = match stop {
        Stop::At(end) => Some(end),
        Stop::Count { .. } => None,
    };
    let window_start = Instant::now();
    let shared = Shared::new(end, traced);
    let mut plan = Plan::new(spec, seed, fx.pool.len());
    let mut reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    reader_stream
        .set_read_timeout(Some(IDLE_POLL))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let (sent, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| wire_reader(&mut reader_stream, &shared, fx));
        let sent = drive(&shared, fx, spec, &mut plan, stop, |req_id, req| {
            let written = match req.kind {
                Kind::Mid => {
                    let payload = codec::encode_request_opts(
                        req_id,
                        0,
                        Priority::Latency,
                        0,
                        0,
                        false,
                        &fx.pool[req.start..req.start + req.count],
                    );
                    writer.write_all(&codec::frame(&payload))
                }
                Kind::Bulk => writer.write_all(&fx.bulk_frames[req.start / BULK_SHOTS]),
            };
            written.map_err(|e| SendError::Fatal(format!("send failed: {e}")))
        });
        if sent.is_err() {
            // Unblock the reader: nothing more will be answered.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let read = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (sent, read)
    });
    sent?;
    read?;
    let mut rec = shared.into_records();
    rec.window = end.map_or(Duration::ZERO, |e| e - window_start);
    Ok(rec)
}

/// Reads and books answers until the phase is over.
fn wire_reader(stream: &mut TcpStream, shared: &Shared, fx: &Fixture) -> Result<(), String> {
    let mut frames = FrameAssembler::new();
    loop {
        loop {
            let message = match frames.next_frame_ref() {
                Ok(Some(payload)) => codec::decode_message(payload),
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            };
            let at = Instant::now();
            match message {
                Ok(WireMessage::Response { req_id, states }) => {
                    shared.complete(fx, req_id, None, at, Ok(states))?
                }
                Ok(WireMessage::Error { req_id, error }) if req_id != CONNECTION_REQ_ID => {
                    shared.complete(fx, req_id, None, at, Err(error))?;
                }
                Ok(other) => return Err(format!("unexpected message from the server: {other:?}")),
                Err(e) => return Err(format!("undecodable answer: {e}")),
            }
        }
        if shared.finished() {
            return Ok(());
        }
        match frames.read_from(stream, 256 * 1024) {
            Ok(0) => return Err("the server closed the connection".into()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive failed: {e}")),
        }
    }
}

/// One in-process answer: request id, callback time, result.
type Answer = (u64, Instant, Result<Vec<ShotStates>, ServeError>);

/// The in-process twin: the same stream through
/// `ReadoutClient::submit_opts` with a callback. The callback runs on the
/// collector thread; a second generator thread wakes on it.
pub fn twin_phase(
    client: &ReadoutClient,
    fx: &Fixture,
    spec: &Spec,
    seed: u64,
    end: Instant,
) -> Result<Records, String> {
    let window_start = Instant::now();
    let shared = Shared::new(Some(end), true);
    let mut plan = Plan::new(spec, seed, fx.pool.len());
    let (tx, rx) = mpsc::channel::<Answer>();
    let (sent, read) = std::thread::scope(|scope| {
        let shared = &shared;
        let reader = scope.spawn(move || twin_reader(&rx, shared, fx));
        let sent = drive(shared, fx, spec, &mut plan, Stop::At(end), |req_id, req| {
            let shots = fx.pool[req.start..req.start + req.count].to_vec();
            let tx = tx.clone();
            client
                .submit_opts(req.kind.options(spec), shots, move |result| {
                    let _ = tx.send((req_id, Instant::now(), result));
                })
                .map_err(SendError::Refused)
        });
        let read = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (sent, read)
    });
    sent?;
    read?;
    let mut rec = shared.into_records();
    rec.window = end - window_start;
    Ok(rec)
}

fn twin_reader(rx: &Receiver<Answer>, shared: &Shared, fx: &Fixture) -> Result<(), String> {
    loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok((req_id, callback, result)) => {
                shared.complete(fx, req_id, Some(callback), Instant::now(), result)?;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
        if shared.finished() {
            return Ok(());
        }
    }
}
