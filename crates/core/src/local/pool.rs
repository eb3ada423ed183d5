//! Fixed-size worker-pool runtime for the local executor.
//!
//! Instead of one OS thread per mapper/reducer, a `Pool` drives **task
//! state machines** from a ready queue on a fixed set of worker threads.
//! A task's `PoolTask::step` runs a bounded slice of work and
//! returns `Step::Yield` (more work, requeue me), `Step::Park` (I am
//! blocked on a channel; requeue me when woken) or
//! `Step::Done`. Blocked tasks hold no thread: a full shuffle channel
//! parks the producing map task and the worker moves on to whichever
//! task is ready, so hundreds of small concurrent jobs multiplex on N
//! cores with a bounded thread count. A pool of one worker spawns no
//! thread at all: `Pool::run` drives the worker loop on its caller.
//!
//! Wakeups cannot be lost: a channel registers the parking task's id
//! *under the channel lock* in the same critical section that observed
//! Full/Empty, and a wake that arrives while the task is still running
//! marks it `Notified` so the scheduler requeues it instead of parking.
//! With one worker the scheduler is a deterministic FIFO, which is what
//! the single-worker determinism sweeps rely on.
//!
//! A panicking task poisons the pool: the task's box is dropped (its
//! channel handles close, so peers see EOF/disconnect instead of
//! hanging), every worker drains out, and `Pool::run` reports
//! [`MrError::WorkerPanic`]. A pool where every remaining task is parked
//! and no worker holds one can never make progress; the scheduler
//! detects that and fails the run instead of hanging. Both are always
//! armed: a pool runs one way only — the whole task graph is built up
//! front and `Pool::run` drives it to completion; nothing outside the
//! pool feeds it work or wakes its tasks.
//!
//! Tasks that produce into channels from callbacks (where there is no
//! task context to park with) send through an `Outbox`.

use super::PoolStats;
use crate::error::{MrError, MrResult};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What one `step` slice of a task tells the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// More work immediately available: requeue at the back (fairness).
    Yield,
    /// Blocked on a channel this step registered with; requeue
    /// on wake. If a wake raced the step, the task requeues immediately.
    Park,
    /// Finished; the task is dropped (releasing its channel handles).
    Done,
}

/// The stepping task's identity, handed to every `step` call; channel
/// operations use it to register the task for wakeup.
pub(crate) struct Ctx {
    pub(crate) task: usize,
}

/// A cooperative task multiplexed on the pool. `step` must do a bounded
/// slice of work and never block the OS thread.
pub(crate) trait PoolTask: Send {
    fn step(&mut self, cx: &mut Ctx) -> Step;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Ready,
    Running,
    /// Woken while running: requeue instead of parking.
    RunningNotified,
    Parked,
    Done,
}

struct Sched {
    ready: VecDeque<usize>,
    state: Vec<TaskState>,
    /// Tasks not yet `Done`.
    live: usize,
    idle_workers: usize,
    workers: usize,
    panicked: Option<String>,
    deadlocked: bool,
}

/// The shared scheduler handle: channels hold an `Arc<Waker>` so
/// wakeups need no lifetime ties to the pool's borrowed tasks.
struct Waker {
    sched: Mutex<Sched>,
    cv: Condvar,
}

impl Waker {
    fn new() -> Arc<Self> {
        Arc::new(Waker {
            sched: Mutex::new(Sched {
                ready: VecDeque::new(),
                state: Vec::new(),
                live: 0,
                idle_workers: 0,
                workers: 0,
                panicked: None,
                deadlocked: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Marks task `id` runnable. Parked tasks requeue; a task currently
    /// running is flagged so it requeues instead of parking (the
    /// notified-while-running race). Ready/queued/done tasks ignore it,
    /// so spurious wakes are harmless.
    fn wake(&self, id: usize) {
        let mut s = self.sched.lock().unwrap();
        match s.state[id] {
            TaskState::Parked => {
                s.state[id] = TaskState::Ready;
                s.ready.push_back(id);
                drop(s);
                self.cv.notify_one();
            }
            TaskState::Running => s.state[id] = TaskState::RunningNotified,
            _ => {}
        }
    }

    /// Wakes every task in `ids` (drained waiter lists).
    fn wake_all_of(&self, ids: Vec<usize>) {
        for id in ids {
            self.wake(id);
        }
    }
}

/// A fixed-size worker pool over borrowed task state machines. Build the
/// whole task graph first ([`spawn`](Pool::spawn), [`channel`](Pool::channel)),
/// then [`run`](Pool::run) it to completion.
pub(crate) struct Pool<'a> {
    waker: Arc<Waker>,
    slots: Vec<Mutex<Option<Box<dyn PoolTask + 'a>>>>,
}

impl<'a> Pool<'a> {
    pub(crate) fn new() -> Self {
        Pool {
            waker: Waker::new(),
            slots: Vec::new(),
        }
    }

    /// Adds a task to the graph; it starts ready. Only valid before
    /// [`run`](Pool::run).
    pub(crate) fn spawn(&mut self, task: impl PoolTask + 'a) -> usize {
        let id = self.slots.len();
        self.slots.push(Mutex::new(Some(Box::new(task))));
        let mut s = self.waker.sched.lock().unwrap();
        s.state.push(TaskState::Ready);
        s.ready.push_back(id);
        id
    }

    /// A bounded channel whose send/receive sides park pool tasks
    /// instead of blocking threads.
    pub(crate) fn channel<T>(&self, cap: usize) -> (PoolSender<T>, PoolReceiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                rx_alive: true,
                send_waiters: Vec::new(),
                recv_waiters: Vec::new(),
            }),
            waker: Arc::clone(&self.waker),
        });
        (
            PoolSender {
                chan: Arc::clone(&chan),
            },
            PoolReceiver { chan },
        )
    }

    /// Drives every task to completion on `workers` OS threads.
    ///
    /// A one-worker pool spawns nothing: the calling thread is the
    /// worker (a spawned thread would only be joined at once, and a
    /// served job would pay for it per job). Wider pools spawn every
    /// worker and leave the caller blocked in the join.
    ///
    /// Fails with [`MrError::WorkerPanic`] if any task panicked (its box
    /// is dropped first, so peers unwind via channel EOF rather than
    /// hanging) or if the scheduler proves the graph can no longer make
    /// progress (every live task parked, no worker holding one).
    pub(crate) fn run(self, workers: usize) -> MrResult<PoolStats> {
        let tasks = self.slots.len();
        let workers = workers.max(1);
        {
            let mut s = self.waker.sched.lock().unwrap();
            s.live = tasks;
            s.workers = workers;
        }
        let peak_threads = match (tasks, workers) {
            (0, _) => 0,
            (_, 1) => {
                self.worker_loop();
                1
            }
            _ => {
                let live = AtomicUsize::new(0);
                let peak = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| self.counted_worker(&live, &peak));
                    }
                });
                peak.into_inner()
            }
        };
        self.verdict()?;
        Ok(PoolStats {
            workers,
            peak_threads,
        })
    }

    /// One spawned worker thread: [`worker_loop`](Pool::worker_loop)
    /// inside the pool's live-thread accounting.
    fn counted_worker(&self, live: &AtomicUsize, peak: &AtomicUsize) {
        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        self.worker_loop();
        live.fetch_sub(1, Ordering::SeqCst);
    }

    /// What the drained scheduler says about the run: a task panic or a
    /// proven stall is the run's error.
    fn verdict(&self) -> MrResult<()> {
        let s = self.waker.sched.lock().unwrap();
        if let Some(what) = &s.panicked {
            return Err(MrError::WorkerPanic(what.clone()));
        }
        if s.deadlocked {
            return Err(MrError::WorkerPanic(
                "worker pool stalled: every live task parked with no wake pending".to_string(),
            ));
        }
        Ok(())
    }

    fn worker_loop(&self) {
        loop {
            let id = {
                let mut s = self.waker.sched.lock().unwrap();
                loop {
                    if s.panicked.is_some() || s.deadlocked || s.live == 0 {
                        drop(s);
                        self.waker.cv.notify_all();
                        return;
                    }
                    if let Some(id) = s.ready.pop_front() {
                        s.state[id] = TaskState::Running;
                        break id;
                    }
                    if s.idle_workers + 1 == s.workers {
                        // Nothing ready and nothing running anywhere: the
                        // remaining tasks are parked forever. Fail loudly
                        // instead of hanging.
                        s.deadlocked = true;
                        drop(s);
                        self.waker.cv.notify_all();
                        return;
                    }
                    s.idle_workers += 1;
                    s = self.waker.cv.wait(s).unwrap();
                    s.idle_workers -= 1;
                }
            };
            let mut task = self.slots[id].lock().unwrap().take().expect("task in slot");
            let mut cx = Ctx { task: id };
            match catch_unwind(AssertUnwindSafe(|| task.step(&mut cx))) {
                Err(payload) => {
                    // Drop the task first: its channel handles close, so
                    // every peer unwinds via EOF/disconnect.
                    drop(task);
                    let what = panic_message(payload.as_ref());
                    let mut s = self.waker.sched.lock().unwrap();
                    s.state[id] = TaskState::Done;
                    s.live -= 1;
                    if s.panicked.is_none() {
                        s.panicked = Some(what);
                    }
                    drop(s);
                    self.waker.cv.notify_all();
                    return;
                }
                Ok(Step::Done) => {
                    drop(task);
                    let mut s = self.waker.sched.lock().unwrap();
                    s.state[id] = TaskState::Done;
                    s.live -= 1;
                    if s.live == 0 {
                        drop(s);
                        self.waker.cv.notify_all();
                    }
                }
                Ok(Step::Yield) => {
                    *self.slots[id].lock().unwrap() = Some(task);
                    let mut s = self.waker.sched.lock().unwrap();
                    s.state[id] = TaskState::Ready;
                    s.ready.push_back(id);
                    drop(s);
                    self.waker.cv.notify_one();
                }
                Ok(Step::Park) => {
                    // The box goes back before the state flips: nothing
                    // can pop the id until it is enqueued, and a wake
                    // that raced the step flipped us to Notified.
                    *self.slots[id].lock().unwrap() = Some(task);
                    let mut s = self.waker.sched.lock().unwrap();
                    if s.state[id] == TaskState::RunningNotified {
                        s.state[id] = TaskState::Ready;
                        s.ready.push_back(id);
                        drop(s);
                        self.waker.cv.notify_one();
                    } else {
                        s.state[id] = TaskState::Parked;
                    }
                }
            }
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "pool task panicked".to_string()
    }
}

// ---------------------------------------------------------------------
// Pool channels
// ---------------------------------------------------------------------

/// Why a non-blocking send did not enqueue; the value comes back.
pub(crate) enum TrySend<T> {
    /// Channel at capacity. With a `Ctx` the task was registered for
    /// wakeup and should `Park`.
    Full(T),
    /// Receiver dropped; no one will ever consume.
    Disconnected(T),
}

/// Why a non-blocking receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryRecv {
    /// Nothing queued (yet); the task was registered for wakeup.
    Empty,
    /// Every sender dropped and the queue is drained: EOF.
    Disconnected,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    rx_alive: bool,
    send_waiters: Vec<usize>,
    recv_waiters: Vec<usize>,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    waker: Arc<Waker>,
}

/// The sending half of a pool channel; clones share the capacity.
/// Dropping the last sender is EOF for the receiver.
pub(crate) struct PoolSender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half; dropping it disconnects every sender.
pub(crate) struct PoolReceiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> PoolSender<T> {
    /// Non-blocking send that registers `cx`'s task for wakeup when the
    /// channel is full — the registration happens in the same critical
    /// section that observed Full, so the wakeup cannot be lost.
    pub(crate) fn try_send(&self, cx: &Ctx, value: T) -> Result<(), TrySend<T>> {
        let mut s = self.chan.state.lock().unwrap();
        if !s.rx_alive {
            return Err(TrySend::Disconnected(value));
        }
        if s.queue.len() >= s.cap {
            if !s.send_waiters.contains(&cx.task) {
                s.send_waiters.push(cx.task);
            }
            return Err(TrySend::Full(value));
        }
        s.queue.push_back(value);
        let woken = std::mem::take(&mut s.recv_waiters);
        drop(s);
        self.chan.waker.wake_all_of(woken);
        Ok(())
    }

    /// Opportunistic send from code with no task context (e.g. deep in a
    /// map callback): on Full the value just comes back, unregistered —
    /// the caller queues it locally and pumps later with a `Ctx`.
    pub(crate) fn try_send_now(&self, value: T) -> Result<(), TrySend<T>> {
        let mut s = self.chan.state.lock().unwrap();
        if !s.rx_alive {
            return Err(TrySend::Disconnected(value));
        }
        if s.queue.len() >= s.cap {
            return Err(TrySend::Full(value));
        }
        s.queue.push_back(value);
        let woken = std::mem::take(&mut s.recv_waiters);
        drop(s);
        self.chan.waker.wake_all_of(woken);
        Ok(())
    }
}

impl<T> Clone for PoolSender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().unwrap().senders += 1;
        PoolSender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for PoolSender<T> {
    fn drop(&mut self) {
        let mut s = self.chan.state.lock().unwrap();
        s.senders -= 1;
        if s.senders == 0 {
            // EOF: wake every parked receiver so it observes Disconnected.
            let woken = std::mem::take(&mut s.recv_waiters);
            drop(s);
            self.chan.waker.wake_all_of(woken);
        }
    }
}

impl<T> PoolReceiver<T> {
    /// Non-blocking receive; on Empty the task is registered for wakeup
    /// under the channel lock. Disconnected means drained *and* every
    /// sender gone.
    pub(crate) fn try_recv(&self, cx: &Ctx) -> Result<T, TryRecv> {
        let mut s = self.chan.state.lock().unwrap();
        if let Some(v) = s.queue.pop_front() {
            let woken = std::mem::take(&mut s.send_waiters);
            drop(s);
            self.chan.waker.wake_all_of(woken);
            return Ok(v);
        }
        if s.senders == 0 {
            return Err(TryRecv::Disconnected);
        }
        if !s.recv_waiters.contains(&cx.task) {
            s.recv_waiters.push(cx.task);
        }
        Err(TryRecv::Empty)
    }
}

impl<T> Drop for PoolReceiver<T> {
    fn drop(&mut self) {
        let mut s = self.chan.state.lock().unwrap();
        s.rx_alive = false;
        s.queue.clear();
        let woken = std::mem::take(&mut s.send_waiters);
        drop(s);
        self.chan.waker.wake_all_of(woken);
    }
}

/// A task's sending side toward one or more pool channels, for values
/// produced where there is no task context (deep in a map or reduce
/// callback): [`send`](Outbox::send) tries the channel at once and
/// queues the value locally when it is full; the owning task drains the
/// queue with [`pump`](Outbox::pump) at the top of its next step,
/// parking until the receiver makes room. Sends never block the thread.
pub(crate) struct Outbox<T> {
    senders: Vec<PoolSender<T>>,
    /// Values a full channel refused, drained front-first: one global
    /// FIFO, so per-channel send order is preserved.
    pending: VecDeque<(usize, T)>,
    dead: bool,
}

impl<T> Outbox<T> {
    pub(crate) fn new(senders: Vec<PoolSender<T>>) -> Self {
        Outbox {
            senders,
            pending: VecDeque::new(),
            dead: false,
        }
    }

    /// Hands `value` to channel `p` if there is room and nothing is
    /// queued ahead of it, queueing it otherwise. A dead outbox drops it.
    pub(crate) fn send(&mut self, p: usize, value: T) {
        if self.dead {
            return;
        }
        if !self.pending.is_empty() {
            self.pending.push_back((p, value));
            return;
        }
        match self.senders[p].try_send_now(value) {
            Ok(()) => {}
            Err(TrySend::Full(value)) => self.pending.push_back((p, value)),
            Err(TrySend::Disconnected(_)) => self.close(),
        }
    }

    /// Drains the queue toward the channels. Returns `false` if a
    /// channel is still full (the task was registered for wakeup and
    /// should park); `true` when nothing is pending.
    pub(crate) fn pump(&mut self, cx: &Ctx) -> bool {
        while let Some((p, value)) = self.pending.pop_front() {
            match self.senders[p].try_send(cx, value) {
                Ok(()) => {}
                Err(TrySend::Full(value)) => {
                    self.pending.push_front((p, value));
                    return false;
                }
                Err(TrySend::Disconnected(_)) => self.close(),
            }
        }
        true
    }

    /// Whether values sent from now on are dropped: a receiver
    /// disappeared (the job is failing downstream) or the outbox was
    /// closed.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Drops the senders — EOF for each receiver once every clone of its
    /// sender is gone — and whatever was still queued.
    pub(crate) fn close(&mut self) {
        self.dead = true;
        self.pending.clear();
        self.senders.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Producer → bounded channel → consumer, every value accounted for,
    /// across pool widths including heavy oversubscription.
    #[test]
    fn bounded_channel_ping_pong_across_widths() {
        for workers in [1, 2, 8] {
            let total = 10_000u64;
            let got = Mutex::new(Vec::new());
            let pool = Pool::new();
            let (tx, rx) = pool.channel::<u64>(4);
            let mut pool = pool;

            struct Producer {
                tx: Option<PoolSender<u64>>,
                next: u64,
                total: u64,
            }
            impl PoolTask for Producer {
                fn step(&mut self, cx: &mut Ctx) -> Step {
                    while self.next < self.total {
                        match self.tx.as_ref().unwrap().try_send(cx, self.next) {
                            Ok(()) => self.next += 1,
                            Err(TrySend::Full(_)) => return Step::Park,
                            Err(TrySend::Disconnected(_)) => panic!("consumer vanished"),
                        }
                    }
                    self.tx = None; // EOF
                    Step::Done
                }
            }
            struct Consumer<'g> {
                rx: PoolReceiver<u64>,
                got: &'g Mutex<Vec<u64>>,
            }
            impl PoolTask for Consumer<'_> {
                fn step(&mut self, cx: &mut Ctx) -> Step {
                    loop {
                        match self.rx.try_recv(cx) {
                            Ok(v) => self.got.lock().unwrap().push(v),
                            Err(TryRecv::Empty) => return Step::Park,
                            Err(TryRecv::Disconnected) => return Step::Done,
                        }
                    }
                }
            }
            pool.spawn(Producer {
                tx: Some(tx),
                next: 0,
                total,
            });
            pool.spawn(Consumer { rx, got: &got });
            let report = pool.run(workers).expect("pool run");
            assert!(report.peak_threads <= workers);
            let got = got.into_inner().unwrap();
            assert_eq!(got.len(), total as usize);
            assert_eq!(got, (0..total).collect::<Vec<_>>(), "FIFO order broken");
        }
    }

    /// A panicking task fails the run and its peers unwind via channel
    /// EOF instead of hanging — also at width 1, where the panic is
    /// caught on the calling thread itself. A peer counts as unwound
    /// once the run has dropped it.
    #[test]
    fn panic_poisons_the_pool_without_hanging() {
        for workers in [1, 2] {
            let unwound = AtomicUsize::new(0);
            let mut pool = Pool::new();
            let (tx, rx) = pool.channel::<u64>(1);
            struct Bomb {
                _tx: PoolSender<u64>,
            }
            impl PoolTask for Bomb {
                fn step(&mut self, _cx: &mut Ctx) -> Step {
                    panic!("boom in a pool task");
                }
            }
            struct Waiter<'g> {
                rx: PoolReceiver<u64>,
                unwound: &'g AtomicUsize,
            }
            impl PoolTask for Waiter<'_> {
                fn step(&mut self, cx: &mut Ctx) -> Step {
                    match self.rx.try_recv(cx) {
                        Ok(_) => Step::Yield,
                        Err(TryRecv::Empty) => Step::Park,
                        Err(TryRecv::Disconnected) => Step::Done,
                    }
                }
            }
            impl Drop for Waiter<'_> {
                fn drop(&mut self) {
                    self.unwound.fetch_add(1, Ordering::SeqCst);
                }
            }
            pool.spawn(Waiter {
                rx,
                unwound: &unwound,
            });
            pool.spawn(Bomb { _tx: tx });
            let err = pool.run(workers);
            assert!(
                matches!(err, Err(MrError::WorkerPanic(ref what)) if what.contains("boom")),
                "{workers}w: expected the task panic to surface, got {err:?}"
            );
            assert_eq!(unwound.into_inner(), 1, "{workers}w: peer left behind");
        }
    }

    /// A graph that parks forever is detected and failed, not hung.
    #[test]
    fn stalled_graph_is_an_error_not_a_hang() {
        let mut pool = Pool::new();
        let (_tx, rx) = pool.channel::<u64>(1);
        // The sender stays alive outside the pool, so the receiver never
        // sees data or EOF: a permanently parked task.
        struct Stuck {
            rx: PoolReceiver<u64>,
        }
        impl PoolTask for Stuck {
            fn step(&mut self, cx: &mut Ctx) -> Step {
                match self.rx.try_recv(cx) {
                    Ok(_) => Step::Yield,
                    Err(TryRecv::Empty) => Step::Park,
                    Err(TryRecv::Disconnected) => Step::Done,
                }
            }
        }
        pool.spawn(Stuck { rx });
        let err = pool.run(2);
        assert!(
            matches!(err, Err(MrError::WorkerPanic(ref what)) if what.contains("stalled")),
            "expected a stall report, got {err:?}"
        );
    }

    /// One worker runs the scheduler as a deterministic FIFO: two
    /// identical runs interleave identically — and on the calling thread
    /// itself: a one-worker pool spawns no thread, so every step logs
    /// the caller's thread id and the report still counts one worker.
    #[test]
    fn single_worker_schedule_is_deterministic() {
        let run = || {
            let log = Mutex::new(Vec::new());
            let mut pool = Pool::new();
            struct Chatty<'g> {
                name: usize,
                left: usize,
                log: &'g Mutex<Vec<usize>>,
                caller: std::thread::ThreadId,
            }
            impl PoolTask for Chatty<'_> {
                fn step(&mut self, _cx: &mut Ctx) -> Step {
                    assert_eq!(
                        std::thread::current().id(),
                        self.caller,
                        "a one-worker pool must step on its caller's thread"
                    );
                    self.log.lock().unwrap().push(self.name);
                    self.left -= 1;
                    if self.left == 0 {
                        Step::Done
                    } else {
                        Step::Yield
                    }
                }
            }
            for name in 0..5 {
                pool.spawn(Chatty {
                    name,
                    left: 4,
                    log: &log,
                    caller: std::thread::current().id(),
                });
            }
            let report = pool.run(1).expect("pool run");
            assert_eq!((report.workers, report.peak_threads), (1, 1));
            log.into_inner().unwrap()
        };
        assert_eq!(run(), run());
    }
}
