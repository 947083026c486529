//! The threaded PVM backend: the same [`Task`] state machines as
//! [`crate::sim`], one OS thread per task, on the host clock.
//!
//! A task's thread loops: `resume`, apply the commands the resume
//! issued (a send lands in a mailbox, a spawn starts a thread), then
//! block on the returned [`Status`] until a matching message arrives or
//! the barrier fills. No lock is held across `resume`, so tasks compute
//! in parallel.
//!
//! Nothing is ever in flight: a send lands in the receiver's mailbox
//! under the one state lock. So once every live task is blocked, none
//! can be woken, and the run ends with [`PvmError::Deadlock`] as it
//! does on the simulator.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use msgr_sim::{Clock, Stats};
use msgr_trace::Metric;

use crate::task::{Cmd, Roster, Wait};
use crate::{Buf, Message, PvmError, PvmReport, Recv, Status, Tag, Task, TaskCtx, TaskId};

/// The threaded PVM virtual machine.
///
/// # Example
///
/// ```
/// use msgr_pvm::{Message, PvmThreads, Status, Task, TaskCtx};
///
/// /// Spawns a child that exits at once.
/// struct Root;
/// struct Child;
/// impl Task for Root {
///     fn resume(&mut self, ctx: &mut TaskCtx<'_>, _: Option<Message>) -> Status {
///         ctx.spawn(Box::new(Child));
///         Status::Exit
///     }
/// }
/// impl Task for Child {
///     fn resume(&mut self, _: &mut TaskCtx<'_>, _: Option<Message>) -> Status {
///         Status::Exit
///     }
/// }
/// let report = PvmThreads::run(2, Box::new(Root)).unwrap();
/// assert_eq!(report.stats.counter("spawns"), 1);
/// ```
#[derive(Debug)]
pub struct PvmThreads;

const POISONED: &str = "the PVM state lock was poisoned";

/// What every task thread shares.
struct Vm {
    hosts: usize,
    roster: Roster,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    slots: HashMap<TaskId, Slot>,
    /// Barrier name → (participants, arrivals so far).
    barriers: HashMap<String, (usize, Vec<TaskId>)>,
    /// Set once every task that has not exited is blocked; each then
    /// returns.
    deadlock: bool,
    threads: Vec<JoinHandle<()>>,
    stats: Stats,
}

struct Slot {
    wait: Wait,
    mailbox: VecDeque<Message>,
    wake: Arc<Condvar>,
}

impl Slot {
    /// Wake the blocked task.
    fn release(&mut self) {
        self.wait = Wait::Running;
        self.wake.notify_one();
    }
}

impl PvmThreads {
    /// Run `root` as task 0 on host 0 of a virtual machine of `hosts`
    /// hosts, until every task exits. Hosts only name placements here:
    /// every task gets a thread of its own.
    ///
    /// # Errors
    ///
    /// [`PvmError::Deadlock`] if every live task blocks with nothing to
    /// wake it.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`, and re-raises the panic of a task that
    /// panicked once every thread is joined.
    pub fn run(hosts: usize, root: Box<dyn Task>) -> Result<PvmReport, PvmError> {
        assert!(hosts > 0, "need at least one host");
        let start = Instant::now();
        let vm = Arc::new(Vm { hosts, roster: Roster::default(), state: Mutex::default() });
        let tid = vm.roster.next_tid();
        vm.lock().start(&vm, tid, 0, root);
        // Every thread is pushed before its parent ends, so an empty
        // list means every thread has been joined.
        let mut panicked = None;
        while let Some(thread) = vm.next_thread() {
            if let Err(payload) = thread.join() {
                panicked = Some(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        let st = vm.lock();
        if st.deadlock {
            let mut waiting: Vec<TaskId> =
                st.slots.iter().filter(|(_, s)| s.wait.blocked()).map(|(t, _)| *t).collect();
            waiting.sort_unstable();
            return Err(PvmError::Deadlock { waiting });
        }
        let seconds = start.elapsed().as_secs_f64();
        Ok(PvmReport { seconds, clock: Clock::Wall, events: 0, stats: st.stats.clone() })
    }
}

impl Vm {
    /// The state lock. It is held only for bookkeeping, never across a
    /// task's code, so a poisoned lock is a bug here.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    fn next_thread(&self) -> Option<JoinHandle<()>> {
        self.lock().threads.pop()
    }
}

impl State {
    /// Apply one command a resume of `from` issued.
    fn apply(&mut self, vm: &Arc<Vm>, from: TaskId, cmd: Cmd) {
        match cmd {
            Cmd::Send { to, tag, buf } => self.deliver(from, to, tag, buf),
            Cmd::Mcast { to, tag, buf } => {
                for t in to {
                    self.deliver(from, t, tag, buf.clone());
                }
            }
            Cmd::Spawn { tid, host, task } => {
                self.stats.bump(Metric::Spawns);
                self.start(vm, tid, host, task);
            }
        }
    }

    /// Start `task`'s thread.
    fn start(&mut self, vm: &Arc<Vm>, tid: TaskId, host: usize, task: Box<dyn Task>) {
        let wake = Arc::new(Condvar::new());
        let slot = Slot { wait: Wait::Running, mailbox: VecDeque::new(), wake: wake.clone() };
        self.slots.insert(tid, slot);
        let vm = vm.clone();
        self.threads.push(std::thread::spawn(move || run_task(&vm, tid, host, task, &wake)));
    }

    /// Put a message in `to`'s mailbox, and wake `to` if it waits for
    /// it. Messages to exited tasks are kept and never read (PVM returns
    /// an error code; the paper's programs never send to dead tasks).
    fn deliver(&mut self, from: TaskId, to: TaskId, tag: Tag, mut buf: Buf) {
        let Some(slot) = self.slots.get_mut(&to) else {
            self.stats.bump(Metric::DeadLetters);
            return;
        };
        self.stats.bump(Metric::Messages);
        buf.rewind();
        let msg = Message { from, tag, buf };
        if matches!(slot.wait, Wait::Recv(sel) if sel.matches(&msg)) {
            slot.release();
        }
        slot.mailbox.push_back(msg);
    }

    /// Take `tid`'s first message that `sel` matches.
    fn take(&mut self, tid: TaskId, sel: Recv) -> Option<Message> {
        let mailbox = &mut self.slots.get_mut(&tid).expect("a running task has a slot").mailbox;
        let pos = mailbox.iter().position(|m| sel.matches(m))?;
        mailbox.remove(pos)
    }

    /// `tid` arrived at barrier `name`; whether that filled it. The
    /// last arrival wakes the others.
    fn arrive(&mut self, tid: TaskId, name: &str, count: usize) -> bool {
        let entry = self.barriers.entry(name.to_string()).or_insert_with(|| (count, Vec::new()));
        entry.1.push(tid);
        if entry.1.len() < entry.0 {
            return false;
        }
        let (_, waiters) = self.barriers.remove(name).expect("just arrived");
        self.stats.bump(Metric::BarriersReleased);
        for waiter in waiters.into_iter().filter(|t| *t != tid) {
            self.slots.get_mut(&waiter).expect("an arrival has a slot").release();
        }
        true
    }

    /// Put `tid` in `wait`, and declare a deadlock if no task is left
    /// running but some are blocked: nothing can wake them.
    fn set(&mut self, tid: TaskId, wait: Wait) {
        self.slots.get_mut(&tid).expect("a started task has a slot").wait = wait;
        let running = self.slots.values().any(|s| s.wait == Wait::Running);
        if !running && self.slots.values().any(|s| s.wait.blocked()) {
            self.deadlock = true;
            for slot in self.slots.values() {
                slot.wake.notify_one();
            }
        }
    }
}

/// A task's thread: resume, apply, block, until the task exits or the
/// virtual machine deadlocks.
fn run_task(vm: &Arc<Vm>, tid: TaskId, host: usize, mut task: Box<dyn Task>, wake: &Condvar) {
    let _exit = ExitGuard { vm, tid };
    let mut msg = None;
    loop {
        let mut ctx = TaskCtx::new(tid, host, vm.hosts, &vm.roster);
        let status = task.resume(&mut ctx, msg.take());
        let (_, cmds) = ctx.finish();
        let mut st = vm.lock();
        st.stats.bump(Metric::Segments);
        for cmd in cmds {
            st.apply(vm, tid, cmd);
        }
        match &status {
            Status::Exit => return,
            Status::Recv(sel) => {
                if let Some(m) = st.take(tid, *sel) {
                    msg = Some(m);
                    continue;
                }
            }
            Status::Barrier { name, count } => {
                if st.arrive(tid, name, *count) {
                    continue;
                }
            }
        }
        let wait = Wait::after(&status);
        st.set(tid, wait);
        while st.slots[&tid].wait != Wait::Running {
            if st.deadlock {
                return;
            }
            st = wake.wait(st).expect(POISONED);
        }
        if let Wait::Recv(sel) = wait {
            msg = Some(st.take(tid, sel).expect("woken by a matching message"));
        }
    }
}

/// Lives as long as a task's thread: its drop books the exit, by return
/// or by unwinding, so a panicking task cannot leave the others waiting
/// on it for ever. A task that returns because of a deadlock stays
/// booked as waiting.
struct ExitGuard<'a> {
    vm: &'a Vm,
    tid: TaskId,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        // A drop must not panic: it may run while the thread unwinds.
        let mut st = self.vm.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.deadlock {
            return;
        }
        st.stats.bump(Metric::Exited);
        st.set(self.tid, Wait::Exited);
    }
}
