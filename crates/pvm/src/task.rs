//! The task model both backends drive: a PVM task is a [`Task`] state
//! machine whose `resume` runs until the task needs a message (returns
//! [`Status::Recv`]), waits at a barrier, or exits. Everything else —
//! sends, multicasts, spawns, compute — happens through [`TaskCtx`]
//! during `resume` and takes effect when it returns. This mirrors how
//! the benchmarks' PVM programs (Figs. 2 and 9) block only in `recv`.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use msgr_sim::{Clock, Stats};

use crate::{Buf, Message, Recv, Tag, TaskId};

/// What a task does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Block until a message matching the selector arrives.
    Recv(Recv),
    /// Block at a named barrier until `count` tasks have arrived
    /// (`pvm_barrier`); all are then resumed with `msg = None`.
    Barrier {
        /// Barrier (group) name.
        name: String,
        /// Number of participants.
        count: usize,
    },
    /// The task is finished.
    Exit,
}

/// A PVM task as a resumable state machine.
pub trait Task: Send {
    /// Run until the next blocking point. `msg` is `None` on first entry
    /// and `Some` when a requested message has been delivered.
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status;
}

/// A run's outcome, on either backend.
#[derive(Debug, Clone)]
pub struct PvmReport {
    /// Seconds until the last task exited, on `clock`: simulated on
    /// [`crate::PvmSim`], wall on [`crate::PvmThreads`].
    pub seconds: f64,
    /// The clock `seconds` were read on.
    pub clock: Clock,
    /// Events executed (0 on threads, which has no event queue).
    pub events: u64,
    /// Counters (messages, spawns, …; threads counts no costs).
    pub stats: Stats,
}

/// Errors from a PVM run.
#[derive(Debug, Clone, PartialEq)]
pub enum PvmError {
    /// Tasks deadlocked: every live task waited in `recv` or at a
    /// barrier, and no message that could wake one was on its way.
    Deadlock {
        /// The stuck task ids, ascending.
        waiting: Vec<TaskId>,
    },
    /// Event budget exhausted.
    Stalled {
        /// Events executed before giving up.
        events: u64,
    },
}

impl std::fmt::Display for PvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PvmError::Deadlock { waiting } => {
                write!(f, "PVM deadlock: {} task(s) blocked in recv", waiting.len())
            }
            PvmError::Stalled { events } => write!(f, "PVM run stalled after {events} events"),
        }
    }
}

impl std::error::Error for PvmError {}

/// Where a task is: running (or woken and about to run), blocked in
/// `recv` or at a barrier, or exited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Wait {
    Running,
    Recv(Recv),
    Barrier,
    Exited,
}

impl Wait {
    /// What a task that returned `status` waits for.
    pub(crate) fn after(status: &Status) -> Wait {
        match status {
            Status::Recv(sel) => Wait::Recv(*sel),
            Status::Barrier { .. } => Wait::Barrier,
            Status::Exit => Wait::Exited,
        }
    }

    /// Whether the task is blocked: one of a deadlock's waiting tasks.
    pub(crate) fn blocked(self) -> bool {
        matches!(self, Wait::Recv(_) | Wait::Barrier)
    }
}

/// What a resume asked for, applied by the backend once it returns.
pub(crate) enum Cmd {
    Send { to: TaskId, tag: Tag, buf: Buf },
    Mcast { to: Vec<TaskId>, tag: Tag, buf: Buf },
    Spawn { tid: TaskId, host: usize, task: Box<dyn Task> },
}

/// The virtual machine's names: task ids, round-robin placement and
/// groups. A resuming task reads and writes them directly; each lock is
/// held for one call, never across a `resume`.
#[derive(Default)]
pub(crate) struct Roster {
    next_tid: AtomicU32,
    rr_host: AtomicUsize,
    groups: Mutex<Vec<(String, Vec<TaskId>)>>,
}

impl Roster {
    /// A fresh task id: ids count up from 0 in spawn order.
    pub(crate) fn next_tid(&self) -> TaskId {
        TaskId(self.next_tid.fetch_add(1, Ordering::Relaxed))
    }

    fn groups(&self) -> MutexGuard<'_, Vec<(String, Vec<TaskId>)>> {
        self.groups.lock().expect("no task panics inside a group call")
    }
}

/// The interface a resuming task uses to act on the virtual machine.
pub struct TaskCtx<'a> {
    me: TaskId,
    host: usize,
    hosts: usize,
    charged: u64,
    roster: &'a Roster,
    cmds: Vec<Cmd>,
}

impl<'a> TaskCtx<'a> {
    pub(crate) fn new(me: TaskId, host: usize, hosts: usize, roster: &'a Roster) -> Self {
        TaskCtx { me, host, hosts, charged: 0, roster, cmds: Vec::new() }
    }

    /// What the resume charged and asked for.
    pub(crate) fn finish(self) -> (u64, Vec<Cmd>) {
        (self.charged, self.cmds)
    }

    /// This task's id (`pvm_mytid`).
    pub fn mytid(&self) -> TaskId {
        self.me
    }

    /// The host this task runs on.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Total hosts in the virtual machine (`pvm_config`).
    pub fn nhosts(&self) -> usize {
        self.hosts
    }

    /// Charge `ref_ns` of computation to this task's segment. The
    /// simulator bills it to the host CPU; on threads the computation
    /// really ran, and the charge is dropped.
    pub fn charge(&mut self, ref_ns: u64) {
        self.charged += ref_ns;
    }

    /// Send a buffer (`pvm_send`). The pack/copy costs are charged to
    /// this segment automatically.
    pub fn send(&mut self, to: TaskId, tag: Tag, buf: Buf) {
        self.cmds.push(Cmd::Send { to, tag, buf });
    }

    /// Multicast to several tasks (`pvm_mcast`): one pack, one wire
    /// message per destination.
    pub fn mcast(&mut self, to: &[TaskId], tag: Tag, buf: Buf) {
        self.cmds.push(Cmd::Mcast { to: to.to_vec(), tag, buf });
    }

    /// Spawn a new task (`pvm_spawn`), placed round-robin over hosts.
    pub fn spawn(&mut self, task: Box<dyn Task>) -> TaskId {
        let host = self.roster.rr_host.fetch_add(1, Ordering::Relaxed) % self.hosts;
        self.spawn_on(host, task)
    }

    /// Spawn on a specific host (`pvm_spawn` with `PvmTaskHost`).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn spawn_on(&mut self, host: usize, task: Box<dyn Task>) -> TaskId {
        assert!(host < self.hosts, "host {host} out of range");
        let tid = self.roster.next_tid();
        self.cmds.push(Cmd::Spawn { tid, host, task });
        tid
    }

    /// Join a named group (`pvm_joingroup`); returns this task's
    /// instance number.
    pub fn join_group(&mut self, name: &str) -> usize {
        let mut groups = self.roster.groups();
        let entry = match groups.iter().position(|(n, _)| n == name) {
            Some(i) => &mut groups[i],
            None => {
                groups.push((name.to_string(), Vec::new()));
                groups.last_mut().expect("just pushed")
            }
        };
        if let Some(i) = entry.1.iter().position(|t| *t == self.me) {
            return i;
        }
        entry.1.push(self.me);
        entry.1.len() - 1
    }

    /// The task at `inst` in a group (`pvm_gettid`), if it has joined.
    pub fn group_tid(&self, name: &str, inst: usize) -> Option<TaskId> {
        let groups = self.roster.groups();
        groups.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.get(inst).copied())
    }

    /// Current size of a group (`pvm_gsize`).
    pub fn group_size(&self, name: &str) -> usize {
        self.roster.groups().iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v.len())
    }
}
