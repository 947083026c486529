//! Semantics both backends share: each test past the selectors runs one
//! program on the simulator and on threads through [`Backend::run`]. Costs
//! are the simulator's alone and are tested in `sim.rs`.

use std::sync::{Arc, Mutex};

use crate::{
    Buf, Message, PvmError, PvmReport, PvmSim, PvmSimConfig, PvmThreads, Recv, Status, Task,
    TaskCtx, TaskId,
};

/// The two drivers of one [`Task`] program.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Sim,
    Threads,
}

impl Backend {
    const BOTH: [Backend; 2] = [Backend::Sim, Backend::Threads];

    /// Run `root` as the root task of a fresh virtual machine of `hosts`
    /// hosts.
    fn run(self, hosts: usize, root: Box<dyn Task>) -> Result<PvmReport, PvmError> {
        match self {
            Backend::Sim => {
                let mut vm = PvmSim::new(PvmSimConfig::new(hosts));
                vm.root(root);
                vm.run()
            }
            Backend::Threads => PvmThreads::run(hosts, root),
        }
    }
}

/// Echo server: replies to `n` pings, then exits.
pub(crate) struct Echo {
    remaining: u32,
}

impl Task for Echo {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        if let Some(mut m) = msg {
            let v = m.buf.unpack_int().unwrap();
            let mut reply = Buf::new();
            reply.pack_int(v * 2);
            ctx.send(m.from, 99, reply);
            self.remaining -= 1;
        }
        if self.remaining == 0 {
            Status::Exit
        } else {
            Status::Recv(Recv::any())
        }
    }
}

/// Root: spawns an [`Echo`] (on `echo_host`, or round-robin), pings it
/// `n` times, and checks every reply arrives intact and in order.
pub(crate) struct Pinger {
    n: u32,
    echo_host: Option<usize>,
    sent: u32,
    echo: Option<TaskId>,
    got: Vec<i64>,
}

impl Pinger {
    pub(crate) fn new(n: u32) -> Self {
        Pinger { n, echo_host: None, sent: 0, echo: None, got: Vec::new() }
    }

    /// As [`Pinger::new`], with the echo pinned to host 1 so that every
    /// exchange crosses the wire.
    pub(crate) fn remote(n: u32) -> Self {
        Pinger { echo_host: Some(1), ..Pinger::new(n) }
    }
}

impl Task for Pinger {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        if self.echo.is_none() {
            let echo = Box::new(Echo { remaining: self.n });
            self.echo = Some(match self.echo_host {
                Some(host) => ctx.spawn_on(host, echo),
                None => ctx.spawn(echo),
            });
        }
        if let Some(mut m) = msg {
            self.got.push(m.buf.unpack_int().unwrap());
        }
        if self.sent < self.n {
            let mut b = Buf::new();
            b.pack_int(self.sent as i64);
            ctx.send(self.echo.unwrap(), 7, b);
            self.sent += 1;
            return Status::Recv(Recv::tag(99));
        }
        if (self.got.len() as u32) < self.n {
            return Status::Recv(Recv::tag(99));
        }
        assert_eq!(self.got, (0..self.n as i64).map(|v| v * 2).collect::<Vec<_>>());
        Status::Exit
    }
}

#[test]
fn recv_selectors() {
    let m = Message { from: TaskId(3), tag: 7, buf: Buf::new() };
    assert!(Recv::any().matches(&m));
    assert!(Recv::tag(7).matches(&m));
    assert!(!Recv::tag(8).matches(&m));
    assert!(Recv::from(TaskId(3)).matches(&m));
    assert!(!Recv::from(TaskId(4)).matches(&m));
    assert!(Recv::from_tag(TaskId(3), 7).matches(&m));
    assert!(!Recv::from_tag(TaskId(3), 9).matches(&m));
}

#[test]
fn ping_pong_round_trips() {
    for backend in Backend::BOTH {
        let report =
            backend.run(2, Box::new(Pinger::new(5))).unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert!(report.seconds > 0.0, "{backend:?}");
        assert_eq!(report.stats.counter("spawns"), 1, "{backend:?}");
        // 5 pings + 5 replies.
        assert_eq!(report.stats.counter("messages"), 10, "{backend:?}");
    }
}

#[test]
fn deadlock_detected() {
    struct Stuck;
    impl Task for Stuck {
        fn resume(&mut self, _ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            Status::Recv(Recv::any())
        }
    }
    for backend in Backend::BOTH {
        match backend.run(1, Box::new(Stuck)) {
            Err(PvmError::Deadlock { waiting }) => assert_eq!(waiting, [TaskId(0)], "{backend:?}"),
            other => panic!("{backend:?}: {other:?}"),
        }
    }
}

#[test]
fn a_panicking_task_panics_the_run_instead_of_hanging_it() {
    // The root waits for a message the panicking child never sends.
    struct Boom;
    impl Task for Boom {
        fn resume(&mut self, _ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            panic!("boom")
        }
    }
    struct Root;
    impl Task for Root {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            ctx.spawn(Box::new(Boom));
            Status::Recv(Recv::any())
        }
    }
    for backend in Backend::BOTH {
        let payload = std::panic::catch_unwind(|| backend.run(2, Box::new(Root)))
            .expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{backend:?}");
    }
}

#[test]
fn selective_recv_by_source() {
    // Root spawns two senders and receives from a specific one first.
    struct Sender {
        to: TaskId,
        val: i64,
    }
    impl Task for Sender {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            let mut b = Buf::new();
            b.pack_int(self.val);
            ctx.send(self.to, 1, b);
            Status::Exit
        }
    }
    struct Root {
        phase: u32,
        s2: Option<TaskId>,
    }
    impl Task for Root {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
            match self.phase {
                0 => {
                    let me = ctx.mytid();
                    let _s1 = ctx.spawn(Box::new(Sender { to: me, val: 1 }));
                    let s2 = ctx.spawn(Box::new(Sender { to: me, val: 2 }));
                    self.s2 = Some(s2);
                    self.phase = 1;
                    Status::Recv(Recv::from(s2))
                }
                1 => {
                    let mut m = msg.unwrap();
                    assert_eq!(m.from, self.s2.unwrap());
                    assert_eq!(m.buf.unpack_int().unwrap(), 2);
                    self.phase = 2;
                    Status::Recv(Recv::any())
                }
                _ => {
                    let mut m = msg.unwrap();
                    assert_eq!(m.buf.unpack_int().unwrap(), 1);
                    Status::Exit
                }
            }
        }
    }
    for backend in Backend::BOTH {
        backend
            .run(3, Box::new(Root { phase: 0, s2: None }))
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
    }
}

#[test]
fn groups_assign_instances_in_join_order() {
    struct Joiner {
        report_to: TaskId,
    }
    impl Task for Joiner {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            let inst = ctx.join_group("g");
            // Everyone can resolve instance 0, the root.
            assert_eq!(ctx.group_tid("g", 0), Some(self.report_to));
            let mut b = Buf::new();
            b.pack_int(inst as i64);
            ctx.send(self.report_to, 5, b);
            Status::Exit
        }
    }
    struct Root {
        got: Vec<i64>,
    }
    impl Task for Root {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
            if self.got.is_empty() && msg.is_none() {
                assert_eq!(ctx.join_group("g"), 0);
                let me = ctx.mytid();
                for _ in 0..3 {
                    ctx.spawn(Box::new(Joiner { report_to: me }));
                }
            }
            if let Some(mut m) = msg {
                self.got.push(m.buf.unpack_int().unwrap());
            }
            if self.got.len() == 3 {
                let mut sorted = self.got.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![1, 2, 3]);
                assert_eq!(ctx.group_size("g"), 4);
                assert_eq!(ctx.group_tid("g", 0), Some(ctx.mytid()));
                Status::Exit
            } else {
                Status::Recv(Recv::tag(5))
            }
        }
    }
    for backend in Backend::BOTH {
        backend
            .run(2, Box::new(Root { got: Vec::new() }))
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
    }
}

#[test]
fn mcast_reaches_everyone() {
    struct Leaf {
        report_to: TaskId,
    }
    impl Task for Leaf {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
            match msg {
                None => Status::Recv(Recv::tag(3)),
                Some(mut m) => {
                    let v = m.buf.unpack_int().unwrap();
                    let mut b = Buf::new();
                    b.pack_int(v + 1);
                    ctx.send(self.report_to, 4, b);
                    Status::Exit
                }
            }
        }
    }
    struct Root {
        leaves: Vec<TaskId>,
        acks: u32,
    }
    impl Task for Root {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
            if self.leaves.is_empty() {
                let me = ctx.mytid();
                self.leaves = (0..4).map(|_| ctx.spawn(Box::new(Leaf { report_to: me }))).collect();
                let mut b = Buf::new();
                b.pack_int(10);
                ctx.mcast(&self.leaves.clone(), 3, b);
                return Status::Recv(Recv::tag(4));
            }
            let mut m = msg.unwrap();
            assert_eq!(m.buf.unpack_int().unwrap(), 11);
            self.acks += 1;
            if self.acks == 4 {
                Status::Exit
            } else {
                Status::Recv(Recv::tag(4))
            }
        }
    }
    for backend in Backend::BOTH {
        let report = backend
            .run(4, Box::new(Root { leaves: Vec::new(), acks: 0 }))
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        // 4 mcast legs + 4 acks.
        assert_eq!(report.stats.counter("messages"), 8, "{backend:?}");
    }
}

/// Phased workers: everyone must finish phase 1 before any enters phase
/// 2; phases validated through a shared order log.
struct Phased {
    log: Arc<Mutex<Vec<(u32, u8)>>>,
    me: u32,
    phase: u8,
    n: usize,
}

impl Task for Phased {
    fn resume(&mut self, _ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
        if self.phase < 2 {
            self.phase += 1;
            self.log.lock().unwrap().push((self.me, self.phase));
            return Status::Barrier { name: "phase".to_string(), count: self.n };
        }
        Status::Exit
    }
}

#[test]
fn barrier_orders_phases_globally() {
    /// Spawns the `n` barrier participants; takes no part itself.
    struct Root {
        log: Arc<Mutex<Vec<(u32, u8)>>>,
        n: usize,
    }
    impl Task for Root {
        fn resume(&mut self, ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            for k in 0..self.n {
                let log = self.log.clone();
                ctx.spawn(Box::new(Phased { log, me: k as u32, phase: 0, n: self.n }));
            }
            Status::Exit
        }
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    for backend in Backend::BOTH {
        let report = backend
            .run(3, Box::new(Root { log: log.clone(), n: 5 }))
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert_eq!(report.stats.counter("barriers_released"), 2, "{backend:?}");
        let mut log = log.lock().unwrap();
        assert_eq!(log.len(), 10, "{backend:?}");
        // Every phase-1 entry precedes every phase-2 entry.
        let last_p1 = log.iter().rposition(|&(_, p)| p == 1).unwrap();
        let first_p2 = log.iter().position(|&(_, p)| p == 2).unwrap();
        assert!(last_p1 < first_p2, "{backend:?}: {log:?}");
        log.clear();
    }
}

#[test]
fn unfilled_barrier_is_a_deadlock() {
    struct Lonely;
    impl Task for Lonely {
        fn resume(&mut self, _ctx: &mut TaskCtx<'_>, _msg: Option<Message>) -> Status {
            Status::Barrier { name: "never".to_string(), count: 2 }
        }
    }
    for backend in Backend::BOTH {
        match backend.run(1, Box::new(Lonely)) {
            Err(PvmError::Deadlock { waiting }) => assert_eq!(waiting, [TaskId(0)], "{backend:?}"),
            other => panic!("{backend:?}: {other:?}"),
        }
    }
}
