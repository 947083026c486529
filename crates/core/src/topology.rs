//! Daemon-network topology and logical-network construction
//! (`net_builder`).

use std::collections::HashMap;

use msgr_vm::{Dir, EvalLink, Value};

use crate::daemon::Daemon;
use crate::ids::{DaemonId, NodeRef};
use crate::logical::{LinkRec, Orient};
use crate::ClusterError;

/// One edge of the daemon network, stored per endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonLink {
    /// The neighboring daemon.
    pub peer: DaemonId,
    /// Link name (`Value::Null` = unnamed).
    pub name: Value,
    /// Orientation from this endpoint.
    pub orient: Orient,
}

/// The static daemon network. `create` statements match their
/// `(dn, dl, ddir)` destination specification against the current
/// daemon's neighbors here.
#[derive(Debug, Clone)]
pub struct DaemonTopology {
    adj: Vec<Vec<DaemonLink>>,
}

impl DaemonTopology {
    /// The default topology: a clique with self-loops — every daemon is a
    /// neighbor of every daemon, including itself. (With a single daemon,
    /// `create(ALL)` then still creates one worker node, so the paper's
    /// 1-processor data points exist.)
    pub fn clique(n: usize) -> Self {
        let adj = (0..n)
            .map(|_| {
                (0..n)
                    .map(|j| DaemonLink {
                        peer: DaemonId(j as u16),
                        name: Value::Null,
                        orient: Orient::Undirected,
                    })
                    .collect()
            })
            .collect();
        DaemonTopology { adj }
    }

    /// A clique without self-loops.
    pub fn clique_no_self(n: usize) -> Self {
        let mut t = Self::clique(n);
        for (i, links) in t.adj.iter_mut().enumerate() {
            links.retain(|l| l.peer != DaemonId(i as u16));
        }
        t
    }

    /// A bidirectional ring with links named `"ring"`, oriented forward
    /// around increasing ids.
    pub fn ring(n: usize) -> Self {
        let mut adj: Vec<Vec<DaemonLink>> = vec![Vec::new(); n];
        for i in 0..n {
            let next = (i + 1) % n;
            adj[i].push(DaemonLink {
                peer: DaemonId(next as u16),
                name: Value::str("ring"),
                orient: Orient::Out,
            });
            adj[next].push(DaemonLink {
                peer: DaemonId(i as u16),
                name: Value::str("ring"),
                orient: Orient::In,
            });
        }
        DaemonTopology { adj }
    }

    /// Number of daemons.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `d`.
    pub fn neighbors(&self, d: DaemonId) -> &[DaemonLink] {
        &self.adj[d.0 as usize]
    }

    /// The daemons matching a `create` destination `(dn, dl, ddir)` from
    /// daemon `from`, in deterministic order.
    pub fn matches(
        &self,
        from: DaemonId,
        dn: &Option<Value>,
        dl: &EvalLink,
        ddir: Dir,
    ) -> Vec<DaemonId> {
        let mut out = Vec::new();
        for l in self.neighbors(from) {
            if !l.orient.allows(ddir) {
                continue;
            }
            let link_ok = match dl {
                EvalLink::Wild => true,
                EvalLink::Unnamed => l.name == Value::Null,
                EvalLink::Named(n) => l.name.loose_eq(n),
                EvalLink::Instance(_) | EvalLink::Virtual => false,
            };
            if !link_ok {
                continue;
            }
            let node_ok = match dn {
                None => true,
                Some(v) => Value::Int(l.peer.0 as i64).loose_eq(v),
            };
            if node_ok && !out.contains(&l.peer) {
                out.push(l.peer);
            }
        }
        out
    }
}

/// A declarative logical-network description, realized by the platform
/// before a run — our `net_builder` service (§3.2: "any static logical
/// network is constructed by describing its topology in a file … and then
/// starting a specialized service Messenger called net_builder").
#[derive(Debug, Clone, Default)]
pub struct LogicalTopology {
    /// `(node name, daemon placement)`.
    pub nodes: Vec<(Value, DaemonId)>,
    /// `(from node name, to node name, link name, directedness)` —
    /// `Dir::Forward` makes the link point from → to; `Dir::Any` makes
    /// it undirected.
    pub links: Vec<(Value, Value, Value, Dir)>,
}

impl LogicalTopology {
    /// An empty topology.
    pub fn new() -> Self {
        LogicalTopology::default()
    }

    /// Add a named node placed on `daemon`.
    pub fn node(&mut self, name: impl Into<Value>, daemon: DaemonId) -> &mut Self {
        self.nodes.push((name.into(), daemon));
        self
    }

    /// Add a link between two named nodes.
    pub fn link(
        &mut self,
        from: impl Into<Value>,
        to: impl Into<Value>,
        name: impl Into<Value>,
        dir: Dir,
    ) -> &mut Self {
        self.links.push((from.into(), to.into(), name.into(), dir));
        self
    }

    /// Realize this topology on `daemons` (both platforms' `build`):
    /// create the named nodes on their daemons, publish each in
    /// `directory`, and install both halves of every link.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for a placement outside the cluster,
    /// [`ClusterError::NotFound`] if a link references an unknown node.
    pub(crate) fn realize(
        &self,
        daemons: &mut [Daemon],
        directory: &mut HashMap<Value, (DaemonId, NodeRef)>,
    ) -> Result<(), ClusterError> {
        for (name, d) in &self.nodes {
            if d.0 as usize >= daemons.len() {
                return Err(ClusterError::Config(format!("node placed on missing daemon {d}")));
            }
            let gid = daemons[d.0 as usize].build_node(name.clone());
            directory.insert(name.clone(), (*d, gid));
        }
        for (from, to, link_name, dir) in &self.links {
            let &(fd, fref) = directory
                .get(from)
                .ok_or_else(|| ClusterError::NotFound(format!("node {from}")))?;
            let &(td, tref) =
                directory.get(to).ok_or_else(|| ClusterError::NotFound(format!("node {to}")))?;
            let inst = daemons[fd.0 as usize].alloc_link();
            let orient_from = match dir {
                Dir::Forward => Orient::Out,
                Dir::Backward => Orient::In,
                Dir::Any => Orient::Undirected,
            };
            daemons[fd.0 as usize].install_link(
                fref,
                LinkRec {
                    inst,
                    name: link_name.clone(),
                    orient: orient_from,
                    peer: (td, tref),
                    peer_name: to.clone(),
                },
            );
            daemons[td.0 as usize].install_link(
                tref,
                LinkRec {
                    inst,
                    name: link_name.clone(),
                    orient: orient_from.reversed(),
                    peer: (fd, fref),
                    peer_name: from.clone(),
                },
            );
        }
        Ok(())
    }

    /// The Fig. 10 matrix-multiplication network: an `m × m` grid of
    /// nodes named `"i,j"`, each row fully connected by undirected links
    /// named `"row"`, each column a ring of links named `"column"`
    /// directed from `[i,j]` to `[(i-1) mod m, j]` (the direction
    /// `rotate_B` hops along with `ldir = +`). Node `[i,j]` is placed on
    /// daemon `(i*m + j) mod n_daemons`.
    pub fn grid(m: usize, n_daemons: usize) -> Self {
        let mut t = LogicalTopology::new();
        let name = |i: usize, j: usize| Value::str(format!("{i},{j}"));
        for i in 0..m {
            for j in 0..m {
                t.node(name(i, j), DaemonId(((i * m + j) % n_daemons) as u16));
            }
        }
        // Rows: full mesh, undirected, named "row".
        for i in 0..m {
            for j in 0..m {
                for j2 in (j + 1)..m {
                    t.link(name(i, j), name(i, j2), Value::str("row"), Dir::Any);
                }
            }
        }
        // Columns: ring, directed upward ([i,j] → [i-1 mod m, j]).
        // A 1×1 grid has no column movement (self-loops excluded).
        if m > 1 {
            for j in 0..m {
                for i in 0..m {
                    let up = (i + m - 1) % m;
                    t.link(name(i, j), name(up, j), Value::str("column"), Dir::Forward);
                }
            }
        }
        t
    }

    /// Parse the `net_builder` topology file format (§3.2: "any static
    /// logical network is constructed by describing its topology in a
    /// file"). One declaration per line; `#` starts a comment:
    ///
    /// ```text
    /// # nodes: name @ daemon
    /// node hub   @0
    /// node west  @1
    /// node east  @2
    /// # links: undirected `--` or directed `->`, optional `: name`
    /// link hub -- west : spoke
    /// link hub -- east : spoke
    /// link west -> east : oneway
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut topo = LogicalTopology::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}: `{raw}`", lineno + 1);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("node") => {
                    let name = words.next().ok_or_else(|| err("missing node name"))?;
                    let at = words.next().ok_or_else(|| err("missing `@daemon`"))?;
                    let daemon: u16 = at
                        .strip_prefix('@')
                        .ok_or_else(|| err("placement must be `@<daemon>`"))?
                        .parse()
                        .map_err(|_| err("bad daemon number"))?;
                    if words.next().is_some() {
                        return Err(err("trailing tokens after node declaration"));
                    }
                    topo.node(Value::str(name), DaemonId(daemon));
                }
                Some("link") => {
                    let from = words.next().ok_or_else(|| err("missing source node"))?;
                    let arrow = words.next().ok_or_else(|| err("missing `--` or `->`"))?;
                    let to = words.next().ok_or_else(|| err("missing target node"))?;
                    let dir = match arrow {
                        "--" => Dir::Any,
                        "->" => Dir::Forward,
                        "<-" => Dir::Backward,
                        other => return Err(err(&format!("unknown arrow `{other}`"))),
                    };
                    let name = match (words.next(), words.next()) {
                        (None, _) => Value::Null,
                        (Some(":"), Some(n)) => Value::str(n),
                        _ => return Err(err("link name must be written `: name`")),
                    };
                    if words.next().is_some() {
                        return Err(err("trailing tokens after link declaration"));
                    }
                    topo.link(Value::str(from), Value::str(to), name, dir);
                }
                Some(other) => return Err(err(&format!("unknown declaration `{other}`"))),
                None => unreachable!("blank lines filtered"),
            }
        }
        Ok(topo)
    }

    /// Render back to the `net_builder` file format ([`Self::parse`]
    /// round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, d) in &self.nodes {
            out.push_str(&format!("node {name} @{}\n", d.0));
        }
        for (from, to, name, dir) in &self.links {
            let arrow = match dir {
                Dir::Any => "--",
                Dir::Forward => "->",
                Dir::Backward => "<-",
            };
            if *name == Value::Null {
                out.push_str(&format!("link {from} {arrow} {to}\n"));
            } else {
                out.push_str(&format!("link {from} {arrow} {to} : {name}\n"));
            }
        }
        out
    }

    /// A star: one `"hub"` on daemon 0 and `n` leaves `"leaf<k>"` spread
    /// round-robin over daemons, linked to the hub with links named
    /// `"spoke"`.
    pub fn star(n: usize, n_daemons: usize) -> Self {
        let mut t = LogicalTopology::new();
        t.node(Value::str("hub"), DaemonId(0));
        for k in 0..n {
            let leaf = Value::str(format!("leaf{k}"));
            t.node(leaf.clone(), DaemonId((k % n_daemons) as u16));
            t.link(Value::str("hub"), leaf, Value::str("spoke"), Dir::Any);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_includes_self() {
        let t = DaemonTopology::clique(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.neighbors(DaemonId(1)).len(), 3);
        let m = t.matches(DaemonId(0), &None, &EvalLink::Wild, Dir::Any);
        assert_eq!(m, vec![DaemonId(0), DaemonId(1), DaemonId(2)]);
    }

    #[test]
    fn clique_no_self_excludes_self() {
        let t = DaemonTopology::clique_no_self(3);
        let m = t.matches(DaemonId(1), &None, &EvalLink::Wild, Dir::Any);
        assert_eq!(m, vec![DaemonId(0), DaemonId(2)]);
    }

    #[test]
    fn dn_pattern_filters_by_id() {
        let t = DaemonTopology::clique(4);
        let m = t.matches(DaemonId(0), &Some(Value::Int(2)), &EvalLink::Wild, Dir::Any);
        assert_eq!(m, vec![DaemonId(2)]);
        let none = t.matches(DaemonId(0), &Some(Value::Int(9)), &EvalLink::Wild, Dir::Any);
        assert!(none.is_empty());
    }

    #[test]
    fn ring_directions() {
        let t = DaemonTopology::ring(4);
        let fwd = t.matches(DaemonId(0), &None, &EvalLink::Named(Value::str("ring")), Dir::Forward);
        assert_eq!(fwd, vec![DaemonId(1)]);
        let bwd = t.matches(DaemonId(0), &None, &EvalLink::Wild, Dir::Backward);
        assert_eq!(bwd, vec![DaemonId(3)]);
    }

    #[test]
    fn grid_topology_shape() {
        let t = LogicalTopology::grid(3, 9);
        assert_eq!(t.nodes.len(), 9);
        // Rows: 3 rows × C(3,2)=3 links; columns: 3 columns × 3 links.
        let rows = t.links.iter().filter(|l| l.2 == Value::str("row")).count();
        let cols = t.links.iter().filter(|l| l.2 == Value::str("column")).count();
        assert_eq!(rows, 9);
        assert_eq!(cols, 9);
        // Column links are directed.
        assert!(t
            .links
            .iter()
            .filter(|l| l.2 == Value::str("column"))
            .all(|l| l.3 == Dir::Forward));
        // Placement on 9 daemons is one node per daemon.
        let mut daemons: Vec<u16> = t.nodes.iter().map(|(_, d)| d.0).collect();
        daemons.sort_unstable();
        assert_eq!(daemons, (0..9).collect::<Vec<u16>>());
    }

    #[test]
    fn grid_1x1_has_no_columns() {
        let t = LogicalTopology::grid(1, 1);
        assert_eq!(t.nodes.len(), 1);
        assert!(t.links.is_empty());
    }

    #[test]
    fn star_shape() {
        let t = LogicalTopology::star(5, 2);
        assert_eq!(t.nodes.len(), 6);
        assert_eq!(t.links.len(), 5);
    }

    #[test]
    fn parse_topology_file() {
        let t = LogicalTopology::parse(
            r#"
            # a little triangle
            node hub  @0
            node west @1   # comment after
            node east @2
            link hub -- west : spoke
            link hub -- east : spoke
            link west -> east : oneway
            link east <- hub
            "#,
        )
        .unwrap();
        assert_eq!(t.nodes.len(), 3);
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.nodes[1], (Value::str("west"), DaemonId(1)));
        assert_eq!(
            t.links[2],
            (Value::str("west"), Value::str("east"), Value::str("oneway"), Dir::Forward)
        );
        assert_eq!(t.links[3].2, Value::Null);
        assert_eq!(t.links[3].3, Dir::Backward);
    }

    #[test]
    fn parse_round_trips_through_to_text() {
        let original = LogicalTopology::grid(2, 4);
        let text = original.to_text();
        let back = LogicalTopology::parse(&text).unwrap();
        assert_eq!(back.nodes, original.nodes);
        assert_eq!(back.links, original.links);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let e = LogicalTopology::parse("node a @0\nnode b\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = LogicalTopology::parse("link a => b").unwrap_err();
        assert!(e.contains("unknown arrow"), "{e}");
        let e = LogicalTopology::parse("frob x").unwrap_err();
        assert!(e.contains("unknown declaration"), "{e}");
        let e = LogicalTopology::parse("node a @x").unwrap_err();
        assert!(e.contains("bad daemon"), "{e}");
        let e = LogicalTopology::parse("link a -- b name").unwrap_err();
        assert!(e.contains("`: name`"), "{e}");
    }
}
