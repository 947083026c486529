//! The logical network: nodes, links, node variables, and destination
//! matching.
//!
//! "Nodes may contain arbitrary variables or data structures, while links
//! may be used by a Messenger for navigation … The logical network thus
//! represents a data structure external to and independent of any ongoing
//! activity" (§1). Nodes and links persist until explicitly `delete`d.

use std::collections::HashMap;
use std::sync::Arc;

use msgr_vm::{Dir, EvalHop, EvalLink, LinkInstance, Value};

use crate::ids::{DaemonId, NodeRef};

/// How a link record is oriented *from the perspective of the node that
/// stores it*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orient {
    /// The link points away from this node (`ldir = +` follows it).
    Out,
    /// The link points toward this node (`ldir = -` follows it).
    In,
    /// Undirected.
    Undirected,
}

impl Orient {
    /// The orientation the peer node stores for the same link.
    pub fn reversed(self) -> Orient {
        match self {
            Orient::Out => Orient::In,
            Orient::In => Orient::Out,
            Orient::Undirected => Orient::Undirected,
        }
    }

    /// Whether a traversal with direction constraint `d` may follow a
    /// link with this orientation.
    pub fn allows(self, d: Dir) -> bool {
        match d {
            Dir::Any => true,
            Dir::Forward => matches!(self, Orient::Out | Orient::Undirected),
            Dir::Backward => matches!(self, Orient::In | Orient::Undirected),
        }
    }
}

/// One half of a logical link, stored at each endpoint. Link *instances*
/// are identified cluster-wide by [`LinkInstance`] so that `$last` can
/// name the precise (possibly unnamed) link a messenger arrived on.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRec {
    /// Cluster-unique instance id (shared by both halves).
    pub inst: LinkInstance,
    /// Link name; `Value::Null` for unnamed links (`~`).
    pub name: Value,
    /// Orientation from this endpoint's perspective.
    pub orient: Orient,
    /// The other endpoint.
    pub peer: (DaemonId, NodeRef),
    /// Cached name of the peer node (node names are immutable).
    pub peer_name: Value,
}

impl LinkRec {
    /// Whether this link satisfies an evaluated hop destination.
    pub fn matches(&self, hop: &EvalHop) -> bool {
        if !self.orient.allows(hop.ldir) {
            return false;
        }
        let link_ok = match &hop.ll {
            EvalLink::Wild => true,
            EvalLink::Unnamed => self.name == Value::Null,
            EvalLink::Named(n) => self.name.loose_eq(n),
            EvalLink::Instance(inst) => self.inst == *inst,
            EvalLink::Virtual => false, // virtual hops bypass links entirely
        };
        if !link_ok {
            return false;
        }
        match &hop.ln {
            None => true,
            Some(n) => self.peer_name.loose_eq(n),
        }
    }
}

/// A logical node: name, variables, and link endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalNode {
    /// Cluster-wide reference.
    pub gid: NodeRef,
    /// Node name; `Value::Null` if unnamed.
    pub name: Value,
    /// Node variables — "resident in nodes of the logical network and
    /// shared by all Messengers currently visiting the same logical
    /// node" (§2.1).
    pub vars: HashMap<Arc<str>, Value>,
    /// Link halves attached to this node.
    pub links: Vec<LinkRec>,
}

impl LogicalNode {
    /// A fresh node.
    pub fn new(gid: NodeRef, name: Value) -> Self {
        LogicalNode { gid, name, vars: HashMap::new(), links: Vec::new() }
    }

    /// All links satisfying an evaluated hop destination, in insertion
    /// order (deterministic replication order).
    pub fn matching_links(&self, hop: &EvalHop) -> Vec<&LinkRec> {
        self.links.iter().filter(|l| l.matches(hop)).collect()
    }

    /// Remove the link half with instance id `inst`; returns it if
    /// present.
    pub fn unlink(&mut self, inst: LinkInstance) -> Option<LinkRec> {
        let i = self.links.iter().position(|l| l.inst == inst)?;
        Some(self.links.remove(i))
    }

    /// Whether the node has become an unlinked singleton (candidate for
    /// deletion after a `delete` traversal).
    pub fn is_singleton(&self) -> bool {
        self.links.is_empty()
    }

    /// Read a node variable (NULL if unset).
    pub fn var(&self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or(Value::Null)
    }

    /// Write a node variable.
    pub fn set_var(&mut self, name: &str, v: Value) {
        write_var(&mut self.vars, name, v);
    }
}

/// Write `v` to variable `name` in place: the `Arc<str>` key is allocated
/// on the variable's first write only.
pub(crate) fn write_var(vars: &mut HashMap<Arc<str>, Value>, name: &str, v: Value) {
    match vars.get_mut(name) {
        Some(slot) => *slot = v,
        None => {
            vars.insert(Arc::from(name), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(name: Value, orient: Orient, peer_name: Value, inst: u64) -> LinkRec {
        LinkRec {
            inst: LinkInstance(inst),
            name,
            orient,
            peer: (DaemonId(1), NodeRef::new(1, 0)),
            peer_name,
        }
    }

    fn hop(ln: Option<Value>, ll: EvalLink, ldir: Dir) -> EvalHop {
        EvalHop { ln, ll, ldir }
    }

    #[test]
    fn orientation_rules() {
        assert!(Orient::Out.allows(Dir::Forward));
        assert!(!Orient::Out.allows(Dir::Backward));
        assert!(Orient::In.allows(Dir::Backward));
        assert!(!Orient::In.allows(Dir::Forward));
        assert!(Orient::Undirected.allows(Dir::Forward));
        assert!(Orient::Undirected.allows(Dir::Backward));
        assert!(Orient::Out.allows(Dir::Any));
        assert_eq!(Orient::Out.reversed(), Orient::In);
        assert_eq!(Orient::Undirected.reversed(), Orient::Undirected);
    }

    #[test]
    fn name_matching() {
        let l = link(Value::str("row"), Orient::Undirected, Value::str("b"), 7);
        assert!(l.matches(&hop(None, EvalLink::Wild, Dir::Any)));
        assert!(l.matches(&hop(None, EvalLink::Named(Value::str("row")), Dir::Any)));
        assert!(!l.matches(&hop(None, EvalLink::Named(Value::str("col")), Dir::Any)));
        assert!(!l.matches(&hop(None, EvalLink::Unnamed, Dir::Any)));
        assert!(l.matches(&hop(Some(Value::str("b")), EvalLink::Wild, Dir::Any)));
        assert!(!l.matches(&hop(Some(Value::str("c")), EvalLink::Wild, Dir::Any)));
    }

    #[test]
    fn unnamed_and_instance_matching() {
        let l = link(Value::Null, Orient::Out, Value::Null, 42);
        assert!(l.matches(&hop(None, EvalLink::Unnamed, Dir::Any)));
        assert!(l.matches(&hop(None, EvalLink::Instance(LinkInstance(42)), Dir::Forward)));
        assert!(!l.matches(&hop(None, EvalLink::Instance(LinkInstance(41)), Dir::Any)));
        // Direction still applies to instance matches.
        assert!(!l.matches(&hop(None, EvalLink::Instance(LinkInstance(42)), Dir::Backward)));
        // Virtual never matches a physical link.
        assert!(!l.matches(&hop(Some(Value::str("x")), EvalLink::Virtual, Dir::Any)));
    }

    #[test]
    fn numeric_names_compare_loosely() {
        let l = link(Value::Int(3), Orient::Undirected, Value::Float(2.0), 1);
        assert!(l.matches(&hop(None, EvalLink::Named(Value::Float(3.0)), Dir::Any)));
        assert!(l.matches(&hop(Some(Value::Int(2)), EvalLink::Wild, Dir::Any)));
    }

    #[test]
    fn node_link_management() {
        let mut n = LogicalNode::new(NodeRef::new(0, 0), Value::str("init"));
        assert!(n.is_singleton());
        n.links.push(link(Value::str("a"), Orient::Out, Value::Null, 1));
        n.links.push(link(Value::str("b"), Orient::In, Value::Null, 2));
        assert_eq!(n.matching_links(&hop(None, EvalLink::Wild, Dir::Any)).len(), 2);
        assert_eq!(n.matching_links(&hop(None, EvalLink::Wild, Dir::Forward)).len(), 1);
        let removed = n.unlink(LinkInstance(1)).unwrap();
        assert_eq!(removed.name, Value::str("a"));
        assert!(n.unlink(LinkInstance(1)).is_none());
        assert!(!n.is_singleton());
        n.unlink(LinkInstance(2));
        assert!(n.is_singleton());
    }

    #[test]
    fn node_vars_default_to_null() {
        let mut n = LogicalNode::new(NodeRef::new(0, 0), Value::Null);
        assert_eq!(n.var("x"), Value::Null);
        n.set_var("x", Value::Int(9));
        assert_eq!(n.var("x"), Value::Int(9));
    }
}
