//! Netlist construction shared by the BLIF and bench parsers: name
//! interning, single-driver bookkeeping, and 2-input gate chains.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};

/// Strips a `#` comment (neither format has strings to protect).
pub(crate) fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}

/// The most nodes [`NetBuilder::for_text`] reserves room for (the
/// generator's largest netlist), so a huge or hostile text grows its
/// tables only as it actually defines nodes.
const MAX_RESERVED_NODES: usize = 1 << 21;

/// What the source text has said about one node.
#[derive(Clone, Copy, Default)]
struct Role {
    driven: bool,
    input: bool,
    output: bool,
}

/// Builder state shared by both parsers: a netlist, the name → node
/// table (nodes created at first reference — the round-trip ordering
/// contract), and per-node roles enforcing single drivers and unique
/// input/output declarations.
pub(crate) struct NetBuilder {
    pub netlist: Netlist,
    names: NameTable,
    roles: Vec<Role>,
}

impl NetBuilder {
    #[cfg(test)]
    pub(crate) fn new() -> NetBuilder {
        NetBuilder::for_text(0)
    }

    /// A builder sized for netlist text of `len` bytes. The densities are
    /// those of written BLIF (about 35 bytes per gate and per node, a
    /// sixth of the text in names); bench text is denser per gate, and
    /// any shortfall grows as usual. Past [`MAX_RESERVED_NODES`] nodes'
    /// worth of text nothing more is reserved up front.
    pub(crate) fn for_text(len: usize) -> NetBuilder {
        let len = len.min(MAX_RESERVED_NODES * 32);
        let nodes = len / 32;
        NetBuilder {
            netlist: Netlist::with_capacity(nodes, len / 6, nodes),
            names: NameTable::with_capacity(nodes),
            roles: Vec::with_capacity(nodes),
        }
    }

    /// The node for `name`, created as a plain node on first reference.
    pub(crate) fn node(&mut self, name: &str) -> NodeId {
        match self.names.find(&self.netlist, name) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.netlist.node(name);
                self.register(slot, id, Role::default());
                id
            }
        }
    }

    /// Declares `name` a primary input. Errors if it is already driven
    /// by a gate or already declared.
    pub(crate) fn input(&mut self, name: &str) -> Result<NodeId, String> {
        match self.names.find(&self.netlist, name) {
            Ok(id) => {
                let role = self.roles[id.index()];
                if role.input {
                    Err(format!("`{name}` is declared an input twice"))
                } else if role.driven {
                    Err(format!("`{name}` is both a gate output and an input"))
                } else {
                    // The node exists but was only referenced; netlists
                    // cannot retrofit the input flag, so forward references
                    // to a name later declared an input are rejected for
                    // determinism.
                    Err(format!("`{name}` was used before its input declaration"))
                }
            }
            Err(slot) => {
                let id = self.netlist.input(name);
                let role = Role {
                    input: true,
                    ..Role::default()
                };
                self.register(slot, id, role);
                Ok(id)
            }
        }
    }

    /// Declares `name` an observable output, creating its node on first
    /// reference. Errors if it is already declared one.
    pub(crate) fn output(&mut self, name: &str) -> Result<NodeId, String> {
        let id = self.node(name);
        let role = &mut self.roles[id.index()];
        if role.output {
            return Err(format!("`{name}` is declared an output twice"));
        }
        role.output = true;
        Ok(id)
    }

    /// Marks `name`'s node as gate-driven, enforcing one driver and no
    /// drive fights with declared inputs. Returns the node.
    pub(crate) fn drive(&mut self, name: &str) -> Result<NodeId, String> {
        let id = self.node(name);
        let role = &mut self.roles[id.index()];
        if role.input {
            return Err(format!("`{name}` is a declared input and cannot be driven"));
        }
        if role.driven {
            return Err(format!("`{name}` is driven twice"));
        }
        role.driven = true;
        Ok(id)
    }

    /// Adds an intermediate gate (auto-named output) during SOP or
    /// wide-fanin decomposition; the auto-generated name is registered
    /// so the written form re-parses to the identical structure.
    pub(crate) fn synth_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NodeId],
    ) -> Result<NodeId, String> {
        let out = self.netlist.gate(kind, inputs).map_err(|e| e.to_string())?;
        let name = self.netlist.node_name(out);
        // The new node is not in the table yet, so a hit is an older
        // signal of the same name.
        match self.names.find(&self.netlist, name) {
            Ok(_) => Err(format!(
                "auto-generated name `{name}` collides with an existing signal"
            )),
            Err(slot) => {
                let role = Role {
                    driven: true,
                    ..Role::default()
                };
                self.register(slot, out, role);
                Ok(out)
            }
        }
    }

    /// Whether any signal with this name exists yet.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.names.find(&self.netlist, name).is_ok()
    }

    /// Signals referenced somewhere but never driven and never declared
    /// inputs: how many, and the alphabetically first one's name.
    pub(crate) fn undriven(&self) -> Option<(usize, &str)> {
        let mut count = 0;
        let mut first: Option<&str> = None;
        for (id, role) in self.netlist.node_ids().zip(&self.roles) {
            if !role.driven && !role.input {
                count += 1;
                let name = self.netlist.node_name(id);
                if first.is_none_or(|f| name < f) {
                    first = Some(name);
                }
            }
        }
        first.map(|name| (count, name))
    }

    fn register(&mut self, slot: Slot, id: NodeId, role: Role) {
        self.names.insert(slot, id);
        self.roles.push(role);
    }
}

/// Left-folds `nodes` into a chain of 2-input gates; a single node is
/// returned unchanged.
pub(crate) fn fold_chain(
    b: &mut NetBuilder,
    kind: GateKind,
    nodes: &[NodeId],
) -> Result<NodeId, String> {
    match nodes {
        [] => Err("cube has no literals".to_string()),
        [one] => Ok(*one),
        [first, rest @ ..] => {
            let mut acc = *first;
            for &next in rest {
                acc = b.synth_gate(kind, &[acc, next])?;
            }
            Ok(acc)
        }
    }
}

/// Where a missing name would go in the [`NameTable`]: its slot and
/// its hash.
#[derive(Clone, Copy)]
struct Slot {
    index: usize,
    hash: u32,
}

/// An open-addressing hash set of node indices keyed by node name. The
/// names themselves stay in the netlist — the one owned copy of each —
/// and a probe compares against `Netlist::node_name`.
struct NameTable {
    /// Keyed per table, so crafted names cannot force long probe runs.
    hasher: RandomState,
    /// Each slot is the low 32 hash bits above the node index plus one,
    /// or 0 when empty. The length is a power of two, at least 4/3 of
    /// the entry count; an entry's home slot is its hash bits masked to
    /// the length.
    slots: Vec<u64>,
    len: usize,
}

impl NameTable {
    /// A table that holds `names` names before it first grows.
    fn with_capacity(names: usize) -> NameTable {
        NameTable {
            hasher: RandomState::new(),
            slots: NameTable::empty_slots(NameTable::slots_for(names)),
            len: 0,
        }
    }

    /// `len` empty slots, written rather than left to a zeroing
    /// allocator (`vec![0; len]`): a probe reads a slot before an insert
    /// writes it, and a read of an untouched zeroed page maps the shared
    /// zero page, so every page would fault twice.
    #[allow(clippy::slow_vector_initialization)]
    fn empty_slots(len: usize) -> Vec<u64> {
        let mut slots = Vec::with_capacity(len);
        slots.resize(len, 0);
        slots
    }

    /// The slot count that keeps `names` entries at most 3/4 full.
    fn slots_for(names: usize) -> usize {
        (names + names / 3 + 1).next_power_of_two().max(64)
    }

    /// The low 32 bits of `name`'s keyed hash, which the slot mask uses.
    fn hash(&self, name: &str) -> u32 {
        let mut hasher = self.hasher.build_hasher();
        // A key is one whole string, so unlike `str`'s `Hash` no
        // terminator is needed to keep keys apart.
        hasher.write(name.as_bytes());
        hasher.finish() as u32
    }

    /// The node named `name`, or the slot where it would be inserted.
    fn find(&self, netlist: &Netlist, name: &str) -> Result<NodeId, Slot> {
        let hash = self.hash(name);
        let mask = self.slots.len() - 1;
        let mut index = hash as usize & mask;
        loop {
            let slot = self.slots[index];
            let node = slot as u32;
            if node == 0 {
                return Err(Slot { index, hash });
            }
            let id = NodeId::from_index(node as usize - 1);
            if (slot >> 32) as u32 == hash && netlist.node_name(id) == name {
                return Ok(id);
            }
            index = (index + 1) & mask;
        }
    }

    /// Fills the slot [`NameTable::find`] returned, growing the table
    /// once it is 3/4 full.
    fn insert(&mut self, slot: Slot, id: NodeId) {
        // Node indices fit in 32 bits, as in the netlist's name offsets.
        self.slots[slot.index] = u64::from(slot.hash) << 32 | (id.index() as u64 + 1);
        self.len += 1;
        if NameTable::slots_for(self.len) > self.slots.len() {
            let grown = NameTable::empty_slots(self.slots.len() * 2);
            let old = std::mem::replace(&mut self.slots, grown);
            let mask = self.slots.len() - 1;
            for entry in old.into_iter().filter(|&entry| entry as u32 != 0) {
                let mut index = (entry >> 32) as usize & mask;
                while self.slots[index] != 0 {
                    index = (index + 1) & mask;
                }
                self.slots[index] = entry;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_intern_once_across_growth() {
        let mut b = NetBuilder::new();
        let ids: Vec<NodeId> = (0..1000).map(|i| b.node(&format!("n{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(b.node(&format!("n{i}")), id);
            assert_eq!(b.netlist.node_name(id), format!("n{i}"));
        }
        assert_eq!(b.netlist.node_count(), 1000);
        assert!(b.contains("n999") && !b.contains("n1000"));
    }

    #[test]
    fn undriven_reports_count_and_smallest_name() {
        let mut b = NetBuilder::new();
        b.input("a").unwrap();
        b.node("zeta");
        b.node("beta");
        b.drive("y").unwrap();
        assert_eq!(b.undriven(), Some((2, "beta")));
        b.drive("zeta").unwrap();
        b.drive("beta").unwrap();
        assert_eq!(b.undriven(), None);
    }

    #[test]
    fn roles_are_enforced() {
        let mut b = NetBuilder::new();
        b.input("a").unwrap();
        assert!(b.input("a").unwrap_err().contains("input twice"));
        assert!(b.drive("a").unwrap_err().contains("cannot be driven"));
        b.output("y").unwrap();
        assert!(b.output("y").unwrap_err().contains("output twice"));
        b.drive("y").unwrap();
        assert!(b.drive("y").unwrap_err().contains("driven twice"));
        assert!(b
            .input("y")
            .unwrap_err()
            .contains("gate output and an input"));
        b.node("late");
        assert!(b.input("late").unwrap_err().contains("used before"));
    }
}
