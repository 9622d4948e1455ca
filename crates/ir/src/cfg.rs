//! Control-flow graph over the structured AST.
//!
//! Polaris guaranteed "that the control flow graph is consistent through
//! automatic updates as a transformation proceeds". With a structured AST
//! the CFG cannot drift from the statements: it is *derived* on demand
//! from the nesting structure, which provides the same guarantee by
//! construction. The graph is used by the GSA-flavoured reaching-
//! definition queries and is exercised heavily in tests as a consistency
//! oracle.

use crate::stmt::{StmtId, StmtKind, StmtList};
use std::collections::BTreeMap;

/// Basic-block identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// A basic block: straight-line statements plus flow edges.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<StmtId>,
    pub succs: Vec<BlockId>,
    pub preds: Vec<BlockId>,
    /// For loop-header blocks, the id of the `DO` statement.
    pub loop_header: Option<StmtId>,
}

/// The control-flow graph of one statement list (usually a unit body).
#[derive(Debug, Clone)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    pub entry: BlockId,
    pub exit: BlockId,
}

impl Cfg {
    /// Build the CFG for `list`.
    pub fn build(list: &StmtList) -> Cfg {
        let mut cfg = Cfg::build_forward(list);
        cfg.compute_preds();
        cfg
    }

    /// [`Cfg::build`] with every `preds` list left empty, for a caller
    /// that only follows successor edges (the validator, once per unit
    /// per stage).
    pub(crate) fn build_forward(list: &StmtList) -> Cfg {
        let mut b = Builder { blocks: vec![Block::default(), Block::default()] };
        let entry = BlockId(0);
        let exit = BlockId(1);
        let last = b.lower_list(list, entry);
        b.edge(last, exit);
        Cfg { blocks: b.blocks, entry, exit }
    }

    fn compute_preds(&mut self) {
        for b in &mut self.blocks {
            b.preds.clear();
        }
        let edges: Vec<(BlockId, BlockId)> = self
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.succs.iter().map(move |s| (BlockId(i), *s)))
            .collect();
        for (from, to) in edges {
            self.blocks[to.0].preds.push(from);
        }
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Immediate dominators (entry maps to itself). Cooper–Harvey–Kennedy
    /// iterative algorithm on a reverse-postorder traversal.
    pub fn dominators(&self) -> BTreeMap<BlockId, BlockId> {
        let rpo = self.reverse_postorder();
        let order_index: BTreeMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let mut idom: BTreeMap<BlockId, BlockId> = BTreeMap::new();
        idom.insert(self.entry, self.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &self.blocks[b.0].preds {
                    if !idom.contains_key(&p) {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(cur, p, &idom, &order_index),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom.get(&b) != Some(&ni) {
                        idom.insert(b, ni);
                        changed = true;
                    }
                }
            }
        }
        idom
    }

    /// Blocks in reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        self.dfs(self.entry, &mut visited, &mut post);
        post.reverse();
        post
    }

    fn dfs(&self, b: BlockId, visited: &mut Vec<bool>, post: &mut Vec<BlockId>) {
        if visited[b.0] {
            return;
        }
        visited[b.0] = true;
        for &s in &self.blocks[b.0].succs {
            self.dfs(s, visited, post);
        }
        post.push(b);
    }

    /// Does `a` dominate `b`?
    pub fn dominates(&self, a: BlockId, b: BlockId, idom: &BTreeMap<BlockId, BlockId>) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom.get(&cur) {
                Some(&d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Block containing statement `id`, if any.
    pub fn block_of(&self, id: StmtId) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.stmts.contains(&id))
            .map(BlockId)
    }

    /// Consistency check: every edge endpoint exists, preds mirror succs.
    /// This is the CFG analogue of `p_assert`; tests run it after every
    /// transformation.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, b) in self.blocks.iter().enumerate() {
            for s in &b.succs {
                if s.0 >= self.blocks.len() {
                    return Err(format!("block {i} has dangling successor {}", s.0));
                }
                if !self.blocks[s.0].preds.contains(&BlockId(i)) {
                    return Err(format!("edge {i}->{} missing reverse pred", s.0));
                }
            }
            for p in &b.preds {
                if !self.blocks[p.0].succs.contains(&BlockId(i)) {
                    return Err(format!("pred edge {}->{i} missing forward succ", p.0));
                }
            }
        }
        Ok(())
    }
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &BTreeMap<BlockId, BlockId>,
    order: &BTreeMap<BlockId, usize>,
) -> BlockId {
    // Walk both up the dominator tree until they meet. Nodes later in RPO
    // are "deeper".
    while a != b {
        while order.get(&a) > order.get(&b) {
            a = idom[&a];
        }
        while order.get(&b) > order.get(&a) {
            b = idom[&b];
        }
    }
    a
}

struct Builder {
    blocks: Vec<Block>,
}

impl Builder {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId(self.blocks.len() - 1)
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from.0].succs.contains(&to) {
            self.blocks[from.0].succs.push(to);
        }
    }

    /// Lower `list` starting in block `cur`; returns the block control
    /// falls out of.
    fn lower_list(&mut self, list: &StmtList, mut cur: BlockId) -> BlockId {
        for stmt in list {
            match &stmt.kind {
                StmtKind::Do(d) => {
                    let header = self.new_block();
                    self.blocks[header.0].stmts.push(stmt.id);
                    self.blocks[header.0].loop_header = Some(stmt.id);
                    self.edge(cur, header);
                    let body_entry = self.new_block();
                    self.edge(header, body_entry);
                    let body_exit = self.lower_list(&d.body, body_entry);
                    // back edge and fall-through
                    self.edge(body_exit, header);
                    let after = self.new_block();
                    self.edge(header, after);
                    cur = after;
                }
                StmtKind::IfBlock { arms, else_body } => {
                    // The branch decision lives in the current block.
                    self.blocks[cur.0].stmts.push(stmt.id);
                    let join = self.new_block();
                    let mut decision = cur;
                    for arm in arms {
                        let arm_entry = self.new_block();
                        self.edge(decision, arm_entry);
                        let arm_exit = self.lower_list(&arm.body, arm_entry);
                        self.edge(arm_exit, join);
                        // The "condition false" path flows to the next
                        // decision point.
                        let next_decision = self.new_block();
                        self.edge(decision, next_decision);
                        decision = next_decision;
                    }
                    if else_body.is_empty() {
                        self.edge(decision, join);
                    } else {
                        let else_exit = self.lower_list(else_body, decision);
                        self.edge(else_exit, join);
                    }
                    cur = join;
                }
                _ => {
                    self.blocks[cur.0].stmts.push(stmt.id);
                }
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(body: &str) -> (Cfg, StmtList) {
        let src = format!("program t\n{body}\nend\n");
        let unit = crate::parse(&src).unwrap().units.remove(0);
        (Cfg::build(&unit.body), unit.body)
    }

    #[test]
    fn straight_line_is_two_plus_entry_blocks() {
        let (cfg, _) = cfg_of("x = 1\ny = 2");
        cfg.check_consistency().unwrap();
        // entry block holds both statements and flows to exit
        assert_eq!(cfg.blocks[cfg.entry.0].stmts.len(), 2);
        assert_eq!(cfg.blocks[cfg.entry.0].succs, vec![cfg.exit]);
    }

    #[test]
    fn loop_creates_back_edge() {
        let (cfg, _) = cfg_of("do i = 1, 10\n  x = i\nend do");
        cfg.check_consistency().unwrap();
        // find the header: block with loop_header set
        let header = cfg
            .blocks
            .iter()
            .position(|b| b.loop_header.is_some())
            .map(BlockId)
            .unwrap();
        // header must have 2 successors (body, after) and an incoming
        // back edge from the body.
        assert_eq!(cfg.blocks[header.0].succs.len(), 2);
        assert!(cfg.blocks[header.0].preds.len() >= 2);
    }

    #[test]
    fn if_creates_diamond() {
        let (cfg, _) = cfg_of("if (x > 0) then\n  y = 1\nelse\n  y = 2\nend if\nz = 3");
        cfg.check_consistency().unwrap();
        let rpo = cfg.reverse_postorder();
        assert!(rpo.len() >= 4);
        let idom = cfg.dominators();
        // entry dominates everything reachable
        for b in rpo {
            assert!(cfg.dominates(cfg.entry, b, &idom));
        }
    }

    #[test]
    fn dominators_of_nested_loop() {
        let (cfg, _) = cfg_of("do i = 1, 4\n  do j = 1, 4\n    x = 1\n  end do\nend do");
        cfg.check_consistency().unwrap();
        let idom = cfg.dominators();
        let headers: Vec<BlockId> = cfg
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.loop_header.is_some())
            .map(|(i, _)| BlockId(i))
            .collect();
        assert_eq!(headers.len(), 2);
        // outer header dominates inner header
        assert!(cfg.dominates(headers[0], headers[1], &idom));
        assert!(!cfg.dominates(headers[1], headers[0], &idom));
    }

    #[test]
    fn block_of_finds_statements() {
        let (cfg, body) = cfg_of("x = 1\ndo i = 1, 2\n  y = 2\nend do");
        let mut ids = Vec::new();
        body.walk(&mut |s| ids.push(s.id));
        for id in ids {
            assert!(cfg.block_of(id).is_some(), "{id} not placed in any block");
        }
    }
}
