//! Computation DAG construction (paper Sec. VI-C, "DAG construction").
//!
//! Builds, from the lowered CFG form of a function (see
//! [`crate::cfg::lower_function`]), the directed acyclic graph whose
//! nodes are floating-point operations (the source nodes are input
//! variables) and whose edges are data dependencies. Blocks are walked
//! once in layout order, so loop bodies contribute once and loop-carried
//! dependencies are dropped, matching the paper's analysis; conditional
//! branches contribute both arms. Instructions marked as belonging to a
//! branch condition are skipped — the analysis considers data flow only.
//!
//! Array elements with constant flat indices are tracked individually; a
//! store through a non-constant index conservatively retargets the whole
//! array (subsequent loads of any element of that array see that store).
//!
//! The DAG is always built from the **unoptimized** CFG: the max-reuse
//! analysis ranks source operations, so it must see every operation the
//! programmer wrote, not the post-CSE/DCE residue.

use crate::cfg::{ArrId, Cfg, FReg, IReg, Inst, ParamBinding};
use safegen_cfront::{Function, Sema, Span};
use std::collections::{HashMap, HashSet};

/// Index of a node in the DAG.
pub type NodeId = usize;

/// Kinds of DAG nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// A source node: an input variable (parameter or element thereof).
    Input(String),
    /// A floating-point constant.
    Const(f64),
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Negation.
    Neg,
    /// `sqrt`.
    Sqrt,
    /// `fabs`.
    Abs,
    /// `fmin`.
    Min,
    /// `fmax`.
    Max,
    /// Precision cast.
    Cast,
}

impl NodeKind {
    /// True for source (input) nodes.
    pub fn is_input(&self) -> bool {
        matches!(self, NodeKind::Input(_))
    }
}

/// One node of the computation DAG.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operation (or input) this node represents.
    pub kind: NodeKind,
    /// Operand nodes (empty for inputs and constants).
    pub args: Vec<NodeId>,
    /// Source location of the operation — the hook for pragma insertion.
    pub span: Span,
    /// The variable the TAC line assigns to, if any (`_t3`, `x`, …).
    pub var: Option<String>,
}

/// The computation DAG of one function.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    nodes: Vec<Node>,
}

impl Dag {
    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (inputs + operations).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of operation (non-source) nodes.
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_input() && !matches!(n.kind, NodeKind::Const(_)))
            .count()
    }

    /// Number of input (source) nodes.
    pub fn input_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_input()).count()
    }

    /// The parents (operand nodes) of `id`.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id].args
    }

    /// Children lists: `children[v]` = nodes having `v` as an operand.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &a in &n.args {
                if !ch[a].contains(&id) {
                    ch[a].push(id);
                }
            }
        }
        ch
    }

    /// For every node, the number of its ancestors **including itself** —
    /// the paper's reuse profit `ρ(s)` (Definition 3).
    ///
    /// Computed with bitsets; nodes are already in topological order
    /// (construction order).
    pub fn ancestor_counts(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let words = n.div_ceil(64);
        let mut sets: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut counts = vec![0usize; n];
        for id in 0..n {
            let mut set = vec![0u64; words];
            set[id / 64] |= 1 << (id % 64);
            // Clone arg sets out to appease the borrow checker cheaply.
            for &a in &self.nodes[id].args {
                debug_assert!(a < id, "args must precede the node (topological order)");
                let (before, _) = sets.split_at(id.min(sets.len()));
                let aset = &before[a];
                for (w, &aw) in set.iter_mut().zip(aset.iter()) {
                    *w |= aw;
                }
            }
            counts[id] = set.iter().map(|w| w.count_ones() as usize).sum();
            sets.push(set);
        }
        counts
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// Builds the computation DAG of a TAC-form function.
///
/// Lowers the function to the CFG IR and delegates to
/// [`build_dag_from_cfg`]. Functions the IR cannot express yield an
/// empty DAG (the backend reports the error; the analysis is advisory).
pub fn build_dag(f: &Function, sema: &Sema) -> Dag {
    crate::cfg::lower_function(f, sema)
        .map(|cfg| build_dag_from_cfg(&cfg))
        .unwrap_or_default()
}

/// Builds the computation DAG from a lowered (unoptimized) CFG.
pub fn build_dag_from_cfg(cfg: &Cfg) -> Dag {
    // Int registers written more than once (loop induction variables and
    // their friends) are never constant-tracked: the blocks are walked
    // once in layout order, so the init-block write would otherwise leak
    // a stale constant into the loop body.
    let mut def_count: HashMap<IReg, u32> = HashMap::new();
    for block in &cfg.blocks {
        for ins in &block.insts {
            if let Some(d) = ins.inst.def_i() {
                *def_count.entry(d).or_insert(0) += 1;
            }
        }
    }
    let mut b = CfgDag {
        dag: Dag::default(),
        cfg,
        defs_f: HashMap::new(),
        int_inputs: HashMap::new(),
        elem_defs: HashMap::new(),
        smeared: HashMap::new(),
        int_consts: HashMap::new(),
        multi_def: def_count
            .into_iter()
            .filter(|(_, c)| *c > 1)
            .map(|(r, _)| r)
            .collect(),
    };
    // Source nodes for floating-point and array parameters; integer
    // parameters become sources lazily on first float-context use.
    for (name, binding, span) in &cfg.params {
        match binding {
            ParamBinding::Float(r) => {
                let id = b.dag.push(Node {
                    kind: NodeKind::Input(name.clone()),
                    args: vec![],
                    span: *span,
                    var: Some(name.clone()),
                });
                b.defs_f.insert(*r, id);
            }
            ParamBinding::Array(a) => {
                // One source node per array (element-wise sources appear
                // lazily on first constant-index read of local arrays).
                let id = b.dag.push(Node {
                    kind: NodeKind::Input(name.clone()),
                    args: vec![],
                    span: *span,
                    var: Some(name.clone()),
                });
                b.smeared.insert(*a, id);
            }
            ParamBinding::Int(_) => {}
        }
    }
    for block in &cfg.blocks {
        for ins in &block.insts {
            if ins.cond {
                // Branch-condition instructions carry no data flow the
                // paper's analysis considers.
                continue;
            }
            b.instr(&ins.inst, ins.span, ins.var.clone());
        }
    }
    b.dag
}

struct CfgDag<'a> {
    dag: Dag,
    cfg: &'a Cfg,
    /// Node currently held by each float register.
    defs_f: HashMap<FReg, NodeId>,
    /// Shared source node per named integer variable (int → float casts).
    int_inputs: HashMap<String, NodeId>,
    /// Last definition of each constant-indexed array element.
    elem_defs: HashMap<(ArrId, i64), NodeId>,
    /// Arrays "smeared" by a non-constant store (or array parameters).
    smeared: HashMap<ArrId, NodeId>,
    /// Known constant values of single-definition integer registers.
    int_consts: HashMap<IReg, i64>,
    /// Int registers with more than one definition (never const-tracked).
    multi_def: HashSet<IReg>,
}

impl CfgDag<'_> {
    /// The node a float register holds; reading a never-written register
    /// materializes a source node named after its home variable.
    fn resolve_f(&mut self, r: FReg, span: Span) -> NodeId {
        if let Some(&id) = self.defs_f.get(&r) {
            return id;
        }
        let name = self
            .cfg
            .fnames
            .get(r as usize)
            .and_then(|n| n.clone())
            .unwrap_or_else(|| format!("f{r}"));
        let id = self.dag.push(Node {
            kind: NodeKind::Input(name.clone()),
            args: vec![],
            span,
            var: Some(name),
        });
        self.defs_f.insert(r, id);
        id
    }

    /// Reconstructs the per-dimension display name of an element from its
    /// flat index (`a[3]` of a 2-D `a[2][2]` renders as `a[1, 1]`).
    fn elem_name(&self, arr: ArrId, flat: i64) -> String {
        let a = &self.cfg.arrays[arr as usize];
        let consts: Vec<i64> = if a.dims.len() == 2 && a.dims[1] > 0 {
            vec![flat / a.dims[1] as i64, flat % a.dims[1] as i64]
        } else {
            vec![flat]
        };
        format!("{}{consts:?}", a.name)
    }

    fn set_int(&mut self, d: IReg, v: Option<i64>) {
        match v {
            Some(c) if !self.multi_def.contains(&d) => {
                self.int_consts.insert(d, c);
            }
            _ => {
                self.int_consts.remove(&d);
            }
        }
    }

    fn int_of(&self, r: IReg) -> Option<i64> {
        self.int_consts.get(&r).copied()
    }

    fn op(&mut self, kind: NodeKind, args: Vec<NodeId>, span: Span, var: Option<String>) -> NodeId {
        self.dag.push(Node {
            kind,
            args,
            span,
            var,
        })
    }

    fn instr(&mut self, ins: &Inst, span: Span, var: Option<String>) {
        match *ins {
            Inst::ConstF(d, c) => {
                let id = self.op(NodeKind::Const(c), vec![], span, var);
                self.defs_f.insert(d, id);
            }
            Inst::MovF(d, s) => {
                // Aliasing move: the node is shared, no new node.
                let id = self.resolve_f(s, span);
                self.defs_f.insert(d, id);
            }
            Inst::Add(d, a, b)
            | Inst::Sub(d, a, b)
            | Inst::Mul(d, a, b)
            | Inst::Div(d, a, b)
            | Inst::Min(d, a, b)
            | Inst::Max(d, a, b) => {
                let l = self.resolve_f(a, span);
                let r = self.resolve_f(b, span);
                let kind = match ins {
                    Inst::Add(..) => NodeKind::Add,
                    Inst::Sub(..) => NodeKind::Sub,
                    Inst::Mul(..) => NodeKind::Mul,
                    Inst::Div(..) => NodeKind::Div,
                    Inst::Min(..) => NodeKind::Min,
                    _ => NodeKind::Max,
                };
                let id = self.op(kind, vec![l, r], span, var);
                self.defs_f.insert(d, id);
            }
            Inst::Sqrt(d, a) | Inst::Abs(d, a) | Inst::Neg(d, a) => {
                let x = self.resolve_f(a, span);
                let kind = match ins {
                    Inst::Sqrt(..) => NodeKind::Sqrt,
                    Inst::Abs(..) => NodeKind::Abs,
                    _ => NodeKind::Neg,
                };
                let id = self.op(kind, vec![x], span, var);
                self.defs_f.insert(d, id);
            }
            Inst::CastIF(d, s) => {
                let name = self.cfg.inames.get(s as usize).and_then(|n| n.clone());
                let id = match name {
                    Some(n) => match self.int_inputs.get(&n) {
                        Some(&id) => id,
                        None => {
                            // A named integer read in float context is a
                            // source, shared across its uses.
                            let id =
                                self.op(NodeKind::Input(n.clone()), vec![], span, Some(n.clone()));
                            self.int_inputs.insert(n, id);
                            id
                        }
                    },
                    None => self.op(NodeKind::Cast, vec![], span, var),
                };
                self.defs_f.insert(d, id);
            }
            Inst::LoadArr(d, arr, idx) => {
                let id = match self.int_of(idx) {
                    Some(flat) => {
                        if let Some(&id) = self.elem_defs.get(&(arr, flat)) {
                            id
                        } else if let Some(&smear) = self.smeared.get(&arr) {
                            smear
                        } else {
                            // Fresh element source.
                            let name = self.elem_name(arr, flat);
                            let id =
                                self.op(NodeKind::Input(name.clone()), vec![], span, Some(name));
                            self.elem_defs.insert((arr, flat), id);
                            id
                        }
                    }
                    None => {
                        // Non-constant load: depends on the whole array.
                        if let Some(&smear) = self.smeared.get(&arr) {
                            smear
                        } else {
                            let base = self.cfg.arrays[arr as usize].name.clone();
                            let id =
                                self.op(NodeKind::Input(base.clone()), vec![], span, Some(base));
                            self.smeared.insert(arr, id);
                            id
                        }
                    }
                };
                self.defs_f.insert(d, id);
            }
            Inst::StoreArr(arr, idx, s) => {
                let val = self.resolve_f(s, span);
                match self.int_of(idx) {
                    Some(flat) => {
                        self.elem_defs.insert((arr, flat), val);
                    }
                    None => {
                        // Non-constant store smears the array.
                        self.elem_defs.retain(|(a, _), _| *a != arr);
                        self.smeared.insert(arr, val);
                    }
                }
            }
            Inst::ConstI(d, c) => self.set_int(d, Some(c)),
            Inst::AddI(d, a, b) => {
                let v = self
                    .int_of(a)
                    .zip(self.int_of(b))
                    .map(|(x, y)| x.wrapping_add(y));
                self.set_int(d, v);
            }
            Inst::SubI(d, a, b) => {
                let v = self
                    .int_of(a)
                    .zip(self.int_of(b))
                    .map(|(x, y)| x.wrapping_sub(y));
                self.set_int(d, v);
            }
            Inst::MulI(d, a, b) => {
                let v = self
                    .int_of(a)
                    .zip(self.int_of(b))
                    .map(|(x, y)| x.wrapping_mul(y));
                self.set_int(d, v);
            }
            Inst::DivI(d, a, b) => {
                // Division by zero and `MIN / -1` stay unfolded: they are
                // runtime errors, not values.
                let v = self
                    .int_of(a)
                    .zip(self.int_of(b))
                    .and_then(|(x, y)| x.checked_div(y));
                self.set_int(d, v);
            }
            Inst::MovI(d, s) => {
                let v = self.int_of(s);
                self.set_int(d, v);
            }
            Inst::CastFI(d, _) | Inst::CmpI(_, d, ..) | Inst::CmpF(_, d, ..) => {
                self.set_int(d, None);
            }
            Inst::Protect(_) | Inst::SetCapacity(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse};

    fn dag_of(src: &str) -> Dag {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = crate::to_tac(&unit, &sema);
        let sema2 = analyze(&tac).unwrap();
        build_dag(&tac.functions[0], &sema2)
    }

    #[test]
    fn fig4_shape() {
        // x·z − y·z: 3 inputs, 2 muls, 1 sub; z reused by both muls.
        let d = dag_of("double f(double x, double y, double z) { return x * z - y * z; }");
        assert_eq!(d.input_count(), 3);
        assert_eq!(d.op_count(), 3);
        let ch = d.children();
        // z is input node 2 (third param) and must have two children.
        let z = d
            .nodes()
            .iter()
            .position(|n| matches!(&n.kind, NodeKind::Input(s) if s == "z"))
            .unwrap();
        assert_eq!(ch[z].len(), 2);
    }

    #[test]
    fn ancestor_counts_match_fig4() {
        let d = dag_of("double f(double x, double y, double z) { return x * z - y * z; }");
        let counts = d.ancestor_counts();
        // Inputs have count 1; muls have 3 (two inputs + self);
        // the sub has all 6.
        for (i, n) in d.nodes().iter().enumerate() {
            match n.kind {
                NodeKind::Input(_) => assert_eq!(counts[i], 1),
                NodeKind::Mul => assert_eq!(counts[i], 3),
                NodeKind::Sub => assert_eq!(counts[i], 6),
                _ => {}
            }
        }
    }

    #[test]
    fn scalar_reassignment_updates_deps() {
        let d = dag_of("double f(double x) { double a = x * 2.0; a = a + 1.0; return a * a; }");
        // a*a: both operands are the node of a+1.
        let last = d.nodes().last().unwrap();
        assert_eq!(last.kind, NodeKind::Mul);
        assert_eq!(last.args[0], last.args[1]);
    }

    #[test]
    fn constant_indices_tracked_individually() {
        let d = dag_of("void f(double a[4]) { a[0] = a[1] * 2.0; a[2] = a[0] + a[1]; }");
        // a[0] in the second statement must be the mul node, and a[1] the
        // same source both times.
        let add = d.nodes().iter().find(|n| n.kind == NodeKind::Add).unwrap();
        let mul_id = d
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::Mul)
            .unwrap();
        assert!(add.args.contains(&mul_id));
    }

    #[test]
    fn nonconstant_store_smears_array() {
        let d = dag_of("void f(double a[4], int i) { a[i] = a[0] * 2.0; a[1] = a[2] + 1.0; }");
        // After a[i] = …, the load a[2] must depend on the smeared store
        // (the mul node), not a fresh source.
        let mul_id = d
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::Mul)
            .unwrap();
        let add = d.nodes().iter().find(|n| n.kind == NodeKind::Add).unwrap();
        assert!(
            add.args.contains(&mul_id),
            "smeared load must see the store"
        );
    }

    #[test]
    fn loop_carried_dependencies_dropped() {
        let d = dag_of("void f(double x) { for (int i = 0; i < 10; i++) { x = x * 0.5; } }");
        // Body walked once: a single mul whose x operand is the input.
        assert_eq!(d.op_count(), 1);
        let mul = d.nodes().iter().find(|n| n.kind == NodeKind::Mul).unwrap();
        assert!(matches!(
            d.nodes()[mul.args[0]].kind,
            NodeKind::Input(_) | NodeKind::Const(_)
        ));
    }

    #[test]
    fn loop_index_becomes_nonconstant() {
        let d =
            dag_of("void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; } }");
        // a[i] load inside the loop hits the whole-array source.
        assert!(d.input_count() >= 1);
        assert_eq!(d.op_count(), 1);
    }

    #[test]
    fn both_branches_contribute() {
        let d = dag_of(
            "void f(double x, double y) { if (x < y) { x = x * 2.0; } else { x = x + 1.0; } }",
        );
        assert_eq!(d.op_count(), 2);
    }

    #[test]
    fn sqrt_and_builtins() {
        let d = dag_of("double f(double x) { return sqrt(fabs(x)); }");
        assert!(d.nodes().iter().any(|n| n.kind == NodeKind::Sqrt));
        assert!(d.nodes().iter().any(|n| n.kind == NodeKind::Abs));
    }

    #[test]
    fn nodes_topologically_ordered() {
        let d = dag_of(
            "double f(double a, double b) { double s = a + b; double p = s * a; return p - b; }",
        );
        for (id, n) in d.nodes().iter().enumerate() {
            for &arg in &n.args {
                assert!(arg < id);
            }
        }
    }

    #[test]
    fn spans_map_to_source() {
        let src = "double f(double a, double b) { return a * b - 0.5; }";
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = crate::to_tac(&unit, &sema);
        let sema2 = analyze(&tac).unwrap();
        let d = build_dag(&tac.functions[0], &sema2);
        let mul = d.nodes().iter().find(|n| n.kind == NodeKind::Mul).unwrap();
        assert!(src[mul.span.start..mul.span.end].contains('*'));
    }
}
